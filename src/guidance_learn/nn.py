"""Dense ReLU networks with the loss gradient and optimizer the training recipes need.

Everything operates on float64 numpy arrays. Networks are lists of
(weight, bias) pairs; hidden layers use ReLU, the last layer is linear
and produces logits. `backward` is the one training pass: from a single
forward pass it returns the temperature-softened probabilities (from which
callers compute their loss with `cross_entropy` or `kl_div`) and the
gradients of a scaled cross-entropy/KL against fixed targets. Losses come
in per-sample (1-D) and batch (2-D, mean over rows) variants.

A stack is K networks of one shape held as one model whose weights are
[K, out, in] and biases [K, out] (`stack` builds one, `take` picks slices
of one). The slice axis follows the inputs: every function here takes a
single model or a stack by the same code, by numpy broadcasting over the
leading axis, so the training recipes train one model on [B, d] batches
and a stack on [K, B, d] ones through the same calls. A single model maps
a batch [B, d] to logits [B, C]; a stack maps a shared batch [B, d], or
per-slice inputs [K, B, d] (slice k's own rows), to logits [K, B, C];
temperatures, gradient scales and targets may be given per slice ([K],
[K, B, C]), and batch losses come back as [K] per-slice means. Slice k of
every result is bit-identical to running the k-th network on its own
rows, because the stacked matmuls and reductions perform the same
floating-point operations in the same order.

A model's weights and biases are views of one contiguous float64 buffer,
its `flat` array, and so are a `Gradients`' arrays, laid out alike. So a
training loop reuses one gradient buffer per stage (`backward(..., out=)`
writes into it) and `sgd_step` updates the parameters and the momentum
buffer with six elementwise operations on the buffers, in cache-sized
chunks, however many layers there are. The batch losses reduce every
leading index on its own, so a loop that trains a block of S steps can keep
each step's probabilities and get all S losses, [..., S], from one call on
them stacked [..., S, B, C], each with the bits of a call on its own batch.
"""
from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, GuidanceLearnError, InputError, ParameterError, ShapeError
from .serialize import _compact_pieces, _write_atomic, read_field, read_json_text

PROB_CLAMP = 1e-12
CHECKPOINT_FORMAT_VERSION = 1
# floats per `sgd_step` chunk: a chunk of its four arrays (parameters,
# momentum, gradient, scratch) is 512 KiB, so it stays in a 2 MiB L2 cache
# through the six passes over it; in wide training steps (2 CPUs) this beat
# 2**15 and 2**16 floats per chunk
SGD_CHUNK = 2**14

# Sub-stream tags for seed derivation; every consumer of randomness in the
# package draws from default_rng(SeedSequence([seed, *tags])) so streams
# never alias across purposes.
STREAM_INIT = 1


@dataclass
class ModelParams:
    """Weights/biases of a fully connected ReLU network, or of a stack of them.

    weights[k] has shape [out_k, in_k] (a stack: [K, out_k, in_k], biases
    [K, out_k]); consecutive layers chain and the final out dim is the
    class count.

    The arrays are copied into one buffer, `flat`, and the lists hold
    views of it (see `Gradients`). The sha256 of the model's checkpoint
    bytes, once `fingerprint`, `save_checkpoint` or `load_checkpoint` has
    made it, is kept on the instance, keyed by a digest of the parameter
    state, so a model changed in place is encoded anew. Beside it a model
    loaded from a compact checkpoint keeps that file's bytes, which every
    save of the unchanged model writes as read; no other encoding is kept.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    rng_seed: int = 0
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)
    # (state digest, sha256 hex, the loaded file's bytes or None)
    _encoding: tuple[bytes, str, bytes | None] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("weights and biases must be nonempty parallel lists")
        stack = self.weights[0].shape[:-2]
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim not in (2, 3) or W.shape[:-2] != stack or b.shape != W.shape[:-1]:
                raise ShapeError(f"layer {k}: weight {W.shape} / bias {b.shape} mismatch")
            if k > 0 and W.shape[-1] != self.weights[k - 1].shape[-2]:
                raise ShapeError(
                    f"layer {k}: input dim {W.shape[-1]} != previous output dim "
                    f"{self.weights[k - 1].shape[-2]}"
                )
        _check_finite(self)
        _pack(self)
        # views of `flat` that every forward pass takes, made once
        self._transposed = [W.swapaxes(-1, -2) for W in self.weights]
        self._bias_rows = [b[..., None, :] for b in self.biases]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[-1]] + [W.shape[-2] for W in self.weights]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[-2]


def _check_finite(params: ModelParams) -> None:
    """InputError naming the first layer with a non-finite weight or bias."""
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise InputError(f"layer {k}: non-finite parameter entries")


@dataclass
class Gradients:
    """Gradient arrays mirroring a ModelParams layout; also the layout of
    the SGD momentum buffers (`sgd_step`'s velocity). Like a model's, the
    arrays are copied into one buffer, `flat`, and the lists hold views."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _pack(self)

    @classmethod
    def zeros(cls, params: ModelParams) -> "Gradients":
        """Zeros in the layout of `params`."""
        return cls(weights=[np.zeros(W.shape) for W in params.weights],
                   biases=[np.zeros(b.shape) for b in params.biases])


def _pack(arrays: ModelParams | Gradients) -> None:
    """Copy the weights and biases of `arrays` into one float64 buffer, its
    `flat`, and make them views of it: all weights, then all biases. Their
    shapes in that order are its `layout`."""
    parts = arrays.weights + arrays.biases
    flat = np.empty(sum(a.size for a in parts))
    views, start = [], 0
    for a in parts:
        view = flat[start:start + a.size].reshape(a.shape)
        view[...] = a
        views.append(view)
        start += a.size
    layers = len(arrays.weights)
    arrays.weights, arrays.biases, arrays.flat = views[:layers], views[layers:], flat
    arrays.layout = tuple(a.shape for a in parts)


def init_params(layer_dims: list[int], seed: int) -> ModelParams:
    """Scaled-uniform init: W ~ U(+-sqrt(6/(fan_in+fan_out))), biases zero."""
    if len(layer_dims) < 2:
        raise ParameterError("need at least input and output dims")
    if any(d < 1 for d in layer_dims):
        raise ParameterError(f"layer dims must be positive, got {layer_dims}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_INIT]))
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights=weights, biases=biases, rng_seed=seed)


def stack(models: list[ModelParams]) -> ModelParams:
    """The [K, ...] stack whose slice k is `models[k]`."""
    return ModelParams(
        weights=[np.stack(ws) for ws in zip(*(m.weights for m in models))],
        biases=[np.stack(bs) for bs in zip(*(m.biases for m in models))],
        rng_seed=models[0].rng_seed,
    )


def take(params: ModelParams, slices) -> ModelParams:
    """The stack whose slice j is slice `slices[j]` of the stack `params` (a
    single model is taken as a stack of one); one index, an int or a 0-d
    array, gives that slice as a single model. An index outside the stack
    is a ShapeError."""
    weights, slices = [W.reshape(-1, *W.shape[-2:]) for W in params.weights], np.asarray(slices)
    if not np.all((0 <= slices) & (slices < len(weights[0]))):
        raise ShapeError(f"slices {slices.tolist()} of a stack of {len(weights[0])} models")
    return ModelParams(
        weights=[W[slices] for W in weights],
        biases=[b.reshape(-1, b.shape[-1])[slices] for b in params.biases],
        rng_seed=params.rng_seed,
    )


def _checked_batch(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    X = np.asarray(batch, dtype=np.float64)
    X = X[None, :] if X.ndim == 1 else X
    if X.shape[:-2] not in ((), params.weights[0].shape[:-2]):
        raise ShapeError(f"per-slice batch {X.shape} needs a stack of {X.shape[0]} models, "
                         f"got weights {params.weights[0].shape}")
    if X.shape[-1] != params.weights[0].shape[-1]:
        raise ShapeError(
            f"layer 0 expects input dim {params.weights[0].shape[-1]}, "
            f"batch has {X.shape[-1]} columns"
        )
    return X


def forward(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Logits [B, C] for a batch [B, d] (a single 1-D sample gives [C]); a
    stack gives [K, B, C] ([K, C]) for a shared batch or per-slice [K, B, d]."""
    logits = _logits(params, _checked_batch(params, batch))
    return logits[..., 0, :] if np.ndim(batch) == 1 else logits


def _logits(params: ModelParams, X: np.ndarray, inputs: list | None = None) -> np.ndarray:
    """Logits of the checked batch `X`, ReLU in place. Each layer's input is
    appended to `inputs` when given, for backprop; else only the current
    layer is held, so a forward over a whole split holds two layers, not all."""
    a = X
    last = len(params.weights) - 1
    for k, (Wt, b) in enumerate(zip(params._transposed, params._bias_rows)):
        if inputs is not None:
            inputs.append(a)
        a = a @ Wt
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a


def softmax_t(logits: np.ndarray, temperature=1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Temperature softmax exp(z_i/T) / sum_j exp(z_j/T), max-subtracted,
    into `out` (which may be `logits`) or a new array.

    Stacked logits [K, B, C] take one temperature or K, one per slice.
    """
    return _normalized(_softened(_checked_logits(np.asarray(logits, dtype=np.float64)),
                                 temperature, out=out))


def _slicewise(name: str, value, array: np.ndarray) -> np.ndarray:
    """`value`, one number or [K] per-slice values for a stacked `array`
    [K, ..., B, C], shaped [K, 1, ..., 1] to broadcast against it."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape not in ((), array.shape[:-2]):
        raise ShapeError(f"per-slice {name} {value.shape} needs a stack of as many models, "
                         f"got {array.shape}")
    return value.reshape((-1,) + (1,) * (array.ndim - 1))


def _checked_logits(z: np.ndarray) -> np.ndarray:
    if not np.isfinite(z).all():
        raise InputError("logits contain non-finite entries")
    return z


def _softened(z: np.ndarray, temperature, out: np.ndarray | None = None) -> np.ndarray:
    """z / T, into `out`, for T > 0 (`_slicewise`)."""
    T = _slicewise("temperature", temperature, z)
    if not all(t > 0 for t in T.flat):
        raise ParameterError(f"temperature must be > 0, got {temperature!r}")
    return np.divide(z, T, out=out)


def _normalized(z: np.ndarray) -> np.ndarray:
    """exp(z - max z) / sum exp(z - max z) along the last axis, in place."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _check_targets(targets: np.ndarray, pred: np.ndarray, message: str) -> None:
    """Targets match the predictions' last axes: all of them, or those after
    a stack's leading [K] (targets shared by every slice); `message` names
    the shapes as {targets} and {pred}."""
    shape = np.shape(targets)
    if shape != pred.shape[pred.ndim - len(shape):]:
        raise ShapeError(message.format(targets=shape, pred=pred.shape))


def _row_mean(per_sample: np.ndarray) -> np.ndarray:
    return per_sample.mean(axis=-1) if per_sample.ndim else per_sample


def cross_entropy(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """-sum_i target_i * log(pred_i); mean over rows for 2-D inputs, per
    slice ([K]) for stacked ones. Every leading index is reduced on its own:
    the means of S batches stacked [..., S, B, C] have the bits of S calls."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    _check_targets(t, p, "pred shape {pred} != target shape {targets}")
    return _row_mean(-(t * np.log(np.maximum(p, PROB_CLAMP))).sum(axis=-1))


def kl_div(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """sum_i target_i * log(target_i / pred_i); mean over rows for 2-D, per
    slice ([K]) for stacked inputs.

    Zero target entries contribute zero; pred is clamped inside the log.
    """
    g = np.asarray(target, dtype=np.float64)
    q = np.asarray(pred, dtype=np.float64)
    _check_targets(g, q, "target shape {targets} != pred shape {pred}")
    ratio = np.where(g > 0.0, g, 1.0) / np.maximum(q, PROB_CLAMP)
    per_sample = np.where(g > 0.0, g * np.log(ratio), 0.0).sum(axis=-1)
    return np.maximum(_row_mean(per_sample), 0.0)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[..., C] rows of 0.0 with 1.0 at each label, for labels of any shape."""
    return np.take(np.eye(num_classes), np.asarray(labels), axis=0)


def _backprop(params: ModelParams, acts, delta: np.ndarray, out: Gradients) -> Gradients:
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[k], out=out.weights[k])
        np.add.reduce(delta, axis=-2, out=out.biases[k])
        if k > 0:
            delta = delta @ params.weights[k]
            delta *= acts[k] > 0.0  # the ReLU mask, as acts[k] = max(pre, 0)
    return out


def backward(
    params: ModelParams,
    batch: np.ndarray,
    targets: np.ndarray,
    temperature=None,
    scale=None,
    out: Gradients | None = None,
) -> tuple[np.ndarray, Gradients]:
    """Softened probabilities q = softmax_t(logits, T) [B, C] and the gradients
    of `scale * T` times the mean cross-entropy (equally, KL) of q against
    `targets` [B, C], from one forward pass.

    The gradient w.r.t. the logits is scale * (q - targets) / B: no
    temperature and no scale (T = 1, scale 1) train plain cross-entropy,
    scale alpha * T the guidance branch's alpha * T^2 * KL. For a stack, q
    is [K, B, C], `batch` may be per slice ([K, B, d]), `temperature` and
    `scale` per slice ([K]) and `targets` [K, B, C] or shared [B, C]. Only
    checks of O(1) cost run per call, besides the finite-logit check that
    detects divergence. The gradients are written into `out`, a
    Gradients in the layout of `params` that a training loop reuses, or
    into new zeros; q is the forward pass's own logits array, softened in
    place.
    """
    if out is None:
        out = Gradients.zeros(params)
    elif out.layout != params.layout:
        raise ShapeError(f"gradient buffer shapes {out.layout} != parameter shapes "
                         f"{params.layout}")
    acts: list[np.ndarray] = []
    z = _checked_logits(_logits(params, _checked_batch(params, batch), acts))
    if temperature is not None:
        _softened(z, temperature, out=z)
    q = _normalized(z)
    _check_targets(targets, q, "targets shape {targets} != probabilities shape {pred}")
    dlogits = q - targets
    if scale is not None:
        dlogits *= _slicewise("scale", scale, dlogits)
    dlogits /= q.shape[-2]
    return q, _backprop(params, acts, dlogits, out)


def sgd_step(
    params: ModelParams,
    grads: Gradients,
    velocity: Gradients,
    lr: float,
    momentum: float,
    weight_decay: float,
    scratch: np.ndarray | None = None,
) -> None:
    """One SGD step with momentum, in place: v <- momentum*v + (grad + wd*param),
    then param <- param - lr*v, updating `params` and the momentum buffers
    `velocity` (a Gradients of zeros before the first step).

    Six operations on the `flat` buffers, whatever the layer count, run
    chunk by chunk: each range of SGD_CHUNK floats goes through all six
    while its slices of the four arrays stay in cache (a model of at most
    SGD_CHUNK floats is one chunk). The update is elementwise, so the
    chunks give the bits of six whole-buffer passes, and a stack updates
    every slice at once. `scratch`, a float64 array of the parameters'
    size, holds the intermediate terms, so that a training loop allocates
    nothing per step.
    """
    if grads.layout != params.layout:
        raise ShapeError(f"gradient shapes {grads.layout} != parameter shapes {params.layout}")
    W, v, g = params.flat, velocity.flat, grads.flat
    for start in range(0, W.size, SGD_CHUNK):
        end = start + SGD_CHUNK
        w, u = W[start:end], v[start:end]
        # momentum*v + (g + wd*W), operation for operation: the same bits
        t = np.multiply(w, weight_decay, out=None if scratch is None else scratch[:w.size])
        t += g[start:end]
        u *= momentum
        u += t
        w -= np.multiply(u, lr, out=t)


def checkpoint_dict(params: ModelParams) -> dict:
    """The checkpoint document of `params`. It holds the weight and bias
    arrays themselves, which `serialize._compact_pieces` writes as nested
    lists block by block."""
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "activation": "relu",
        "layer_dims": params.layer_dims,
        "weights": list(params.weights),
        "biases": list(params.biases),
        "rng_seed": params.rng_seed,
    }


def _state_digest(params: ModelParams) -> bytes:
    """Digest of everything `checkpoint_dict` encodes that can vary: seed and
    each array's dtype, shape and raw bytes."""
    digest = hashlib.sha256(repr((params.rng_seed, len(params.weights))).encode())
    for array in (*params.weights, *params.biases):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.digest()


def _canonical(params: ModelParams, state: bytes) -> Iterator[bytes]:
    """The canonical encoding of `params` in blocks (`serialize._compact_pieces`),
    hashed as they are made; after the last, only its sha256 is kept, keyed
    by the parameter `state`."""
    digest = hashlib.sha256()
    for piece in _compact_pieces(checkpoint_dict(params)):
        digest.update(piece)
        yield piece
    params._encoding = (state, digest.hexdigest(), None)


def fingerprint(params: ModelParams) -> str:
    """sha256 of the checkpoint bytes `save_checkpoint` writes: the kept one
    while the state is unchanged (see `ModelParams`), else made anew."""
    state = _state_digest(params)
    if params._encoding is None or params._encoding[0] != state:
        for _ in _canonical(params, state):
            pass
    return params._encoding[1]


def save_checkpoint(params: ModelParams, path) -> str:
    """Write the checkpoint of `params` atomically; its sha256, kept on
    `params` (see `ModelParams`). An unchanged model loaded from a compact
    checkpoint writes that file's bytes, any other its canonical encoding
    (one compact `json.dumps` of `checkpoint_dict(params)`), streamed to the
    file and the hash together. A checkpoint holds one model: a stack is a
    ShapeError, and nothing is written."""
    if params.weights[0].ndim != 2:
        raise ShapeError(f"a checkpoint holds one model, not a stack of "
                         f"{params.weights[0].shape[0]}")
    state, kept = _state_digest(params), params._encoding
    as_read = kept is not None and kept[0] == state and kept[2] is not None
    _write_atomic(path, [kept[2]] if as_read else _canonical(params, state))
    return params._encoding[1]


def _checkpoint_arrays(doc: dict, key: str, path) -> list[np.ndarray]:
    if not isinstance(doc.get(key), list):
        raise FormatError(f"{path}: checkpoint field {key!r} must be a list of arrays")
    try:
        return [np.asarray(a, dtype=np.float64) for a in doc[key]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: checkpoint field {key!r} must hold rectangular "
                          f"arrays of numbers: {exc}") from exc


_CHECKPOINT_KEYS = ["activation", "biases", "format_version", "layer_dims", "rng_seed", "weights"]


def _savable_as_read(text: str, keys: list[str], version) -> bool:
    """Whether a loaded checkpoint's text may be saved as read: compact (no
    whitespace but the final newline, the form `save_checkpoint` writes),
    with the schema's top-level `keys`, each once, an integer format
    version, and numbers, not booleans, in its arrays. Such a text holds
    nothing the model does not, and differs from the canonical encoding
    only in its key order and its spelling of numbers and strings."""
    return (text.find("\n") == len(text) - 1 and not any(c in text for c in " \t\r")
            and sorted(keys) == _CHECKPOINT_KEYS and type(version) is int
            and "true" not in text and "false" not in text)


def load_checkpoint(path) -> ModelParams:
    """The model of the checkpoint file at `path`, read once; a bad file is a
    FormatError naming it. A compact file of the schema's fields
    (`_savable_as_read`) is kept on the model with its sha256, so that
    `fingerprint` and every `save_checkpoint` of the unchanged model use its
    bytes as read, canonical or not; any other file (indented, say) is
    encoded anew, canonically, when fingerprinted or saved."""
    keys: list[str] = []

    def pairs(items):  # the top-level object is the last one parsed
        keys[:] = [key for key, _ in items]
        return dict(items)

    doc, text = read_json_text(path, "checkpoint", object_pairs_hook=pairs)
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint format version {version!r}")
    weights = _checkpoint_arrays(doc, "weights", path)
    biases = _checkpoint_arrays(doc, "biases", path)
    activation = read_field(doc, "activation", str, path, "checkpoint")
    if activation != "relu":
        raise FormatError(f"{path}: unsupported checkpoint activation {activation!r}")
    rng_seed = read_field(doc, "rng_seed", int, path, "checkpoint")
    declared = list(read_field(doc, "layer_dims", tuple[int, ...], path, "checkpoint"))
    del doc
    try:
        params = ModelParams(weights=weights, biases=biases, rng_seed=rng_seed)
    except GuidanceLearnError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if params.weights[0].ndim != 2:
        raise FormatError(f"{path}: checkpoint field 'weights' must hold 2-D matrices")
    if params.layer_dims != declared:
        raise FormatError(
            f"{path}: declared layer_dims {declared} != actual {params.layer_dims}"
        )
    if _savable_as_read(text, keys, version):
        data = text.encode("utf-8")  # the file's bytes, made after its document is freed
        params._encoding = (_state_digest(params), hashlib.sha256(data).hexdigest(), data)
    return params
