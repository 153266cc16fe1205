"""Dense ReLU networks with the loss gradient and optimizer the training recipes need.

Everything operates on float64 numpy arrays. Networks are lists of
(weight, bias) pairs; hidden layers use ReLU, the last layer is linear
and produces logits. `backward` is the one training pass: from a single
forward pass it returns the temperature-softened probabilities (from which
callers compute their loss with `cross_entropy` or `kl_div`) and the
gradients of a scaled cross-entropy/KL against fixed targets. Losses come
in per-sample (1-D) and batch (2-D, mean over rows) variants.

Every array may carry a leading stack axis: a stack is K networks of one
shape held as a single model whose weights are [K, out, in] and biases
[K, out] (`stack` builds one, `take` picks slices of one). A
stack maps a shared input batch [B, d], or per-slice inputs [K, B, d]
(slice k's own rows), to logits [K, B, C]; temperatures, gradient scales
and targets may be given per slice ([K], [K, B, C]), and batch losses come
back as [K] per-slice means. Slice k of every result is bit-identical to
running the k-th network on its own rows, because the stacked matmuls and
reductions perform the same floating-point operations in the same order.

A model's weights and biases are views of one contiguous float64 buffer,
its `flat` array, and so are a `Gradients`' arrays, laid out alike. So a
training loop reuses one gradient buffer per stage (`backward(..., out=)`
writes into it) and `sgd_step` updates the parameters and the momentum
buffer with a few operations on whole buffers, however many layers there
are. The batch losses reduce every leading index on its own, so a loop
that trains a block of S steps can keep each step's probabilities and get
all S losses, [..., S], from one call on them stacked [..., S, B, C],
each with the bits of a call on its own batch.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, GuidanceLearnError, InputError, ParameterError, ShapeError
from .serialize import _write_atomic, canonical_json, read_field, read_json_object

PROB_CLAMP = 1e-12
CHECKPOINT_FORMAT_VERSION = 1

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
    views of it (see `Gradients`). The canonical checkpoint encoding that
    `fingerprint` and `save_checkpoint` share is kept on the instance, keyed
    by a digest of the parameter state, so a model changed in place is
    encoded anew.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    rng_seed: int = 0
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)
    # (state digest, sha256 hex, checkpoint bytes or None once saved)
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

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[-1]] + [W.shape[-2] for W in self.weights]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[-2]

    def copy(self) -> "ModelParams":
        return ModelParams(weights=self.weights, biases=self.biases, rng_seed=self.rng_seed)


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
    """The stack whose slice j is slice `slices[j]` of the stack `params`."""
    slices = np.asarray(slices)
    return ModelParams(
        weights=[W[slices] for W in params.weights],
        biases=[b[slices] for b in params.biases],
        rng_seed=params.rng_seed,
    )


def _is_number(value) -> bool:
    """One value rather than [K] per-slice values."""
    return isinstance(value, (int, float, np.floating))


def _per_slice(value):
    """A number as it is, or per-slice values [K] shaped [K, 1, 1] so they
    broadcast against a stack's [K, B, C] arrays."""
    if _is_number(value):
        return value
    value = np.asarray(value, dtype=np.float64)
    return value[:, None, None] if value.ndim else value


def _lowest(value) -> float:
    """A number, or the lowest of [K] per-slice values, for range checks; NaN
    (which fails every comparison) when `value` is neither."""
    if _is_number(value):
        return value
    value = np.asarray(value)
    if value.dtype.kind not in "iuf" or value.ndim > 1 or value.size == 0:
        return np.nan
    return value.min()


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[None, :] if x.ndim == 1 else x


def _checked_batch(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    X = _as_batch(batch)
    if X.ndim == 3 and X.shape[:1] != params.weights[0].shape[:-2]:
        raise ShapeError(f"per-slice batch {X.shape} needs a stack of {X.shape[0]} models, "
                         f"got weights {params.weights[0].shape}")
    if X.ndim not in (2, 3):
        raise ShapeError(f"batch must be 1-D, 2-D or per-slice 3-D, got ndim={X.ndim}")
    if X.shape[-1] != params.weights[0].shape[-1]:
        raise ShapeError(
            f"layer 0 expects input dim {params.weights[0].shape[-1]}, "
            f"batch has {X.shape[-1]} columns"
        )
    return X


def _forward_cached(params: ModelParams, batch: np.ndarray):
    """Forward pass keeping pre-activations and activations for backprop."""
    X = _checked_batch(params, batch)
    pre, acts = [], [X]
    a = X
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W.swapaxes(-1, -2)
        z += b[..., None, :]
        pre.append(z)
        a = np.maximum(z, 0.0) if k < last else z
        acts.append(a)
    return pre, acts


def forward(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Logits [B, C] for a batch [B, d] (a single 1-D sample gives [C]); a
    stack gives [K, B, C] ([K, C]) for a shared batch or per-slice [K, B, d]."""
    squeeze = np.asarray(batch).ndim == 1
    X = _checked_batch(params, batch)
    if X.ndim == 3:
        # one slice at a time: a forward over per-slice splits then holds one
        # model's layer outputs, not the whole stack's
        return np.stack([_logits([W[k] for W in params.weights],
                                 [b[k] for b in params.biases], x) for k, x in enumerate(X)])
    logits = _logits(params.weights, params.biases, X)
    return logits[..., 0, :] if squeeze else logits


def _logits(weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    # Unlike the training pass, keep only the current layer (ReLU in place):
    # a forward over a whole split then holds two layers' outputs, not all.
    a = X
    last = len(weights) - 1
    for k, (W, b) in enumerate(zip(weights, biases)):
        a = a @ W.swapaxes(-1, -2)
        a += b[..., None, :]
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a


def softmax_t(logits: np.ndarray, temperature=1.0) -> np.ndarray:
    """Temperature softmax exp(z_i/T) / sum_j exp(z_j/T), max-subtracted.

    Per-slice temperatures [K] give [K, B, C] from stacked logits [K, B, C]
    or from logits [B, C] shared by every slice.
    """
    z = _checked_logits(np.asarray(logits, dtype=np.float64), temperature)
    return _normalized(z / _per_slice(temperature))


def _checked_logits(z: np.ndarray, temperature) -> np.ndarray:
    if not (_lowest(temperature) > 0):
        raise ParameterError(f"temperature must be > 0, got {temperature!r}")
    if not np.isfinite(z).all():
        raise InputError("logits contain non-finite entries")
    return z


def _normalized(z: np.ndarray) -> np.ndarray:
    """exp(z - max z) / sum exp(z - max z) along the last axis, in place."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _is_one(value) -> bool:
    """The number 1, by which dividing or multiplying changes no bit."""
    return _is_number(value) and value == 1.0


def _check_targets(targets: np.ndarray, pred: np.ndarray, message: str) -> None:
    """Targets match the predictions, or are shared by every slice of
    stacked predictions [K, B, C] (or [K, S, B, C], S batches of a block);
    `message` names the shapes as {targets} and {pred}."""
    if targets.shape != pred.shape and not (pred.ndim >= 3 and targets.shape == pred.shape[1:]):
        raise ShapeError(message.format(targets=targets.shape, pred=pred.shape))


def _row_mean(per_sample: np.ndarray) -> np.ndarray:
    return per_sample.mean(axis=-1) if per_sample.ndim else per_sample


def _per_batch(value: np.ndarray) -> float | np.ndarray:
    """A float for one batch, or the [K] per-slice values of a stack."""
    return value if value.ndim else float(value)


def cross_entropy(pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """-sum_i target_i * log(pred_i); mean over rows for 2-D inputs, per
    slice ([K]) for stacked ones. Every leading index is reduced on its own:
    the means of S batches stacked [..., S, B, C] have the bits of S calls."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    _check_targets(t, p, "pred shape {pred} != target shape {targets}")
    return _per_batch(_row_mean(-(t * np.log(np.maximum(p, PROB_CLAMP))).sum(axis=-1)))


def kl_div(target: np.ndarray, pred: np.ndarray) -> float | np.ndarray:
    """sum_i target_i * log(target_i / pred_i); mean over rows for 2-D, per
    slice ([K]) for stacked inputs.

    Zero target entries contribute zero; pred is clamped inside the log.
    """
    g = np.asarray(target, dtype=np.float64)
    q = np.asarray(pred, dtype=np.float64)
    _check_targets(g, q, "target shape {targets} != pred shape {pred}")
    ratio = np.where(g > 0.0, g, 1.0) / np.maximum(q, PROB_CLAMP)
    per_sample = np.where(g > 0.0, g * np.log(ratio), 0.0).sum(axis=-1)
    return _per_batch(np.maximum(_row_mean(per_sample), 0.0))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[..., C] rows of 0.0 with 1.0 at each label, for labels of any shape."""
    return np.take(np.eye(num_classes), np.asarray(labels), axis=0)


def _backprop(params: ModelParams, pre, acts, delta: np.ndarray, out: Gradients) -> Gradients:
    for k in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), acts[k], out=out.weights[k])
        np.add.reduce(delta, axis=-2, out=out.biases[k])
        if k > 0:
            delta = delta @ params.weights[k]
            delta *= pre[k - 1] > 0.0
    return out


def backward(
    params: ModelParams,
    batch: np.ndarray,
    targets: np.ndarray,
    temperature=1.0,
    scale=1.0,
    out: Gradients | None = None,
) -> tuple[np.ndarray, Gradients]:
    """Softened probabilities q = softmax_t(logits, T) [B, C] and the gradients
    of `scale * T` times the mean cross-entropy (equally, KL) of q against
    `targets` [B, C], from one forward pass.

    The gradient w.r.t. the logits is scale * (q - targets) / B: scale 1 at
    T = 1 trains plain cross-entropy, scale alpha * T the guidance branch's
    alpha * T^2 * KL. For a stack, q is [K, B, C], `batch` may be per slice
    ([K, B, d]), `temperature` and `scale` per slice ([K]) and `targets`
    [K, B, C] or shared [B, C]. The gradients are written into `out`, a
    Gradients in the layout of `params` that a training loop reuses, or
    into new zeros; q is the forward pass's own logits array, softened in
    place.
    """
    if out is None:
        out = Gradients.zeros(params)
    elif out.layout != params.layout:
        raise ShapeError(f"gradient buffer shapes {out.layout} != parameter shapes "
                         f"{params.layout}")
    pre, acts = _forward_cached(params, batch)
    z = _checked_logits(acts[-1], temperature)
    for name, value in (("temperature", temperature), ("scale", scale)):
        if not _is_number(value) and np.shape(value) not in ((), z.shape[:-2]):
            raise ShapeError(f"per-slice {name} {np.shape(value)} needs a stack of as many "
                             f"models, got logits {z.shape}")
    if not _is_one(temperature):
        z /= _per_slice(temperature)
    q = _normalized(z)
    t = np.asarray(targets, dtype=np.float64)
    _check_targets(t, q, "targets shape {targets} != probabilities shape {pred}")
    dlogits = q - t
    if not _is_one(scale):
        dlogits *= _per_slice(scale)
    dlogits /= q.shape[-2]
    return q, _backprop(params, pre, acts, dlogits, out)


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

    Six operations on the whole `flat` buffers, whatever the layer count;
    `scratch`, a float64 array of the parameters' size, holds the
    intermediate terms, so that a training loop allocates nothing per step.
    Elementwise, so a stack updates every slice at once.
    """
    if grads.layout != params.layout:
        raise ShapeError(f"gradient shapes {grads.layout} != parameter shapes {params.layout}")
    W, v = params.flat, velocity.flat
    # momentum*v + (g + wd*W), operation for operation: the same bits
    t = np.multiply(W, weight_decay, out=scratch)
    t += grads.flat
    v *= momentum
    v += t
    W -= np.multiply(v, lr, out=t)


def checkpoint_dict(params: ModelParams) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "activation": "relu",
        "layer_dims": params.layer_dims,
        "weights": [W.tolist() for W in params.weights],
        "biases": [b.tolist() for b in params.biases],
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


def _encoded(params: ModelParams, need_bytes: bool) -> tuple[bytes, str, bytes | None]:
    """(state digest, sha256 hex, bytes) of `params`' canonical checkpoint,
    encoded only when the state changed since the last encoding or the bytes
    are needed but were dropped by a save."""
    state = _state_digest(params)
    cached = params._encoding
    if cached is None or cached[0] != state or (need_bytes and cached[2] is None):
        data = canonical_json(checkpoint_dict(params)).encode("utf-8")
        cached = params._encoding = (state, hashlib.sha256(data).hexdigest(), data)
    return cached


def fingerprint(params: ModelParams) -> str:
    """sha256 of the canonical checkpoint serialization."""
    return _encoded(params, need_bytes=False)[1]


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the canonical checkpoint atomically; afterwards only its sha256
    stays on `params`, not the bytes."""
    state, sha, data = _encoded(params, need_bytes=True)
    _write_atomic(path, data)
    params._encoding = (state, sha, None)


def _checkpoint_arrays(doc: dict, key: str, path) -> list[np.ndarray]:
    if not isinstance(doc.get(key), list):
        raise FormatError(f"{path}: checkpoint field {key!r} must be a list of arrays")
    try:
        return [np.asarray(a, dtype=np.float64) for a in doc[key]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: checkpoint field {key!r} must hold rectangular "
                          f"arrays of numbers: {exc}") from exc


def load_checkpoint(path) -> ModelParams:
    doc = read_json_object(path, "checkpoint")
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
    return params
