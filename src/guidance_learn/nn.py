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
[K, out] (`stack` and `tile` build one, `take` picks slices of one). A
stack maps a shared input batch [B, d], or per-slice inputs [K, B, d]
(slice k's own rows), to logits [K, B, C]; temperatures, gradient scales
and targets may be given per slice ([K], [K, B, C]), and batch losses come
back as [K] per-slice means. Slice k of every result is bit-identical to
running the k-th network on its own rows, because the stacked matmuls and
reductions perform the same floating-point operations in the same order.
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

    The canonical checkpoint encoding that `fingerprint` and
    `save_checkpoint` share is kept on the instance, keyed by a digest of
    the parameter state, so a model changed in place is encoded anew.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    rng_seed: int = 0
    # (state digest, sha256 hex, checkpoint bytes or None once saved)
    _encoding: tuple[bytes, str, bytes | None] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.activation != "relu":
            raise ParameterError(f"unsupported activation {self.activation!r}")
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
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise InputError(f"layer {k}: non-finite parameter entries")

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[-1]] + [W.shape[-2] for W in self.weights]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[-2]

    def copy(self) -> "ModelParams":
        return ModelParams(
            weights=[W.copy() for W in self.weights],
            biases=[b.copy() for b in self.biases],
            activation=self.activation,
            rng_seed=self.rng_seed,
        )


@dataclass
class Gradients:
    """Gradient arrays mirroring a ModelParams layout."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class OptState:
    """SGD momentum buffers."""

    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]

    @classmethod
    def zeros(cls, params: ModelParams) -> "OptState":
        return cls(
            velocity_w=[np.zeros_like(W) for W in params.weights],
            velocity_b=[np.zeros_like(b) for b in params.biases],
        )


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
        activation=models[0].activation,
        rng_seed=models[0].rng_seed,
    )


def take(params: ModelParams, slices) -> ModelParams:
    """The stack whose slice j is slice `slices[j]` of the stack `params`."""
    slices = np.asarray(slices)
    return ModelParams(
        weights=[W[slices] for W in params.weights],
        biases=[b[slices] for b in params.biases],
        activation=params.activation,
        rng_seed=params.rng_seed,
    )


def tile(params: ModelParams, k: int) -> ModelParams:
    """A stack of `k` copies of `params`: slice j of every array is `params`'."""
    return ModelParams(
        weights=[np.repeat(W[None], k, axis=0) for W in params.weights],
        biases=[np.repeat(b[None], k, axis=0) for b in params.biases],
        activation=params.activation,
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
    if not (_lowest(temperature) > 0):
        raise ParameterError(f"temperature must be > 0, got {temperature!r}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise InputError("logits contain non-finite entries")
    z = z / _per_slice(temperature)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _check_targets(targets: np.ndarray, pred: np.ndarray, message: str) -> None:
    """Targets match the predictions, or are one batch shared by every slice
    of stacked predictions [K, B, C]; `message` names the shapes as
    {targets} and {pred}."""
    if targets.shape != pred.shape and not (pred.ndim == 3 and targets.shape == pred.shape[1:]):
        raise ShapeError(message.format(targets=targets.shape, pred=pred.shape))


def _row_mean(per_sample: np.ndarray) -> np.ndarray:
    return per_sample.mean(axis=-1) if per_sample.ndim else per_sample


def _per_batch(value: np.ndarray) -> float | np.ndarray:
    """A float for one batch, or the [K] per-slice values of a stack."""
    return value if value.ndim else float(value)


def cross_entropy(pred: np.ndarray, target: np.ndarray) -> float | np.ndarray:
    """-sum_i target_i * log(pred_i); mean over rows for 2-D inputs, per
    slice ([K]) for stacked ones."""
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


def _backprop(params: ModelParams, pre, acts, dlogits: np.ndarray) -> Gradients:
    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.weights)
    delta = dlogits
    for k in range(len(params.weights) - 1, -1, -1):
        grads_w[k] = delta.swapaxes(-1, -2) @ acts[k]
        grads_b[k] = delta.sum(axis=-2)
        if k > 0:
            delta = delta @ params.weights[k]
            delta *= pre[k - 1] > 0.0
    return Gradients(weights=grads_w, biases=grads_b)


def backward(
    params: ModelParams,
    batch: np.ndarray,
    targets: np.ndarray,
    temperature=1.0,
    scale=1.0,
) -> tuple[np.ndarray, Gradients]:
    """Softened probabilities q = softmax_t(logits, T) [B, C] and the gradients
    of `scale * T` times the mean cross-entropy (equally, KL) of q against
    `targets` [B, C], from one forward pass.

    The gradient w.r.t. the logits is scale * (q - targets) / B: scale 1 at
    T = 1 trains plain cross-entropy, scale alpha * T the guidance branch's
    alpha * T^2 * KL. For a stack, q is [K, B, C], `batch` may be per slice
    ([K, B, d]), `temperature` and `scale` per slice ([K]) and `targets`
    [K, B, C] or shared [B, C].
    """
    pre, acts = _forward_cached(params, batch)
    q = softmax_t(acts[-1], temperature)
    t = np.asarray(targets, dtype=np.float64)
    _check_targets(t, q, "targets shape {targets} != probabilities shape {pred}")
    return q, _backprop(params, pre, acts, _per_slice(scale) * (q - t) / q.shape[-2])


def sgd_step(
    params: ModelParams,
    grads: Gradients,
    state: OptState,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> tuple[ModelParams, OptState]:
    """v <- momentum*v + (grad + wd*param); param <- param - lr*v (elementwise,
    so a stack updates every slice at once)."""
    if len(grads.weights) != len(params.weights):
        raise ShapeError("gradient layer count != parameter layer count")
    new_w, new_b, vel_w, vel_b = [], [], [], []
    for W, b, gW, gb, vW, vb in zip(
        params.weights, params.biases, grads.weights, grads.biases,
        state.velocity_w, state.velocity_b,
    ):
        if gW.shape != W.shape or gb.shape != b.shape:
            raise ShapeError(f"gradient shape {gW.shape} != parameter shape {W.shape}")
        vW = momentum * vW + (gW + weight_decay * W)
        vb = momentum * vb + (gb + weight_decay * b)
        vel_w.append(vW)
        vel_b.append(vb)
        new_w.append(W - lr * vW)
        new_b.append(b - lr * vb)
    return (
        ModelParams(weights=new_w, biases=new_b, activation=params.activation,
                    rng_seed=params.rng_seed),
        OptState(velocity_w=vel_w, velocity_b=vel_b),
    )


def checkpoint_dict(params: ModelParams) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "activation": params.activation,
        "layer_dims": params.layer_dims,
        "weights": [W.tolist() for W in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "rng_seed": params.rng_seed,
    }


def _state_digest(params: ModelParams) -> bytes:
    """Digest of everything `checkpoint_dict` encodes: activation, seed and
    each array's dtype, shape and raw bytes."""
    digest = hashlib.sha256(repr((params.activation, params.rng_seed,
                                  len(params.weights))).encode())
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
    rng_seed = read_field(doc, "rng_seed", int, path, "checkpoint")
    declared = list(read_field(doc, "layer_dims", tuple[int, ...], path, "checkpoint"))
    try:
        params = ModelParams(weights=weights, biases=biases,
                             activation=activation, rng_seed=rng_seed)
    except GuidanceLearnError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if params.weights[0].ndim != 2:
        raise FormatError(f"{path}: checkpoint field 'weights' must hold 2-D matrices")
    if params.layer_dims != declared:
        raise FormatError(
            f"{path}: declared layer_dims {declared} != actual {params.layer_dims}"
        )
    return params
