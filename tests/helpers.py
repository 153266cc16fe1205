"""Shared test utilities: finite-difference gradients, oracles and small builders."""
from __future__ import annotations

import json

import numpy as np

from guidance_learn import guidance, nn, pipeline


def fd_gradients(params: nn.ModelParams, loss_fn, step: float = 1e-5) -> nn.Gradients:
    """Central finite differences of loss_fn over every weight and bias."""
    grads_w = [np.zeros_like(W) for W in params.weights]
    grads_b = [np.zeros_like(b) for b in params.biases]
    for arrays, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for arr, out in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + step
                plus = loss_fn(params)
                arr[i] = orig - step
                minus = loss_fn(params)
                arr[i] = orig
                out[i] = (plus - minus) / (2.0 * step)
    return nn.Gradients(weights=grads_w, biases=grads_b)


def max_rel_error(analytic: nn.Gradients, numeric: nn.Gradients, floor: float = 1e-3) -> float:
    """Worst relative disagreement; the floor keeps FD noise on near-zero
    entries from dominating."""
    worst = 0.0
    for a_list, n_list in ((analytic.weights, numeric.weights),
                           (analytic.biases, numeric.biases)):
        for a, n in zip(a_list, n_list):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def random_net(rng: np.random.Generator, max_dim: int = 8, max_classes: int = 5) -> nn.ModelParams:
    d = int(rng.integers(2, max_dim + 1))
    C = int(rng.integers(2, max_classes + 1))
    hidden = int(rng.integers(2, 7))
    return nn.init_params([d, hidden, C], seed=int(rng.integers(0, 2**31)))


def random_probs(rng: np.random.Generator, shape) -> np.ndarray:
    raw = rng.random(shape) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


def stack(models: list[nn.ModelParams]) -> nn.ModelParams:
    """One [K, ...] stack whose slice k is models[k]."""
    return nn.ModelParams(weights=[np.stack(ws) for ws in zip(*(m.weights for m in models))],
                          biases=[np.stack(bs) for bs in zip(*(m.biases for m in models))])


def train_student(teacher: nn.ModelParams, dataset, config):
    """`pipeline.train_student` with the guidance cache built from `teacher`."""
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
    return pipeline.train_student(teacher, dataset, config, cache)


def fuse(p, y, beta) -> np.ndarray:
    """g = (p + beta*y) / (1 + beta) for one soft target p and one-hot y,
    computed by the product path: `guidance.guidance_targets` on a one-row
    cache."""
    p = np.asarray(p, dtype=np.float64)
    label = int(np.argmax(y))
    assert np.array_equal(y, nn.one_hot([label], p.size)[0]), "y must be one-hot"
    cache = guidance.GuidanceCache(indices=np.array([0]), targets=p[None],
                                   temperature=1.0, teacher_fingerprint="")
    return guidance.guidance_targets(cache, np.array([0]), np.array([label]), beta, p.size)[0]


def read_cache(path) -> guidance.GuidanceCache:
    """The cache a `guidance.save_cache` file holds, rows in ascending
    sample-index order."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    indices = sorted(map(int, doc["targets"]))
    return guidance.GuidanceCache(
        indices=np.array(indices),
        targets=np.array([doc["targets"][str(i)] for i in indices]),
        temperature=doc["temperature"],
        teacher_fingerprint=doc["teacher_fingerprint"],
    )


def zero_velocity(params: nn.ModelParams) -> nn.Gradients:
    """SGD momentum buffers before the first `nn.sgd_step` on `params`."""
    return nn.Gradients(weights=[np.zeros_like(W) for W in params.weights],
                        biases=[np.zeros_like(b) for b in params.biases])


def params_bytes(params: nn.ModelParams) -> bytes:
    return b"".join([W.tobytes() for W in params.weights] +
                    [b.tobytes() for b in params.biases])
