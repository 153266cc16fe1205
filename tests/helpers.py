"""Shared test utilities: finite-difference gradients, oracles and small builders."""
from __future__ import annotations

import json

import numpy as np

from guidance_learn import data, guidance, nn, pipeline


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


def copy(params: nn.ModelParams) -> nn.ModelParams:
    """A copy of `params`, one model or a stack."""
    return nn.ModelParams(weights=params.weights, biases=params.biases, rng_seed=params.rng_seed)


def random_probs(rng: np.random.Generator, shape) -> np.ndarray:
    raw = rng.random(shape) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


def stack(models: list[nn.ModelParams]) -> nn.ModelParams:
    """One [K, ...] stack whose slice k is models[k]."""
    return nn.ModelParams(weights=[np.stack(ws) for ws in zip(*(m.weights for m in models))],
                          biases=[np.stack(bs) for bs in zip(*(m.biases for m in models))])


def train_student(teacher: nn.ModelParams, dataset, config, **options):
    """`pipeline.train_student` with the guidance cache built from `teacher`."""
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
    return pipeline.train_student(teacher, dataset, config, cache, **options)


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


def reference_student(teacher: nn.ModelParams, dataset, config, cache):
    """(student, [(L_total, L_g, L_c) per epoch]) of `pipeline.train_student`,
    recomputed one batch at a time: each step fuses its own guidance
    targets, one-hot labels its clean batch, sums the two branches' gradients
    layer by layer, steps, and computes its own losses; each epoch's losses
    are the mean of its steps'. `config` is one config or a list of them, a
    stack trained on `dataset` with a teacher per source as `train_student`
    takes it."""
    if isinstance(config, pipeline.TrainConfig):
        slices = data.Slices(dataset, config.seed)
        student = copy(teacher)
        alpha, beta, T = config.alpha, config.beta, config.temperature
    else:
        slices = data.Slices(dataset, [c.seed for c in config])
        student = nn.take(teacher, slices.source)
        alpha, beta, T = (np.array([getattr(c, name) for c in config])
                          for name in ("alpha", "beta", "temperature"))
        config = config[0]
    X, y, C = slices.features, slices.labels, slices.num_classes
    alpha_zero = np.asarray(alpha) == 0.0
    velocity = nn.Gradients.zeros(student)
    records = []
    for epoch in range(config.student_epochs):
        lr = pipeline.lr_at(config.student_lr_schedule, epoch)
        losses = []
        noisy_order, clean_order = slices.mixed_orders(config.batch_size, epoch)
        for start in range(0, noisy_order.shape[-1], config.batch_size):
            noisy, clean = (order[..., start:start + config.batch_size]
                            for order in (noisy_order, clean_order))
            g = guidance.guidance_targets(cache, noisy, slices.rows(y, noisy), beta, C)
            clean_targets = nn.one_hot(slices.rows(y, clean), C)
            q, grads = nn.backward(student, slices.rows(X, noisy), g, T, alpha * T)
            p, clean_grads = nn.backward(student, slices.rows(X, clean), clean_targets)
            for total, branch in zip(grads.weights + grads.biases,
                                     clean_grads.weights + clean_grads.biases):
                total += branch
                if alpha_zero.any():
                    total[alpha_zero] = branch[alpha_zero]
            nn.sgd_step(student, grads, velocity, lr, config.momentum, config.weight_decay)
            loss_g, loss_c = nn.kl_div(g, q), nn.cross_entropy(p, clean_targets)
            losses.append((guidance.total_loss(loss_g, loss_c, alpha, T), loss_g, loss_c))
        records.append(tuple(np.ascontiguousarray(np.transpose(column)).mean(axis=-1).tolist()
                             for column in zip(*losses)))
    return student, records


def params_bytes(params: nn.ModelParams) -> bytes:
    return b"".join([W.tobytes() for W in params.weights] +
                    [b.tobytes() for b in params.biases])


def same_bits(a: nn.ModelParams, b: nn.ModelParams) -> bool:
    """Equal parameters, signs of zeros included."""
    return all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
               for x, y in zip(a.weights + a.biases, b.weights + b.biases))
