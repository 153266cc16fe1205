import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidance_learn import data, guidance, nn
from guidance_learn.errors import ConsistencyError, FormatError, InputError, ParameterError
from helpers import fuse, random_probs, read_cache


def _toy_dataset(n=6, d=3, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return data.Dataset(
        features=rng.normal(size=(n, d)),
        labels=rng.integers(0, classes, size=n),
        tags=np.full(n, data.NOISY_TRAIN),
        num_classes=classes,
    )


def test_zero_teacher_gives_uniform_soft_targets():
    teacher = nn.ModelParams(weights=[np.zeros((3, 3))], biases=[np.zeros(3)])
    dataset = _toy_dataset()
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, temperature=7.0)
    assert cache.targets.shape == (6, 3)
    assert np.abs(cache.targets - 1 / 3).max() < 1e-15


def test_soft_targets_match_composition_oracle():
    teacher = nn.ModelParams(weights=[np.array([[1.0, 0.0], [0.0, 2.0]])],
                             biases=[np.array([0.1, -0.2])])
    x = np.array([[0.5, -1.5]])
    dataset = data.Dataset(features=x, labels=np.array([0]),
                           tags=np.array([data.NOISY_TRAIN]), num_classes=2)
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, temperature=5.0)
    want = nn.softmax_t(nn.forward(teacher, x[0]), 5.0)
    assert cache.indices.tolist() == [0]
    assert np.abs(cache.targets[0] - want).max() == 0.0


def test_cache_covers_every_noisy_sample():
    dataset = _toy_dataset(n=1000, seed=3)
    teacher = nn.init_params([3, 4, 3], seed=1)
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, temperature=5.0)
    assert len(cache.indices) == 1000
    assert cache.indices.tolist() == list(range(1000))


def test_soft_targets_reject_bad_inputs():
    teacher = nn.init_params([3, 4, 3], seed=1)
    dataset = _toy_dataset()
    with pytest.raises(ParameterError):
        guidance.compute_teacher_soft_targets(teacher, dataset, temperature=0.0)
    empty = data.Dataset(features=np.zeros((2, 3)), labels=np.zeros(2, dtype=int),
                         tags=np.full(2, data.TEST), num_classes=2)
    with pytest.raises(InputError):
        guidance.compute_teacher_soft_targets(teacher, empty, temperature=5.0)


def test_cache_rebuild_is_bit_identical():
    dataset = _toy_dataset(n=50, seed=4)
    teacher = nn.init_params([3, 8, 3], seed=2)
    a = guidance.compute_teacher_soft_targets(teacher, dataset, temperature=5.0)
    b = guidance.compute_teacher_soft_targets(teacher, dataset, temperature=5.0)
    assert a.teacher_fingerprint == b.teacher_fingerprint
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()


def test_fuse_beta_zero_returns_soft_target_exactly():
    p = np.array([0.6, 0.4])
    y = np.array([0.0, 1.0])
    assert np.array_equal(fuse(p, y, 0.0), p)


def test_fuse_agreement_is_fixed_point():
    y = np.array([0.0, 1.0, 0.0])
    for beta in (0.0, 0.3, 1.0, 10.0):
        assert np.abs(fuse(y, y, beta) - y).max() < 1e-15


def test_fuse_frozen_value():
    got = fuse(np.array([0.6, 0.4]), np.array([0.0, 1.0]), 0.3)
    want = np.array([0.46153846153846156, 0.5384615384615384])
    assert np.abs(got - want).max() < 1e-12


def test_fuse_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        fuse(np.array([0.6, 0.4]), np.array([0.0, 1.0]), -0.1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuse_output_sums_to_one(data_):
    C = data_.draw(st.integers(2, 8))
    raw = np.array(data_.draw(st.lists(st.floats(1e-6, 1.0), min_size=C, max_size=C)))
    p = raw / raw.sum()
    label = data_.draw(st.integers(0, C - 1))
    beta = data_.draw(st.floats(0, 100))
    y = np.zeros(C)
    y[label] = 1.0
    g = fuse(p, y, beta)
    assert abs(g.sum() - 1.0) < 1e-9
    assert (g >= 0).all()


def test_fuse_monotonicity_in_beta():
    rng = np.random.default_rng(6)
    for _ in range(100):
        C = int(rng.integers(2, 6))
        p = random_probs(rng, C)
        label = int(rng.integers(0, C))
        y = np.zeros(C)
        y[label] = 1.0
        betas = np.sort(rng.uniform(0, 20, size=5))
        values = [fuse(p, y, b) for b in betas]
        labeled = [v[label] for v in values]
        assert all(b >= a - 1e-12 for a, b in zip(labeled, labeled[1:]))
        for c in range(C):
            if c == label:
                continue
            others = [v[c] for v in values]
            assert all(b <= a + 1e-12 for a, b in zip(others, others[1:]))


def test_fuse_large_beta_approaches_label():
    rng = np.random.default_rng(7)
    p = random_probs(rng, 5)
    y = np.zeros(5)
    y[2] = 1.0
    assert np.abs(fuse(p, y, 1e4) - y).max() < 1e-3


def test_total_loss_alpha_zero_is_clean_only():
    assert guidance.total_loss(0.7, 1.25, alpha=0.0, temperature=5.0) == 1.25


def test_total_loss_arithmetic():
    assert guidance.total_loss(0.2, 1.0, alpha=0.1, temperature=5.0) == pytest.approx(1.5, abs=1e-15)


def test_total_loss_is_linear_in_both_terms():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lg, lc, a, t = rng.uniform(0.01, 2, size=4)
        base = guidance.total_loss(lg, lc, a, t)
        assert guidance.total_loss(2 * lg, lc, a, t) - base == pytest.approx(
            a * t**2 * lg, rel=1e-12)
        assert guidance.total_loss(lg, 2 * lc, a, t) - base == pytest.approx(lc, rel=1e-12)


def test_total_loss_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        guidance.total_loss(0.1, 0.1, alpha=-0.1, temperature=5.0)
    with pytest.raises(ParameterError):
        guidance.total_loss(0.1, 0.1, alpha=0.1, temperature=0.0)


def test_default_hyperparameters():
    from guidance_learn.pipeline import TrainConfig

    config = TrainConfig()
    assert config.alpha == 0.1
    assert config.beta == 0.3
    assert config.temperature == 5.0
    assert config.momentum == 0.9
    assert config.weight_decay == 1e-3
    assert config.batch_size == 64


def _student_setup(seed=0, n=12, d=4, classes=3):
    rng = np.random.default_rng(seed)
    dataset = data.Dataset(
        features=rng.normal(size=(n, d)),
        labels=rng.integers(0, classes, size=n),
        tags=np.full(n, data.NOISY_TRAIN),
        num_classes=classes,
    )
    teacher = nn.init_params([d, 6, classes], seed=seed)
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, temperature=5.0)
    return dataset, teacher, cache


def _student_batch(student, dataset, cache, noisy_idx, clean_idx, *, alpha, beta, T):
    """((L_total, L_g, L_c), gradients) of `guidance.student_backward` on one
    paired batch, its targets built as the training loop builds them."""
    C = dataset.num_classes
    g = guidance.guidance_targets(cache, noisy_idx, dataset.labels[noisy_idx], beta, C)
    clean_targets = nn.one_hot(dataset.labels[clean_idx], C)
    q, p, grads = guidance.student_backward(
        student, dataset.features[noisy_idx], g, dataset.features[clean_idx], clean_targets,
        alpha=alpha, temperature=T,
    )
    loss_g, loss_c = nn.kl_div(g, q), nn.cross_entropy(p, clean_targets)
    return (guidance.total_loss(loss_g, loss_c, alpha, T), loss_g, loss_c), grads


def test_student_batch_loss_self_distillation_fixed_point():
    dataset, teacher, cache = _student_setup()
    idx = np.arange(4)
    (_, loss_g, _), _ = _student_batch(teacher, dataset, cache, idx, idx,
                                       alpha=0.1, beta=0.0, T=5.0)
    assert loss_g == 0.0


def test_student_batch_loss_alpha_zero_isolates_clean_branch():
    dataset, teacher, cache = _student_setup(seed=1)
    idx = np.arange(5)
    (total, _, clean), _ = _student_batch(teacher, dataset, cache, idx, idx + 5,
                                          alpha=0.0, beta=0.3, T=5.0)
    assert total == clean


def test_student_batch_loss_matches_composition_oracle():
    dataset, teacher, cache = _student_setup(seed=2)
    student = nn.init_params([4, 6, 3], seed=99)
    noisy_idx = np.arange(6)
    clean_idx = np.arange(6, 12)
    alpha, beta, T = 0.1, 0.3, 5.0
    (total, loss_g, loss_c), _ = _student_batch(student, dataset, cache, noisy_idx, clean_idx,
                                                alpha=alpha, beta=beta, T=T)
    # straight-line recomposition from the primitive operations
    kls, ces = [], []
    for i in noisy_idx:
        p = cache.targets[i]
        y = np.zeros(3)
        y[dataset.labels[i]] = 1.0
        g = (p + beta * y) / (1.0 + beta)
        q = nn.softmax_t(nn.forward(student, dataset.features[i]), T)
        kls.append(nn.kl_div(g, q))
    for i in clean_idx:
        y = np.zeros(3)
        y[dataset.labels[i]] = 1.0
        ces.append(nn.cross_entropy(nn.softmax_t(nn.forward(student, dataset.features[i]), 1.0), y))
    want_g, want_c = np.mean(kls), np.mean(ces)
    assert abs(loss_g - want_g) < 1e-12
    assert abs(loss_c - want_c) < 1e-12
    assert abs(total - (alpha * T**2 * want_g + want_c)) < 1e-12


def test_student_batch_loss_cache_miss_names_index():
    dataset, teacher, cache = _student_setup(seed=3)
    cache = replace(cache, indices=np.delete(cache.indices, 7),
                    targets=np.delete(cache.targets, 7, axis=0))
    idx = np.arange(4, 10)
    with pytest.raises(ConsistencyError, match="sample index 7"):
        _student_batch(teacher, dataset, cache, idx, np.arange(3), alpha=0.1, beta=0.3, T=5.0)


def test_guidance_cache_without_samples_is_an_input_error():
    """An empty cache is refused when it is built, so that no lookup in it
    fails with a raw numpy IndexError."""
    for shape in ((0,), (2, 0)):
        with pytest.raises(InputError, match="at least one noisy sample"):
            cache = guidance.GuidanceCache(indices=np.zeros(shape, dtype=np.int64),
                                           targets=np.zeros((*shape, 3)), temperature=5.0,
                                           teacher_fingerprint="0" * 64)
            guidance.guidance_targets(cache, np.array([0]), np.array([1]), 0.3, 3)


def test_student_batch_loss_temperature_mismatch():
    dataset, teacher, cache = _student_setup(seed=4)
    fingerprint, indices = nn.fingerprint(teacher), np.arange(12)
    guidance.check_cache(cache, fingerprint, indices, 5.0, 3)
    with pytest.raises(ConsistencyError, match="temperature"):
        guidance.check_cache(cache, fingerprint, indices, 4.0, 3)
    # soft targets over other classes, or of one slice for a stack of two
    for temperature, classes in ((5.0, 4), (np.array([5.0, 5.0]), 3)):
        with pytest.raises(ConsistencyError, match=r"cache targets shape \(12, 3\)"):
            guidance.check_cache(replace(cache, temperature=temperature), fingerprint,
                                 indices, temperature, classes)


def test_cache_roundtrip_and_validation(tmp_path):
    dataset, teacher, cache = _student_setup(seed=5)
    path = tmp_path / "guidance_cache.bin"
    guidance.save_cache(cache, path)
    loaded = read_cache(path)
    assert loaded.temperature == cache.temperature
    assert loaded.teacher_fingerprint == cache.teacher_fingerprint
    assert loaded.indices.tolist() == cache.indices.tolist()
    assert loaded.targets.tobytes() == cache.targets.tobytes()

    second = tmp_path / "again.bin"
    guidance.save_cache(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_student_batch_loss_alpha_zero_gradients_are_the_clean_branch():
    dataset, teacher, cache = _student_setup(seed=6)
    idx = np.arange(5)
    _, grads = _student_batch(teacher, dataset, cache, idx, idx + 5, alpha=0.0, beta=0.3, T=5.0)
    _, clean = nn.backward(teacher, dataset.features[idx + 5],
                           nn.one_hot(dataset.labels[idx + 5], 3))
    for got, want in zip(grads.weights + grads.biases, clean.weights + clean.biases):
        assert got.tobytes() == want.tobytes()


def test_cache_on_disk_order_is_independent_of_index_order(tmp_path):
    # keys are written as sorted strings ("10" < "2"); each still names the
    # row of its sample
    dataset, teacher, cache = _student_setup(seed=7)
    path = tmp_path / "guidance_cache.bin"
    guidance.save_cache(cache, path)
    assert list(json.loads(path.read_text(encoding="utf-8"))["targets"]) == sorted(
        map(str, cache.indices.tolist()))
    loaded = read_cache(path)
    idx = np.array([11, 2, 10])
    want = guidance.guidance_targets(cache, idx, dataset.labels[idx], 0.3, 3)
    got = guidance.guidance_targets(loaded, idx, dataset.labels[idx], 0.3, 3)
    assert got.tobytes() == want.tobytes()


_CHECKPOINT_OK = {"format_version": 1, "activation": "relu", "layer_dims": [1, 1],
                  "weights": [[[1.0]]], "biases": [[0.0]], "rng_seed": 0}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("loader, doc, field", [
    (nn.load_checkpoint, [_CHECKPOINT_OK], "JSON object"),
    (nn.load_checkpoint, _without(_CHECKPOINT_OK, "layer_dims"), "layer_dims"),
    (nn.load_checkpoint, {**_CHECKPOINT_OK, "weights": [[[[1.0]]]], "biases": [[[0.0]]]},
     "weights"),
    (nn.load_checkpoint, {**_CHECKPOINT_OK, "layer_dims": [2, 2],
                          "weights": [[[1.0, 0.0], [1.0]]], "biases": [[0.0, 0.0]]},
     "weights"),
    (nn.load_checkpoint, '{"format_version": 1,', "not valid JSON"),
    (nn.load_checkpoint, {**_CHECKPOINT_OK, "activation": "tanh"}, "activation"),
], ids=["checkpoint-list", "checkpoint-no-layer-dims", "checkpoint-stacked-weights",
        "checkpoint-ragged-rows", "checkpoint-invalid-json", "checkpoint-activation-tanh"])
def test_loaders_raise_format_error_naming_path_and_field(tmp_path, loader, doc, field):
    path = tmp_path / "artifact.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        loader(path)
    assert str(path) in str(exc.value)
    assert field in str(exc.value)


def test_student_batch_loss_stack_slices_equal_single_calls():
    """[K] alpha, beta and T on a stacked student and a cache built at the K
    temperatures give each slice the single call's losses and gradient
    bytes, the alpha = 0 slice included."""
    from helpers import stack

    dataset, teacher, _ = _student_setup(seed=8)
    X, y = dataset.features, dataset.labels
    alpha, beta, T = np.array([0.0, 0.1, 1.0]), np.array([0.3, 0.0, 1.0]), np.array([5.0, 1.0, 5.0])
    students = [nn.init_params([4, 6, 3], seed=s) for s in (1, 2, 3)]
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, T)
    assert cache.targets.shape == (3, 12, 3)
    noisy, clean = np.arange(5), np.arange(5, 10)
    losses, grads = _student_batch(stack(students), dataset, cache, noisy, clean,
                                   alpha=alpha, beta=beta, T=T)
    for k, student in enumerate(students):
        single = guidance.compute_teacher_soft_targets(teacher, dataset, T[k])
        assert cache.targets[k].tobytes() == single.targets.tobytes()
        want_losses, want = _student_batch(student, dataset, single, noisy, clean,
                                           alpha=alpha[k], beta=beta[k], T=T[k])
        assert [loss[k] for loss in losses] == list(want_losses)
        for got, w in zip(grads.weights + grads.biases, want.weights + want.biases):
            assert got[k].tobytes() == w.tobytes()
