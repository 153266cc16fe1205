"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The desk-scale experiment setup (criteria 6-8) is Gaussian blobs with 10
classes, 20 dimensions, 500 samples per class and sigma 0.1, chosen so the
noise-free teacher clears 95% test accuracy while 40% symmetric noise still
separates the training variants.
"""
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from guidance_learn import data, evaluation, guidance, nn, pipeline
from guidance_learn.serialize import canonical_json
from helpers import (copy, fd_gradients, fuse, max_rel_error, params_bytes, random_probs,
                     read_cache, train_student)

DESK_RECIPE = data.DataRecipe(
    classes=10, per_class=500, dim=20, sigma=0.1,
    clean_fraction=0.05, test_fraction=0.2,
    noise_model="symmetric", noise_rate=0.4,
)
DESK_SEEDS = (1, 2, 3)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_gradient_correctness():
    with criterion(1, "analytic gradients match finite differences (<1e-4 rel)"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            C = int(rng.integers(2, 6))
            B = int(rng.integers(1, 5))
            hidden = int(rng.integers(2, 7))
            params = nn.init_params([d, hidden, C], seed=int(rng.integers(0, 2**31)))
            batch = rng.normal(size=(B, d))
            targets = random_probs(rng, (B, C))

            # (gradient function, loss function) pairs; scale 1/T makes
            # backward's gradient that of the mean KL at temperature T
            cases = [(lambda p: nn.backward(p, batch, targets)[1],
                      lambda p: nn.cross_entropy(
                          nn.softmax_t(nn.forward(p, batch), 1.0), targets))]
            for T in (1.0, 5.0, 20.0):
                cases.append((lambda p, T=T: nn.backward(p, batch, targets, T, 1.0 / T)[1],
                              lambda p, T=T: nn.kl_div(
                                  targets, nn.softmax_t(nn.forward(p, batch), T))))
            # the combined alpha > 0 loss, through the student's own step:
            # the cached soft targets are `targets`, fused with noisy labels
            clean_batch = rng.normal(size=(B, d))
            noisy_labels, clean_labels = rng.integers(0, C, size=(2, B))
            alpha, beta, T_total = 0.1, 0.3, 5.0
            cache = guidance.GuidanceCache(indices=np.arange(B), targets=targets,
                                           temperature=T_total, teacher_fingerprint="")

            fused = guidance.guidance_targets(cache, np.arange(B), noisy_labels, beta, C)
            clean_targets = nn.one_hot(clean_labels, C)

            def student_step(p):
                return guidance.student_backward(p, batch, fused, clean_batch, clean_targets,
                                                 alpha=alpha, temperature=T_total)

            def student_loss(p):
                q, p_clean, _ = student_step(p)
                return guidance.total_loss(nn.kl_div(fused, q),
                                           nn.cross_entropy(p_clean, clean_targets),
                                           alpha, T_total)

            cases.append((lambda p: student_step(p)[2], student_loss))
            for grad_fn, loss_fn in cases:
                worst = max(worst, max_rel_error(grad_fn(params),
                                                 fd_gradients(params, loss_fn)))
        elapsed = time.perf_counter() - started
        assert worst < 1e-4, f"worst relative error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_formula_oracles():
    with criterion(2, "softmax/CE/KL/fusion/total match straight-line oracles (1e-12)"):
        started = time.perf_counter()
        rng = np.random.default_rng(102)
        for _ in range(1000):
            C = int(rng.integers(2, 9))
            z = rng.uniform(-10, 10, size=C)
            T = float(rng.uniform(0.5, 20))
            exps = [math.exp(v / T) for v in z]
            total = sum(exps)
            want = np.array([e / total for e in exps])
            assert np.abs(nn.softmax_t(z, T) - want).max() < 1e-12

            p = random_probs(rng, C)
            q = random_probs(rng, C)
            ce_want = -sum(float(qi) * math.log(max(float(pi), 1e-12))
                           for pi, qi in zip(p, q))
            assert abs(nn.cross_entropy(p, q) - ce_want) < 1e-12

            kl_want = sum(float(pi) * math.log(float(pi) / max(float(qi), 1e-12))
                          for pi, qi in zip(p, q) if pi > 0)
            assert abs(nn.kl_div(p, q) - kl_want) < 1e-12

            label = int(rng.integers(0, C))
            y = np.zeros(C)
            y[label] = 1.0
            beta = float(rng.uniform(0, 5))
            fuse_want = np.array([(float(pi) + beta * float(yi)) / (1.0 + beta)
                                  for pi, yi in zip(p, y)])
            assert np.abs(fuse(p, y, beta) - fuse_want).max() < 1e-12

            lg, lc = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
            alpha = float(rng.uniform(0, 1))
            total_want = alpha * (T * T) * lg + lc
            assert abs(guidance.total_loss(lg, lc, alpha, T) - total_want) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_guidance_algebra():
    with criterion(3, "guidance fusion algebra (sum, limits, monotonicity)"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            C = int(rng.integers(2, 9))
            p = random_probs(rng, C)
            label = int(rng.integers(0, C))
            y = np.zeros(C)
            y[label] = 1.0
            beta = float(rng.uniform(0, 50))
            g = fuse(p, y, beta)
            assert abs(g.sum() - 1.0) < 1e-9

            assert np.array_equal(fuse(p, y, 0.0), p)
            for b in (0.0, 0.3, 1.0, 10.0):
                assert np.abs(fuse(y, y, b) - y).max() < 1e-12

            betas = np.sort(rng.uniform(0, 20, size=4))
            labeled = [fuse(p, y, b)[label] for b in betas]
            assert all(later >= earlier - 1e-12
                       for earlier, later in zip(labeled, labeled[1:]))


def test_criterion_4_temperature_properties():
    with criterion(4, "argmax preservation, uniform limit, T^2 gradient stability"):
        rng = np.random.default_rng(104)
        logit_batch = []
        for _ in range(1000):
            C = int(rng.integers(2, 9))
            z = rng.uniform(-10, 10, size=C)
            for T in (0.5, 1.0, 5.0, 100.0):
                assert np.argmax(nn.softmax_t(z, T)) == np.argmax(z)
            assert np.abs(nn.softmax_t(z, 1e6) - 1.0 / C).max() < 1e-5

        # gradient of T^2 * kl_div(softmax_t(z_t,T), softmax_t(z_s,T)) w.r.t.
        # z_s, for the batch-mean KL over 1000 logit vectors bounded by 5
        z_t = rng.uniform(-5, 5, size=(1000, 8))
        z_s = rng.uniform(-5, 5, size=(1000, 8))

        def compensated_grad_norm(T):
            g = nn.softmax_t(z_t, T)
            q = nn.softmax_t(z_s, T)
            return float(np.linalg.norm(T * (q - g) / z_s.shape[0]))

        diff = abs(compensated_grad_norm(100.0) - compensated_grad_norm(200.0))
        assert diff < 1e-3, f"norm difference {diff}"


def test_criterion_5_noise_injection_oracle():
    with criterion(5, "noise rate window, mask exactness, wrong-class uniformity"):
        started = time.perf_counter()
        dataset = data.make_blobs(10, 1000, 2, sigma=0.2, seed=105)
        corrupted, mask = data.inject_noise(
            dataset, data.NoiseSpec("symmetric", 0.4, seed=105))
        rate = mask.corrupted.mean()
        assert 0.39 <= rate <= 0.41, f"empirical rate {rate}"
        assert np.array_equal(mask.corrupted,
                              corrupted.labels != corrupted.true_labels)

        big = data.make_blobs(10, 25_000, 2, sigma=0.2, seed=106)
        big_noisy, big_mask = data.inject_noise(
            big, data.NoiseSpec("symmetric", 0.4, seed=106))
        flipped = np.where(big_mask.corrupted)[0]
        assert flipped.size >= 90_000
        offsets = (big_noisy.labels[flipped] - big_noisy.true_labels[flipped]) % 10
        counts = np.bincount(offsets, minlength=10)[1:]
        result = scipy.stats.chisquare(counts)
        assert result.pvalue >= 0.01, f"chi-square p={result.pvalue}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _desk_config(seed):
    return pipeline.TrainConfig(seed=seed)


@pytest.fixture(scope="module")
def desk_runs():
    """Criterion 6 experiment: all comparison variants on 3 seeds."""
    runs = {}
    for seed in DESK_SEEDS:
        dataset, _ = DESK_RECIPE.build(seed)
        config = _desk_config(seed)
        started = time.perf_counter()
        _, noisy_report = pipeline.run_baseline("noisy_only", dataset, config)
        teacher, teacher_report = pipeline.train_teacher(dataset, config)
        student, student_report = train_student(teacher, dataset, config)
        finetuned, finetuned_report = pipeline.finetune_clean(student, dataset, config)
        elapsed = time.perf_counter() - started
        clean_data, _ = replace(DESK_RECIPE, noise_rate=0.0, noise_model="none").build(seed)
        _, clean_teacher_report = pipeline.train_teacher(clean_data, config)
        runs[seed] = {
            "noisy_only": noisy_report.final_test_accuracy,
            "mixed": teacher_report.final_test_accuracy,
            "guidance": student_report.final_test_accuracy,
            "guidance_finetuned": finetuned_report.final_test_accuracy,
            "rho0_teacher": clean_teacher_report.final_test_accuracy,
            "elapsed": elapsed,
        }
    return runs


def test_criterion_6_table1_ordering(desk_runs):
    with criterion(6, "desk-scale ordering: guidance > mixed > noisy_only, "
                      "finetuned >= guidance"):
        med = {k: float(np.median([desk_runs[s][k] for s in DESK_SEEDS]))
               for k in ("noisy_only", "mixed", "guidance", "guidance_finetuned",
                         "rho0_teacher")}
        print(f"    medians: {med}")
        assert med["rho0_teacher"] > 0.95, f"rho=0 teacher {med['rho0_teacher']}"
        assert med["guidance"] > med["mixed"] > med["noisy_only"], med
        assert med["guidance_finetuned"] >= med["guidance"], med
        for seed in DESK_SEEDS:
            assert desk_runs[seed]["elapsed"] < 180.0, \
                f"seed {seed} took {desk_runs[seed]['elapsed']:.1f}s"


def test_criterion_7_branch_isolation():
    with criterion(7, "alpha=0 student run is bit-identical to clean-only training"):
        recipe = replace(DESK_RECIPE, per_class=60, clean_fraction=0.1)
        dataset, _ = recipe.build(7)
        config = pipeline.TrainConfig(
            seed=7, alpha=0.0, hidden_dims=(16,), batch_size=32,
            teacher_epochs=3, student_epochs=4,
            teacher_lr_schedule=((0, 1e-2),),
            student_lr_schedule=((0, 1e-3), (2, 1e-4)),
        )
        teacher, _ = pipeline.train_teacher(dataset, config)

        # independent clean-only loop from teacher init, same streams
        reference = copy(teacher)
        velocity = nn.Gradients.zeros(reference)
        X, y, C = dataset.features, dataset.labels, dataset.num_classes
        epoch_bytes = []
        for epoch in range(config.student_epochs):
            lr = pipeline.lr_at(config.student_lr_schedule, epoch)
            for _, clean_idx in data.mixed_batch_iterator(
                    dataset, config.batch_size, config.seed, epoch):
                _, grads = nn.backward(reference, X[clean_idx],
                                       nn.one_hot(y[clean_idx], C))
                nn.sgd_step(reference, grads, velocity, lr,
                            config.momentum, config.weight_decay)
            epoch_bytes.append(params_bytes(reference))

        # the alpha=0 student must match the reference after every epoch
        for upto in range(1, config.student_epochs + 1):
            partial = replace(config, student_epochs=upto)
            student, _ = train_student(teacher, dataset, partial)
            assert params_bytes(student) == epoch_bytes[upto - 1], \
                f"diverged by epoch {upto}"


@pytest.fixture(scope="module")
def clean_ratio_sweep():
    grid = evaluation.SweepGrid(
        axis="clean_fraction", values=(0.01, 0.05, 0.1, 0.2),
        base_config=_desk_config(0), seeds=DESK_SEEDS,
    )
    return evaluation.sweep(grid, DESK_RECIPE)


def test_criterion_8_clean_ratio_trend(clean_ratio_sweep):
    with criterion(8, "student accuracy nondecreasing in clean fraction and "
                      "above its teacher at every ratio"):
        medians_student, medians_teacher = [], []
        for value in (0.01, 0.05, 0.1, 0.2):
            cells = [r for r in clean_ratio_sweep.rows if r.value == value]
            assert len(cells) == len(DESK_SEEDS)
            medians_student.append(float(np.median([r.acc_student for r in cells])))
            medians_teacher.append(float(np.median([r.acc_teacher for r in cells])))
        print(f"    student medians: {medians_student}")
        print(f"    teacher medians: {medians_teacher}")
        assert all(later >= earlier for earlier, later
                   in zip(medians_student, medians_student[1:])), medians_student
        assert all(s > t for s, t in zip(medians_student, medians_teacher))


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "repeated runs produce byte-identical reports and checkpoints"):
        from guidance_learn import cli
        from guidance_learn.serialize import write_canonical_json

        doc = {
            "batch_size": 16, "hidden_dims": [8], "seed": 3,
            "teacher_epochs": 3, "student_epochs": 2, "finetune_epochs": 1,
            "teacher_lr_schedule": [[0, 0.01]], "student_lr_schedule": [[0, 0.001]],
            "data_classes": 3, "data_per_class": 40, "data_dim": 4,
            "data_sigma": 0.15, "data_clean_fraction": 0.1,
            "data_test_fraction": 0.2, "noise_model": "symmetric",
            "noise_rate": 0.3,
        }
        config_path = tmp_path / "c.json"
        write_canonical_json(config_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train-student", "--config", str(config_path),
                         "--out", str(a)]) == 0
        assert cli.main(["train-student", "--config", str(config_path),
                         "--out", str(b)]) == 0
        for name in ("report.json", "teacher.ckpt", "student.ckpt",
                     "guidance_cache.bin", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        for out in (s1, s2):
            assert cli.main(["sweep", "--config", str(config_path), "--out", str(out),
                             "--axis", "beta", "--values", "0.0,0.3",
                             "--seeds", "1"]) == 0
        assert (s1 / "results.json").read_bytes() == (s2 / "results.json").read_bytes()
        assert (s1 / "results.csv").read_bytes() == (s2 / "results.csv").read_bytes()


def test_criterion_10_format_roundtrips(tmp_path):
    with criterion(10, "checkpoint/CSV/guidance-cache round-trips"):
        params = nn.init_params([6, 10, 4], seed=10)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(params, first)
        nn.save_checkpoint(nn.load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

        dataset = data.make_blobs(3, 25, 5, sigma=0.3, seed=11)
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        data.save_csv(dataset, csv_a)
        loaded = data.load_csv(csv_a)
        assert np.array_equal(loaded.features, dataset.features)
        assert np.array_equal(loaded.labels, dataset.labels)
        data.save_csv(loaded, csv_b)
        assert csv_a.read_bytes() == csv_b.read_bytes()

        tagged = data.split(dataset, 0.2, 0.2, seed=11)
        teacher = nn.init_params([5, 8, 3], seed=12)
        cache = guidance.compute_teacher_soft_targets(teacher, tagged, 5.0)
        cache_path = tmp_path / "guidance_cache.bin"
        guidance.save_cache(cache, cache_path)
        reloaded = read_cache(cache_path)
        assert reloaded.indices.tolist() == cache.indices.tolist()
        assert reloaded.targets.tobytes() == cache.targets.tobytes()
        assert reloaded.temperature == 5.0
        assert reloaded.teacher_fingerprint == nn.fingerprint(teacher)
        from guidance_learn.errors import ConsistencyError

        other_teacher = nn.init_params([5, 8, 3], seed=13)
        with pytest.raises(ConsistencyError):
            pipeline.train_student(other_teacher, tagged, pipeline.TrainConfig(), cache)
