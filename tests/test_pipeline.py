import warnings
from dataclasses import replace

import numpy as np
import pytest

from guidance_learn import data, evaluation, guidance, nn, pipeline
from guidance_learn.errors import (
    ConfigurationError,
    ConsistencyError,
    DivergenceError,
    ParameterError,
    ShapeError,
)
from guidance_learn.serialize import canonical_json, to_document
from helpers import copy, params_bytes, reference_student, same_bits, train_student


def small_config(**overrides):
    base = dict(
        hidden_dims=(8,),
        batch_size=16,
        teacher_epochs=4,
        student_epochs=3,
        finetune_epochs=2,
        teacher_lr_schedule=((0, 1e-2), (3, 1e-3)),
        student_lr_schedule=((0, 1e-3), (2, 1e-4)),
        seed=0,
    )
    base.update(overrides)
    return pipeline.TrainConfig(**base)


def small_dataset(seed=0, rho=0.4, clean_fraction=0.1, classes=3, per_class=60):
    recipe = data.DataRecipe(
        classes=classes, per_class=per_class, dim=4, sigma=0.15,
        clean_fraction=clean_fraction, test_fraction=0.2,
        noise_model="symmetric" if rho > 0 else "none", noise_rate=rho,
    )
    return recipe.build(seed)[0]


def test_lr_schedule_is_piecewise_constant():
    schedule = ((0, 1e-3), (10, 1e-4), (15, 1e-5), (20, 1e-6))
    assert pipeline.lr_at(schedule, 0) == 1e-3
    assert pipeline.lr_at(schedule, 9) == 1e-3
    assert pipeline.lr_at(schedule, 10) == 1e-4
    assert pipeline.lr_at(schedule, 14) == 1e-4
    assert pipeline.lr_at(schedule, 19) == 1e-5
    assert pipeline.lr_at(schedule, 27) == 1e-6


def test_config_validation():
    with pytest.raises(ParameterError):
        pipeline.TrainConfig(alpha=-0.1)
    with pytest.raises(ParameterError):
        pipeline.TrainConfig(temperature=0.0)
    with pytest.raises(ParameterError):
        pipeline.TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        pipeline.TrainConfig(teacher_lr_schedule=((0, 1e-3), (0, 1e-4)))
    with pytest.raises(ParameterError):
        pipeline.TrainConfig(student_lr_schedule=((2, 1e-3),))


def test_config_dict_roundtrip():
    config = small_config(alpha=0.25, finetune_lr_schedule=((0, 1e-5),))
    assert pipeline.TrainConfig.from_dict(config.to_dict()) == config


def test_teacher_zero_epochs_returns_init_untouched():
    dataset = small_dataset()
    config = small_config(teacher_epochs=0)
    params, report = pipeline.train_teacher(dataset, config)
    init = nn.init_params([4, 8, 3], config.seed)
    assert params_bytes(params) == params_bytes(init)
    assert report.epochs == []


def test_teacher_fits_separable_blobs():
    recipe = data.DataRecipe(classes=3, per_class=60, dim=4, sigma=0.05,
                             clean_fraction=0.0, test_fraction=0.2)
    dataset, _ = recipe.build(1)
    config = small_config(teacher_epochs=30,
                          teacher_lr_schedule=((0, 1e-2), (20, 1e-3)), seed=1)
    params, _ = pipeline.train_teacher(dataset, config)
    train_idx = dataset.indices(data.NOISY_TRAIN)
    preds = np.argmax(nn.forward(params, dataset.features[train_idx]), axis=1)
    assert (preds == dataset.labels[train_idx]).mean() >= 0.99


def test_teacher_is_deterministic():
    dataset = small_dataset(seed=2)
    config = small_config(seed=2)
    _, a = pipeline.train_teacher(dataset, config)
    _, b = pipeline.train_teacher(dataset, config)
    assert canonical_json(to_document(a)) == canonical_json(to_document(b))


def test_student_requires_clean_subset():
    dataset = small_dataset(clean_fraction=0.0)
    config = small_config()
    teacher, _ = pipeline.train_teacher(dataset, config)
    with pytest.raises(ConfigurationError, match="baseline"):
        train_student(teacher, dataset, config)


def test_student_does_not_mutate_teacher():
    dataset = small_dataset(seed=3)
    config = small_config(seed=3)
    teacher, _ = pipeline.train_teacher(dataset, config)
    before = nn.fingerprint(teacher)
    train_student(teacher, dataset, config)
    assert nn.fingerprint(teacher) == before


def test_divergence_only_in_the_parameters_is_caught_at_the_epoch_end():
    # one batch whose step overflows the weights while its logits are finite
    dataset = data.split(data.make_blobs(3, 20, 4, 50.0, seed=0), 0.1, 0.2, seed=0)
    config = small_config(batch_size=1000, teacher_epochs=1,
                          teacher_lr_schedule=((0, 1e308),))
    with pytest.raises(DivergenceError, match=r"^teacher diverged at epoch 0, step 0 .*"
                                              r"non-finite parameter entries"):
        pipeline.train_teacher(dataset, config)


@pytest.mark.parametrize("stage", ["student-stack", "finetune"])
def test_training_leaves_the_given_model_unchanged(stage):
    # a single student: test_student_does_not_mutate_teacher
    dataset = small_dataset(seed=9)
    config = small_config(seed=9)
    teacher, _ = pipeline.train_teacher(dataset, config)
    before = params_bytes(teacher)
    if stage == "student-stack":
        configs = [replace(config, beta=beta) for beta in (0.0, 0.3)]
        cache = guidance.compute_teacher_soft_targets(teacher, dataset, [5.0, 5.0])
        pipeline.train_student(teacher, dataset, configs, cache)
    else:
        pipeline.finetune_clean(teacher, dataset, config)
    assert params_bytes(teacher) == before


def test_student_alpha_zero_matches_clean_only_training_bitwise():
    dataset = small_dataset(seed=4)
    config = small_config(seed=4, alpha=0.0)
    teacher, _ = pipeline.train_teacher(dataset, config)
    student, _ = train_student(teacher, dataset, config)

    # straight-line clean-only reference: same init, same clean batch
    # stream, cross-entropy only
    params = copy(teacher)
    velocity = nn.Gradients.zeros(params)
    X, y, C = dataset.features, dataset.labels, dataset.num_classes
    for epoch in range(config.student_epochs):
        lr = pipeline.lr_at(config.student_lr_schedule, epoch)
        for _, clean_idx in data.mixed_batch_iterator(dataset, config.batch_size,
                                                      config.seed, epoch):
            _, grads = nn.backward(params, X[clean_idx], nn.one_hot(y[clean_idx], C))
            nn.sgd_step(params, grads, velocity, lr, config.momentum, config.weight_decay)
    assert params_bytes(student) == params_bytes(params)


def test_student_self_distillation_keeps_guidance_loss_zero():
    dataset = small_dataset(seed=5)
    config = small_config(seed=5, beta=0.0,
                          student_lr_schedule=((0, 0.0),), weight_decay=0.0)
    teacher, _ = pipeline.train_teacher(dataset, config)
    _, report = train_student(teacher, dataset, config)
    assert all(r.loss_guidance == 0.0 for r in report.epochs)


def test_full_two_stage_run_is_reproducible():
    dataset = small_dataset(seed=6)
    config = small_config(seed=6)
    t1, tr1 = pipeline.train_teacher(dataset, config)
    s1, sr1 = train_student(t1, dataset, config)
    t2, tr2 = pipeline.train_teacher(dataset, config)
    s2, sr2 = train_student(t2, dataset, config)
    assert params_bytes(s1) == params_bytes(s2)
    assert canonical_json(to_document(sr1)) == canonical_json(to_document(sr2))


def test_student_stack_slices_and_reports_equal_single_runs():
    dataset = small_dataset(seed=8)
    configs = [small_config(seed=8, alpha=a, beta=b, temperature=t)
               for a, b, t in ((0.0, 0.3, 5.0), (0.1, 1.0, 2.0), (1.0, 0.0, 5.0))]
    teacher, _ = pipeline.train_teacher(dataset, configs[0])
    cache = guidance.compute_teacher_soft_targets(teacher, dataset,
                                                  [c.temperature for c in configs])
    students, report = pipeline.train_student(teacher, dataset, configs, cache)
    tuned, tuned_report = pipeline.finetune_clean(students, dataset, configs)
    assert report.checkpoint_fingerprints == {"teacher": nn.fingerprint(teacher)}
    assert tuned_report.checkpoint_fingerprints == {}
    for k, config in enumerate(configs):
        student, single = train_student(teacher, dataset, config)
        tuned_k, tuned_single = pipeline.finetune_clean(student, dataset, config)
        for got, want in ((students, student), (tuned, tuned_k)):
            assert all(g[k].tobytes() == w.tobytes() for g, w in
                       zip(got.weights + got.biases, want.weights + want.biases))
        for got, want in ((report, single), (tuned_report, tuned_single)):
            assert got.final_test_accuracy[k] == want.final_test_accuracy
            for g, w in zip(got.epochs, want.epochs):
                assert (g.loss_total[k], g.loss_guidance[k], g.loss_clean[k],
                        g.test_accuracy[k]) == (w.loss_total, w.loss_guidance,
                                                w.loss_clean, w.test_accuracy)


def test_given_models_must_match_the_stack_they_start():
    """A fine-tune stack takes one config per model, and soft targets one
    teacher per (dataset, seed) source; a single model is a stack of one."""
    dataset = small_dataset(seed=8)
    config = small_config(seed=8)
    models = nn.stack([nn.init_params([4, 16, 3], seed=s) for s in range(3)])
    single = nn.take(models, 0)
    for run, message in (
            (lambda: pipeline.finetune_clean(models, dataset, config), "3 models for 1 configs"),
            (lambda: pipeline.finetune_clean(models, dataset, [config] * 2),
             "3 models for 2 configs"),
            (lambda: pipeline.finetune_clean(single, dataset, [config] * 2),
             r"slices \[0, 1\] of a stack of 1 models"),
            (lambda: guidance.compute_teacher_soft_targets(
                models, data.Slices(dataset, [1, 2]), 5.0), "3 teachers for 2 sources"),
            (lambda: guidance.compute_teacher_soft_targets(
                single, data.Slices(dataset, [1, 2]), 5.0), r"slices \[0, 1\] of a stack of 1")):
        with pytest.raises(ShapeError, match=message):
            run()


def test_student_stack_configs_may_differ_only_in_stage2_values():
    dataset = small_dataset(seed=9)
    # per-slice seeds are allowed (with per-slice data); other fields are not
    configs = [small_config(seed=9), small_config(seed=10, weight_decay=0.0)]
    teacher, _ = pipeline.train_teacher(dataset, configs[0])
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, [5.0, 5.0])
    with pytest.raises(ConfigurationError, match="differ only"):
        pipeline.train_student(teacher, dataset, configs, cache)


def test_student_rejects_cache_at_another_temperature():
    dataset = small_dataset(seed=9)
    config = small_config(seed=9, temperature=5.0)
    teacher, _ = pipeline.train_teacher(dataset, config)
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, 2.0)
    with pytest.raises(ConsistencyError, match="temperature"):
        pipeline.train_student(teacher, dataset, config, cache)


def test_student_rejects_cache_of_another_teacher():
    dataset = small_dataset(seed=9)
    config = small_config(seed=9)
    teacher, _ = pipeline.train_teacher(dataset, config)
    other, _ = pipeline.train_teacher(dataset, small_config(seed=10))
    cache = guidance.compute_teacher_soft_targets(other, dataset, config.temperature)
    with pytest.raises(ConsistencyError, match="teacher") as exc:
        pipeline.train_student(teacher, dataset, config, cache)
    assert cache.teacher_fingerprint[:12] in str(exc.value)
    assert nn.fingerprint(teacher)[:12] in str(exc.value)


def test_finetune_zero_epochs_and_zero_lr():
    dataset = small_dataset(seed=7)
    config = small_config(seed=7)
    teacher, _ = pipeline.train_teacher(dataset, config)

    same, report = pipeline.finetune_clean(teacher, dataset,
                                           small_config(seed=7, finetune_epochs=0))
    assert params_bytes(same) == params_bytes(teacher)
    assert report.epochs == []

    frozen_cfg = small_config(seed=7, finetune_lr_schedule=((0, 0.0),), weight_decay=0.0)
    frozen, _ = pipeline.finetune_clean(teacher, dataset, frozen_cfg)
    from guidance_learn.evaluation import accuracy

    assert accuracy(frozen, dataset, "test") == accuracy(teacher, dataset, "test")


def test_finetune_default_schedule_divides_first_entry_by_ten():
    config = small_config()
    assert config.effective_finetune_schedule() == ((0, config.student_lr_schedule[0][1] / 10),)


def test_finetune_requires_clean_subset():
    dataset = small_dataset(clean_fraction=0.0, seed=8)
    config = small_config(seed=8)
    teacher, _ = pipeline.train_teacher(dataset, config)
    with pytest.raises(ConfigurationError):
        pipeline.finetune_clean(teacher, dataset, config)


def test_noisy_only_with_no_noise_equals_mixed_with_no_clean():
    dataset = small_dataset(seed=9, rho=0.0, clean_fraction=0.0)
    config = small_config(seed=9)
    _, a = pipeline.run_baseline("noisy_only", dataset, config)
    _, b = pipeline.run_baseline("mixed", dataset, config)
    ra, rb = to_document(a), to_document(b)
    ra.pop("variant"), rb.pop("variant")
    assert canonical_json(ra) == canonical_json(rb)


def test_unknown_baseline_variant():
    dataset = small_dataset(seed=10)
    with pytest.raises(ParameterError, match="variant"):
        pipeline.run_baseline("bogus", dataset, small_config(seed=10))


def test_baseline_requires_its_subset():
    dataset = small_dataset(seed=10, clean_fraction=0.0)
    with pytest.raises(ConfigurationError):
        pipeline.run_baseline("clean_only", dataset, small_config(seed=10))


def test_baseline_reports_share_config_snapshots():
    dataset = small_dataset(seed=11)
    config = small_config(seed=11)
    results = [pipeline.run_baseline(v, dataset, config) for v in pipeline.BASELINE_VARIANTS]
    reports = [report for _, report in results]
    assert [sorted(models) for models, _ in results] == [
        ["model"], ["model"], ["model"], ["student", "teacher"],
        ["finetuned", "student", "teacher"]]
    assert [r.variant for r in reports] == list(pipeline.BASELINE_VARIANTS)


def test_epoch_records_track_schedule_and_accuracies():
    dataset = small_dataset(seed=13)
    config = small_config(seed=13)
    _, report = pipeline.train_teacher(dataset, config)
    assert [r.epoch for r in report.epochs] == list(range(config.teacher_epochs))
    assert [r.lr for r in report.epochs] == [
        pipeline.lr_at(config.teacher_lr_schedule, e) for e in range(config.teacher_epochs)
    ]
    assert all(0.0 <= r.test_accuracy <= 1.0 for r in report.epochs)


def test_divergent_learning_rate_names_stage_epoch_step_and_lr():
    dataset = small_dataset()
    with pytest.raises(DivergenceError, match="teacher diverged at epoch 0, step ") as exc:
        pipeline.train_teacher(dataset, small_config(teacher_lr_schedule=((0, 1e100),)))
    assert (exc.value.stage, exc.value.epoch, exc.value.lr) == ("teacher", 0, 1e100)
    assert exc.value.step > 0  # the first step's forward pass sees the initial weights

    teacher, _ = pipeline.train_teacher(dataset, small_config())
    config = small_config(student_lr_schedule=((0, 1e-3), (1, 1e100)))
    with pytest.raises(DivergenceError, match="student diverged at epoch 1, step ") as exc:
        train_student(teacher, dataset, config)
    assert (exc.value.epoch, exc.value.lr) == (1, 1e100)


@pytest.mark.parametrize("layer_dims, message", [
    ([8, 5, 4], "model has 4 outputs, dataset has 6 classes"),
    ([5, 5, 6], "model input dim 5 != dataset feature dim 8"),
], ids=["classes", "input-dim"])
@pytest.mark.parametrize("run", [
    lambda model, dataset: evaluation.accuracy(model, dataset, "test"),
    lambda model, dataset: pipeline.finetune_clean(model, dataset, small_config()),
], ids=["accuracy", "finetune"])
def test_model_that_does_not_fit_the_data_is_a_shape_error_naming_both(run, layer_dims,
                                                                       message):
    dataset = data.split(data.make_blobs(6, 20, 8, 0.3, seed=0), 0.2, 0.2, seed=0)
    with pytest.raises(ShapeError, match=f"^{message}$"):
        run(nn.init_params(layer_dims, seed=0), dataset)


def _blocked_runs(monkeypatch, batches_per_block, train):
    """`train()` with blocks of 1 and 3 batches and of the default size."""
    runs = []
    for rows in batches_per_block + [pipeline.BLOCK_ROWS]:
        monkeypatch.setattr(pipeline, "BLOCK_ROWS", rows)
        runs.append(train())
    return runs


def _losses(report):
    return [repr((r.loss_total, r.loss_guidance, r.loss_clean)) for r in report.epochs]


@pytest.mark.parametrize("stacked", ["single", "one-config", "stack"])
def test_block_size_changes_no_bit(monkeypatch, stacked):
    """Blocks of one batch, of three and of the default size train the same
    teacher and student bits with the same epoch losses, and the student
    equals the per-step reference loop. The data has a short last noisy
    batch (126 noisy samples, batches of 16); the stack has per-slice seeds
    (so per-slice batches) and an alpha = 0 slice, and a one-config list
    trains a stack of one."""
    dataset = small_dataset(seed=14)
    assert data.Slices(dataset).indices(data.NOISY_TRAIN).size % 16 != 0
    config = small_config(seed=14)
    if stacked == "one-config":
        config = [config]
    if stacked == "stack":
        config = [replace(config, alpha=alpha, beta=beta, temperature=T, seed=seed)
                  for alpha, beta, T, seed in ((0.0, 0.3, 5.0, 14), (0.1, 0.0, 2.0, 15),
                                               (1.0, 1.0, 5.0, 16))]
    if stacked == "single":
        slices, temperature, source = 1, config.temperature, dataset
    else:
        slices, temperature = len(config), [c.temperature for c in config]
        source = data.Slices(dataset, [c.seed for c in config])
    rows = [16 * slices, 3 * 16 * slices]

    teachers = _blocked_runs(monkeypatch, rows, lambda: pipeline.train_teacher(dataset, config))
    teacher = teachers[0][0]
    for model, report in teachers:
        assert params_bytes(model) == params_bytes(teacher)
        assert _losses(report) == _losses(teachers[0][1])

    cache = guidance.compute_teacher_soft_targets(teacher, source, temperature)
    want, want_losses = reference_student(teacher, dataset, config, cache)
    for student, report in _blocked_runs(
            monkeypatch, rows, lambda: pipeline.train_student(teacher, dataset, config, cache)):
        assert params_bytes(student) == params_bytes(want)
        assert _losses(report) == [repr(losses) for losses in want_losses]


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("stage", ["teacher", "student", "finetune"])
def test_recording_off_trains_the_same_bits_and_final_accuracy(stage, stacked):
    """`record_epochs=False` gives the parameters (signs of zeros included)
    and the final test accuracy of a recording run, and a report with no
    epochs: for one model and for a 3-slice stack with per-slice seeds and
    an alpha = 0 slice, each slice starting from its own seed's teacher."""
    dataset = small_dataset(seed=17)
    config = small_config(seed=17)
    if stacked:
        config = [replace(config, alpha=alpha, beta=beta, temperature=T, seed=seed)
                  for alpha, beta, T, seed in ((0.0, 0.3, 5.0, 17), (0.1, 0.0, 2.0, 18),
                                               (1.0, 1.0, 5.0, 19))]
        source = data.Slices(dataset, [c.seed for c in config])
        temperature = [c.temperature for c in config]
    else:
        source, temperature = dataset, config.temperature
    teacher, _ = pipeline.train_teacher(dataset, config)
    cache = guidance.compute_teacher_soft_targets(teacher, source, temperature)
    run = {"teacher": lambda **kw: pipeline.train_teacher(dataset, config, **kw),
           "student": lambda **kw: pipeline.train_student(teacher, dataset, config, cache, **kw),
           "finetune": lambda **kw: pipeline.finetune_clean(teacher, dataset, config, **kw)}[stage]
    want, want_report = run()
    got, got_report = run(record_epochs=False)
    assert same_bits(got, want)
    assert got_report.final_test_accuracy == want_report.final_test_accuracy
    assert got_report.epochs == [] and want_report.epochs
    assert got_report.checkpoint_fingerprints == want_report.checkpoint_fingerprints


def test_one_config_list_trains_the_single_run_as_a_stack_of_one():
    """Each stage given [config] returns a stack of one whose slice 0 has
    the bits of the bare-config run, and a report whose per-slice values
    are that run's scalars."""
    dataset = small_dataset(seed=15)
    config = small_config(seed=15)
    teacher, teacher_report = pipeline.train_teacher(dataset, config)
    teachers, teachers_report = pipeline.train_teacher(dataset, [config])
    student, student_report = train_student(teacher, dataset, config)
    cache = guidance.compute_teacher_soft_targets(
        teachers, data.Slices(dataset, [config.seed]), [config.temperature])
    students, students_report = pipeline.train_student(teachers, dataset, [config], cache)
    tuned, tuned_report = pipeline.finetune_clean(student, dataset, config)
    tuneds, tuneds_report = pipeline.finetune_clean(students, dataset, [config])
    for single, report, stack, stack_report in (
            (teacher, teacher_report, teachers, teachers_report),
            (student, student_report, students, students_report),
            (tuned, tuned_report, tuneds, tuneds_report)):
        assert stack.weights[0].shape[0] == 1 and single.weights[0].ndim == 2
        assert params_bytes(nn.take(stack, 0)) == params_bytes(single)
        assert stack_report.final_test_accuracy == [report.final_test_accuracy]
        assert len(stack_report.epochs) == len(report.epochs) > 0
        for got, want in zip(stack_report.epochs, report.epochs):
            assert (got.loss_total, got.loss_guidance, got.loss_clean, got.test_accuracy) == (
                [want.loss_total], [want.loss_guidance], [want.loss_clean], [want.test_accuracy])


@pytest.mark.parametrize("listed", [False, True], ids=["config", "one-config-list"])
def test_the_slice_axis_follows_the_configs(monkeypatch, listed):
    """Every stage trains through `nn.backward` one model of rank-2 weights
    on [B, d] batches when given one config, and a stack of one, [1, ...]
    weights on [1, B, d] batches, when given the one-config list."""
    dataset = small_dataset(seed=16)
    config = small_config(seed=16)
    configs = [config] if listed else config
    calls = []
    backward = nn.backward

    def spy(params, batch, *args, **kwargs):
        calls.append((params.weights[0].shape, np.shape(batch)))
        return backward(params, batch, *args, **kwargs)

    monkeypatch.setattr(nn, "backward", spy)
    teacher, _ = pipeline.train_teacher(dataset, configs)
    source = data.Slices(dataset, [config.seed]) if listed else dataset
    cache = guidance.compute_teacher_soft_targets(
        teacher, source, [config.temperature] if listed else config.temperature)
    seen = {}
    for stage, run in (
            ("teacher", lambda: pipeline.train_teacher(dataset, configs)),
            ("student", lambda: pipeline.train_student(teacher, dataset, configs, cache)),
            ("finetune", lambda: pipeline.finetune_clean(teacher, dataset, configs))):
        calls.clear()
        run()
        seen[stage] = {(len(weights), weights[:-2], len(batch), batch[:-2])
                       for weights, batch in calls}
    want = {(3, (1,), 3, (1,))} if listed else {(2, (), 2, ())}
    assert seen == {"teacher": want, "student": want, "finetune": want}


@pytest.mark.parametrize("stage", ["teacher", "student", "finetune"])
def test_dataset_count_must_be_one_or_the_config_count(monkeypatch, stage):
    """A list of datasets of neither one nor as many as the configs is a
    ConfigurationError naming both counts, raised before any training."""
    datasets = [small_dataset(seed=s) for s in (18, 19, 20)]
    config = small_config(seed=18)
    teacher = nn.init_params([4, 8, 3], seed=18)
    cache = guidance.compute_teacher_soft_targets(teacher, datasets[0], config.temperature)
    run = {"teacher": lambda ds, cs: pipeline.train_teacher(ds, cs),
           "student": lambda ds, cs: pipeline.train_student(teacher, ds, cs, cache),
           "finetune": lambda ds, cs: pipeline.finetune_clean(teacher, ds, cs)}[stage]

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the dataset count")

    monkeypatch.setattr(nn, "backward", no_training)
    for count, configs in ((2, [config]), (3, [config, replace(config, seed=19)])):
        with pytest.raises(ConfigurationError,
                           match=f"{count} datasets for {len(configs)} configs"):
            run(datasets[:count], configs)


@pytest.mark.parametrize("batches_per_block", [None, 4], ids=["default", "4-batch-blocks"])
def test_divergence_inside_a_block_names_the_step(monkeypatch, batches_per_block):
    """Logits that turn non-finite at step 6 of 9 (teacher) and of 8
    (student), inside a block, name that step, and the block's losses are
    not computed: no numpy warning is raised on the way. A run that records
    no epochs names the same step."""
    if batches_per_block is not None:
        monkeypatch.setattr(pipeline, "BLOCK_ROWS", 16 * batches_per_block)
    dataset = small_dataset()
    teacher, _ = pipeline.train_teacher(dataset, small_config())
    config = small_config(student_lr_schedule=((0, 1e-3), (1, 1e30)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for record_epochs in (True, False):
            with pytest.raises(DivergenceError, match="logits") as exc:
                pipeline.train_teacher(dataset, small_config(teacher_lr_schedule=((0, 1e30),)),
                                       record_epochs=record_epochs)
            assert (exc.value.stage, exc.value.epoch, exc.value.step) == ("teacher", 0, 6)
            with pytest.raises(DivergenceError, match="logits") as exc:
                train_student(teacher, dataset, config, record_epochs=record_epochs)
            assert (exc.value.stage, exc.value.epoch, exc.value.step) == ("student", 1, 6)
