import tracemalloc

import numpy as np
import pytest

from guidance_learn import data, evaluation, guidance, nn, pipeline
from guidance_learn.errors import InputError, ParameterError
from guidance_learn.serialize import canonical_json
from helpers import copy, same_bits as _same_bits, train_student


def _tagged_blobs(classes=2, per_class=30, seed=0, test_fraction=0.5):
    dataset = data.make_blobs(classes, per_class, 3, sigma=0.1, seed=seed)
    return data.split(dataset, clean_fraction=0.0, test_fraction=test_fraction, seed=seed)


def _constant_class_model(dim, classes, winner=0):
    W = np.zeros((classes, dim))
    b = np.zeros(classes)
    b[winner] = 1.0
    return nn.ModelParams(weights=[W], biases=[b])


def test_accuracy_constant_model_on_balanced_classes():
    dataset = _tagged_blobs()
    model = _constant_class_model(3, 2)
    assert evaluation.accuracy(model, dataset, "test") == 0.5


def test_accuracy_perfect_nearest_centroid_model():
    dataset = _tagged_blobs(classes=4, per_class=25, seed=1)
    centers = np.stack([dataset.features[dataset.true_labels == c].mean(axis=0)
                        for c in range(4)])
    # logits x.W^T + b with W = 2*centers, b = -||c||^2 rank by -||x - c||^2
    model = nn.ModelParams(weights=[2.0 * centers],
                           biases=[-np.sum(centers**2, axis=1)])
    assert evaluation.accuracy(model, dataset, "test") == 1.0


def test_accuracy_matches_bruteforce_count():
    dataset = _tagged_blobs(classes=3, per_class=20, seed=2)
    model = nn.init_params([3, 5, 3], seed=3)
    idx = dataset.indices("test")
    correct = 0
    for i in idx:
        logits = nn.forward(model, dataset.features[i])
        best, best_class = -np.inf, 0
        for c, v in enumerate(logits):
            if v > best:
                best, best_class = v, c
        if best_class == dataset.true_labels[i]:
            correct += 1
    assert evaluation.accuracy(model, dataset, "test") == correct / len(idx)


def test_accuracy_empty_split_is_an_error():
    dataset = _tagged_blobs()
    model = _constant_class_model(3, 2)
    with pytest.raises(InputError):
        evaluation.accuracy(model, dataset, "clean_train")


def test_accuracy_invariant_to_prediction_temperature():
    rng = np.random.default_rng(4)
    dataset = _tagged_blobs(classes=3, per_class=20, seed=5)
    idx = dataset.indices("test")
    for trial in range(100):
        model = nn.init_params([3, 4, 3], seed=trial)
        logits = nn.forward(model, dataset.features[idx])
        p1 = np.argmax(nn.softmax_t(logits, 1.0), axis=1)
        p5 = np.argmax(nn.softmax_t(logits, 5.0), axis=1)
        assert np.array_equal(p1, p5)


def test_blocked_passes_change_no_bit(monkeypatch):
    """Whole-split passes run in even row blocks, and their accuracy and soft
    targets have the bits of one `nn.forward` over the gathered rows: for a
    single model, and for a 3-slice stack over two datasets (two teachers)
    with per-slice temperatures. 3,005 samples at width 256 are three blocks
    of at most 1,024 rows, one of them a row shorter."""
    width = 256
    datasets = [data.make_blobs(5, 601, 8, sigma=0.5, seed=seed) for seed in (0, 1)]
    teachers = nn.stack([nn.init_params([8, width, 5], seed=seed) for seed in (2, 3)])
    idx = datasets[0].indices(data.NOISY_TRAIN)
    blocks = -(-idx.size // (data.FORWARD_BLOCK_ENTRIES // width))
    assert blocks >= 3 and idx.size % blocks

    def reference(model, dataset, temperature):
        logits = nn.forward(model, dataset.features[idx])
        correct = np.argmax(logits, axis=-1) == dataset.true_labels[idx]
        return correct.mean(), nn.softmax_t(logits, temperature)

    one = nn.take(teachers, 0)
    slices = data.Slices([datasets[0], datasets[1], datasets[0]])
    temperatures = [5.0, 2.0, 1.0]
    want_one = reference(one, datasets[0], 5.0)
    want = [reference(nn.take(teachers, source), dataset, T) for source, dataset, T in
            zip(slices.source, [datasets[0], datasets[1], datasets[0]], temperatures)]

    rows, forward = [], nn.forward
    monkeypatch.setattr(nn, "forward", lambda params, batch: (
        rows.append(batch.shape[-2]) or forward(params, batch)))
    assert evaluation.accuracy(one, datasets[0], data.NOISY_TRAIN) == want_one[0]
    assert np.array_equal(
        guidance.compute_teacher_soft_targets(one, datasets[0], 5.0).targets, want_one[1])
    assert rows == 2 * [part.size for part in np.array_split(idx, blocks)]
    students = nn.take(teachers, slices.source)
    assert evaluation.accuracy(students, slices, data.NOISY_TRAIN) == [acc for acc, _ in want]
    cache = guidance.compute_teacher_soft_targets(teachers, slices, temperatures)
    for k, (_, targets) in enumerate(want):
        assert np.array_equal(cache.targets[k], targets)


def test_whole_split_passes_hold_one_block_not_the_split():
    """The traced peak of a soft-target pass and of an accuracy pass over
    20,000 samples stays under 8 MiB; one pass over all rows at width 256
    holds about 40 MB of activations."""
    dataset = data.make_blobs(10, 2000, 32, sigma=0.5, seed=0)
    teacher = nn.init_params([32, 256, 10], seed=1)
    nn.fingerprint(teacher)  # the pass fingerprints the teacher; its sha256 is kept
    limit = 8 * 2**20
    tracemalloc.start()
    try:
        cache = guidance.compute_teacher_soft_targets(teacher, dataset, 5.0)
        _, soft_targets_peak = tracemalloc.get_traced_memory()
        del cache
        tracemalloc.reset_peak()
        evaluation.accuracy(teacher, dataset, data.NOISY_TRAIN)
        _, accuracy_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert soft_targets_peak < limit and accuracy_peak < limit, (soft_targets_peak,
                                                                 accuracy_peak)


def test_soft_target_pass_holds_the_teacher_logits_and_one_copy_of_the_targets():
    """20,000 x 10 soft targets (1.5 MiB) are taken from the teacher's logits
    into one array and softened there, so the traced peak stays that of the
    forward pass, 4.3 MiB; a softened copy of a copy of the logits read 5.3."""
    dataset = data.make_blobs(10, 2000, 32, sigma=0.5, seed=0)
    teacher = nn.init_params([32, 256, 10], seed=1)
    nn.fingerprint(teacher)
    tracemalloc.start()
    try:
        cache = guidance.compute_teacher_soft_targets(teacher, dataset, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.targets.shape == (20000, 10)
    assert peak < 4.5 * 2**20, peak


def _sweep_inputs():
    recipe = data.DataRecipe(classes=3, per_class=40, dim=4, sigma=0.15,
                             clean_fraction=0.1, test_fraction=0.2,
                             noise_model="symmetric", noise_rate=0.3)
    config = pipeline.TrainConfig(
        hidden_dims=(8,), batch_size=16, teacher_epochs=3, student_epochs=2,
        finetune_epochs=1, teacher_lr_schedule=((0, 1e-2),),
        student_lr_schedule=((0, 1e-3),),
    )
    return recipe, config


def test_sweep_grid_validates_before_training():
    recipe, config = _sweep_inputs()
    with pytest.raises(ParameterError):
        evaluation.SweepGrid(axis="T", values=(5.0, 0.0), base_config=config, seeds=(1,),
                             recipe=recipe)
    with pytest.raises(ParameterError):
        evaluation.SweepGrid(axis="alpha", values=(-1.0,), base_config=config, seeds=(1,),
                             recipe=recipe)
    with pytest.raises(ParameterError):
        evaluation.SweepGrid(axis="voltage", values=(1.0,), base_config=config, seeds=(1,),
                             recipe=recipe)
    with pytest.raises(ParameterError):
        evaluation.SweepGrid(axis="beta", values=(), base_config=config, seeds=(1,),
                             recipe=recipe)
    with pytest.raises(ParameterError):
        evaluation.SweepGrid(axis="beta", values=(0.3,), base_config=config, seeds=(),
                             recipe=recipe)
    for axis in ("clean_fraction", "noise_rate"):
        for value in (1.0, 1.5, -0.1):
            with pytest.raises(ParameterError, match=f"in \\[0, 1\\), got {value}"):
                evaluation.SweepGrid(axis=axis, values=(0.1, value), base_config=config,
                                     seeds=(1,), recipe=recipe)


@pytest.mark.parametrize("values, seeds, message", [
    ((0.1, 0.3, 0.1), (1, 2), "sweep value 0.1 is repeated"),
    ((0.1,), (1, 2, 2), "sweep seed 2 is repeated"),
    ((0.1,), (1, -1), r"sweep seeds must be >= 0, got \[1, -1\]"),
], ids=["repeated-value", "repeated-seed", "negative-seed"])
def test_sweep_grid_rejects_repeated_cells_and_negative_seeds(values, seeds, message):
    recipe, config = _sweep_inputs()
    with pytest.raises(ParameterError, match=f"^{message}$"):
        evaluation.SweepGrid(axis="beta", values=values, base_config=config, seeds=seeds,
                             recipe=recipe)


def test_sweep_produces_one_row_per_cell():
    recipe, config = _sweep_inputs()
    grid = evaluation.SweepGrid(axis="beta", values=(0.0, 0.3, 1.0),
                                base_config=config, seeds=(1, 2), recipe=recipe)
    result = evaluation.sweep(grid)
    assert len(result.rows) == 6
    assert [(r.value, r.seed) for r in result.rows] == [
        (0.0, 1), (0.0, 2), (0.3, 1), (0.3, 2), (1.0, 1), (1.0, 2)
    ]
    assert all(0.0 <= r.acc_student <= 1.0 for r in result.rows)


def test_sweep_beta_zero_cell_is_pure_distillation():
    recipe, config = _sweep_inputs()
    grid = evaluation.SweepGrid(axis="beta", values=(0.0,), base_config=config, seeds=(3,),
                                recipe=recipe)
    result = evaluation.sweep(grid)

    from dataclasses import replace

    dataset, _ = recipe.build(3)
    cfg = replace(config, seed=3, beta=0.0)
    teacher, _ = pipeline.train_teacher(dataset, cfg)
    student, _ = train_student(teacher, dataset, cfg)
    assert result.rows[0].acc_student == evaluation.accuracy(student, dataset, "test")


def _model_slices(params):
    """Copies of the single models in `params`: itself, or each slice of a
    [K, ...] stack (copies, as training goes on updating `params` in place)."""
    if params.weights[0].ndim == 2:
        return [copy(params)]
    return [nn.ModelParams(weights=[W[k].copy() for W in params.weights],
                           biases=[b[k].copy() for b in params.biases])
            for k in range(params.weights[0].shape[0])]


_CELL_FIELDS = {"alpha": "alpha", "beta": "beta", "T": "temperature"}


@pytest.mark.parametrize("axis, values", [
    ("alpha", (0.0, 0.1)),
    ("beta", (0.0, 0.5)),
    ("T", (1.0, 20.0)),
    ("clean_fraction", (0.1, 0.2)),
    ("noise_rate", (0.1, 0.4)),
])
def test_sweep_cells_match_standalone_runs(monkeypatch, axis, values):
    """Every cell's teacher, student and fine-tuned model (bit for bit, signs
    of zeros included) and its three accuracies equal a standalone teacher,
    student and fine-tune run of the same (value, seed)."""
    from dataclasses import replace

    # noisy enough that the two cells of a seed never report the same three
    # accuracies, so a row reporting another cell's results would show
    recipe = data.DataRecipe(classes=3, per_class=40, dim=4, sigma=1.0,
                             clean_fraction=0.1, test_fraction=0.3,
                             noise_model="symmetric", noise_rate=0.4)
    config = pipeline.TrainConfig(
        alpha=1.0, hidden_dims=(8,), batch_size=16, teacher_epochs=3, student_epochs=3,
        finetune_epochs=2, teacher_lr_schedule=((0, 5e-2),),
        student_lr_schedule=((0, 5e-2),),
    )
    evaluated = []
    real_accuracy = evaluation.accuracy

    def recording_accuracy(params, dataset, tag):
        evaluated.extend(_model_slices(params))
        return real_accuracy(params, dataset, tag)

    monkeypatch.setattr(evaluation, "accuracy", recording_accuracy)
    seeds = (1, 2, 4)  # seeds at which the two cells of every axis differ
    grid = evaluation.SweepGrid(axis=axis, values=values, base_config=config, seeds=seeds,
                                recipe=recipe)
    rows = evaluation.sweep(grid).rows
    monkeypatch.undo()

    assert len(rows) == 6
    for seed in seeds:
        assert len({(r.acc_teacher, r.acc_student, r.acc_finetuned)
                    for r in rows if r.seed == seed}) == 2
    for row in rows:
        cfg = replace(config, seed=row.seed)
        cell_recipe = recipe
        if axis in _CELL_FIELDS:
            cfg = replace(cfg, **{_CELL_FIELDS[axis]: row.value})
        else:
            cell_recipe = replace(recipe, **{axis: row.value})
        dataset, _ = cell_recipe.build(row.seed)
        teacher, _ = pipeline.train_teacher(dataset, cfg)
        student, _ = train_student(teacher, dataset, cfg)
        finetuned, _ = pipeline.finetune_clean(student, dataset, cfg)
        assert any(_same_bits(teacher, m) for m in evaluated)
        assert any(_same_bits(student, m) for m in evaluated)
        assert any(_same_bits(finetuned, m) for m in evaluated)
        assert (row.acc_teacher, row.acc_student, row.acc_finetuned) == tuple(
            evaluation.accuracy(m, dataset, "test") for m in (teacher, student, finetuned))


@pytest.mark.parametrize("axis, values, stack_recipes", [
    ("beta", (0.0, 0.3, 1.0), [{}]),
    ("clean_fraction", (0.1, 0.2), [{"clean_fraction": 0.1}, {"clean_fraction": 0.2}]),
])
def test_sweep_trains_one_teacher_per_source(monkeypatch, axis, values, stack_recipes):
    """Each layout group of a sweep builds one `Slices` of its cells and
    trains one stack of teachers on its `per_source` view, one teacher per
    source (a distinct dataset and seed), in the order `sources` lists
    them, with the base config at the source's seed; the soft targets, the
    students and the fine-tuned models train on that same `Slices`."""
    from dataclasses import replace

    recipe, config = _sweep_inputs()
    calls = {}

    def recording(name, real):
        def record(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return real(*args, **kwargs)
        return record

    for module, name in ((evaluation, "train_teacher"),
                         (evaluation.guidance, "compute_teacher_soft_targets"),
                         (evaluation, "train_student"), (evaluation, "finetune_clean")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    seeds = (1, 2)
    grid = evaluation.SweepGrid(axis=axis, values=values, base_config=config, seeds=seeds,
                                recipe=recipe)
    evaluation.sweep(grid)
    monkeypatch.undo()

    assert [len(group) for group in calls.values()] == [len(stack_recipes)] * 4
    cells_per_stack = len(values) // len(stack_recipes)
    for (teacher_data, configs), soft, student, finetune, overrides in zip(
            *calls.values(), stack_recipes):
        data_slices, student_data, finetune_data = soft[1], student[1], finetune[1]
        assert student_data is data_slices and finetune_data is data_slices
        assert len(data_slices.sources) == len(seeds)
        assert data_slices.source.tolist() == list(range(len(seeds))) * cells_per_stack
        assert teacher_data.source.tolist() == list(range(len(seeds)))
        assert teacher_data.sources == data_slices.sources
        assert teacher_data.features is data_slices.features
        assert configs == [replace(config, seed=seed) for _, seed in data_slices.sources]
        assert [seed for _, seed in data_slices.sources] == list(seeds)
        for (dataset, _), seed in zip(data_slices.sources, seeds):
            built, _ = replace(recipe, **overrides).build(seed)
            assert dataset.features.tobytes() == built.features.tobytes()
            assert np.array_equal(dataset.labels, built.labels)
            assert np.array_equal(dataset.tags, built.tags)

def test_sweep_is_deterministic():
    recipe, config = _sweep_inputs()
    grid = evaluation.SweepGrid(axis="alpha", values=(0.0, 0.1), base_config=config,
                                seeds=(4, 5), recipe=recipe)
    a = evaluation.sweep(grid)
    b = evaluation.sweep(grid)
    assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())


def test_sweep_stage1_axis_rebuilds_dataset():
    recipe, config = _sweep_inputs()
    grid = evaluation.SweepGrid(axis="clean_fraction", values=(0.1, 0.2),
                                base_config=config, seeds=(6,), recipe=recipe)
    result = evaluation.sweep(grid)
    assert len(result.rows) == 2
    # the teacher itself changes when the split does
    assert result.rows[0].acc_teacher != result.rows[1].acc_teacher or \
        result.rows[0].acc_student != result.rows[1].acc_student


def test_sweep_noise_rate_requires_noise_model():
    recipe, config = _sweep_inputs()
    from dataclasses import replace

    with pytest.raises(ParameterError, match="noise model"):
        evaluation.SweepGrid(axis="noise_rate", values=(0.1,), base_config=config, seeds=(1,),
                             recipe=replace(recipe, noise_model="none", noise_rate=0.0))


def test_sweep_exports():
    recipe, config = _sweep_inputs()
    grid = evaluation.SweepGrid(axis="beta", values=(0.0, 0.5), base_config=config,
                                seeds=(7, 8), recipe=recipe)
    result = evaluation.sweep(grid)

    csv_text = result.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "axis,value,seed,acc_teacher,acc_student,acc_finetuned"
    assert len(lines) == 5

    doc = result.to_json_dict()
    assert doc["axis"] == "beta"
    assert len(doc["rows"]) == 4
    assert len(doc["aggregates"]) == 2
    agg = doc["aggregates"][0]
    values = [r["acc_student"] for r in doc["rows"] if r["value"] == agg["value"]]
    assert agg["acc_student"]["mean"] == pytest.approx(np.mean(values))
    assert agg["acc_student"]["min"] == min(values)
    assert agg["acc_student"]["max"] == max(values)

    plot = result.to_plotdata_text().strip().split("\n")
    assert plot[0].startswith("#")
    assert len(plot) == 3
    assert len(plot[1].split()) == 4
