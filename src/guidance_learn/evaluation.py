"""Metrics and single-axis hyperparameter sweeps over the full pipeline. A
sweep axis sets one TrainConfig or DataRecipe field, which checks its values;
a `SweepGrid` checks every cell and builds its datasets before any training."""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import guidance, nn
from .data import TEST, DataRecipe, Dataset, Slices, layout
from .errors import EmptySubsetError, GuidanceLearnError, InputError, ParameterError
from .pipeline import (TrainConfig, check_fits, check_split, check_trains, finetune_clean,
                       train_student, train_teacher)
from .serialize import to_document

# sweep axis -> the TrainConfig or DataRecipe field it sets
SWEEP_AXES = {"alpha": (TrainConfig, "alpha"), "beta": (TrainConfig, "beta"),
              "T": (TrainConfig, "temperature"), "clean_fraction": (DataRecipe, "clean_fraction"),
              "noise_rate": (DataRecipe, "noise_rate")}


def accuracy(params: nn.ModelParams, dataset: Dataset | Slices, tag: str) -> float | list[float]:
    """Fraction of split samples whose argmax logit hits the true label; a
    list of K fractions, one per slice, for a stack (on per-slice data, each
    slice's own split).

    np.argmax breaks ties toward the lowest class index. The logits come in
    row blocks of at most 2^18 // widest layer rows per slice
    (`data.Slices.logits`), so the pass holds one block's activations,
    however large the split. A model that does not fit the data
    (`pipeline.check_fits`) is a ShapeError.
    """
    data = dataset if isinstance(dataset, Slices) else Slices(dataset)
    check_fits(params, data, "model")
    idx = data.indices(tag)
    if idx.size == 0:
        raise InputError(f"split {tag!r} is empty")
    preds = np.argmax(data.logits(params, idx), axis=-1)
    return (preds == data.rows(data.truth, idx)).mean(axis=-1).tolist()


@dataclass(frozen=True)
class SweepGrid:
    """One axis, its values, the base config, the replicate seeds and the
    dataset recipe. Making a grid checks it whole, before any training, and
    builds `cells`, value-major: per (value, seed), the config at `seed` and
    the dataset it trains on. Each value is set once in the TrainConfig or
    DataRecipe that owns the axis (a value it rejects is an error of the
    same type naming the cell); a noise_rate sweep needs a noise model; and
    each distinct dataset (one per seed, and per value on the axes that set
    the recipe) is built once, and must have a test split and the subsets
    that the teacher, student and fine-tune stages train on (an
    EmptySubsetError naming the cell)."""

    axis: str
    values: tuple[float, ...]
    base_config: TrainConfig
    seeds: tuple[int, ...]
    recipe: DataRecipe
    cells: list[tuple[float, int, TrainConfig, Dataset]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ParameterError(f"unknown sweep axis {self.axis!r}; "
                                 f"expected one of {tuple(SWEEP_AXES)}")
        if not self.values:
            raise ParameterError("sweep needs at least one axis value")
        if not all(np.isfinite(v) for v in self.values):
            raise ParameterError(f"sweep values must be finite: {self.values}")
        if not self.seeds:
            raise ParameterError("sweep needs at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ParameterError(f"sweep seeds must be >= 0, got {list(self.seeds)}")
        for name, items in (("value", self.values), ("seed", self.seeds)):
            repeated = [x for i, x in enumerate(items) if x in items[:i]]
            if repeated:
                raise ParameterError(f"sweep {name} {repeated[0]!r} is repeated")
        if self.axis == "noise_rate" and self.recipe.noise_model == "none":
            raise ParameterError("noise_rate sweep needs a noise model (noise_model is 'none')")
        owner, name = SWEEP_AXES[self.axis]
        cells, datasets = [], {}
        for value in self.values:
            parts = {TrainConfig: self.base_config, DataRecipe: self.recipe}
            try:
                parts[owner] = replace(parts[owner], **{name: value})
            except GuidanceLearnError as exc:
                raise type(exc)(f"sweep {self.axis}={value!r}: {exc}") from None
            if owner is DataRecipe or not datasets:
                for seed in self.seeds:
                    datasets[seed], _ = parts[DataRecipe].build(seed)
                    try:
                        check_split(datasets[seed], TEST)
                        check_trains(datasets[seed], "teacher", "student", "finetune")
                    except EmptySubsetError as exc:
                        raise EmptySubsetError(f"sweep {self.axis}={value!r}: {exc}") from None
            cells += [(value, seed, replace(parts[TrainConfig], seed=seed), datasets[seed])
                      for seed in self.seeds]
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class SweepRow:
    value: float
    seed: int
    acc_teacher: float
    acc_student: float
    acc_finetuned: float


@dataclass
class SweepResult:
    axis: str
    rows: list[SweepRow]

    def aggregates(self) -> list[dict]:
        """Per-value mean/min/max for each recorded accuracy."""
        out = []
        for value in dict.fromkeys(row.value for row in self.rows):
            cells = [r for r in self.rows if r.value == value]
            entry: dict = {"value": value}
            for metric in ("acc_teacher", "acc_student", "acc_finetuned"):
                vals = [getattr(r, metric) for r in cells]
                entry[metric] = {
                    "mean": float(np.mean(vals)),
                    "min": float(min(vals)),
                    "max": float(max(vals)),
                }
            out.append(entry)
        return out

    def to_csv_text(self) -> str:
        """A header of `axis` and the SweepRow fields, then per row the axis
        name and the row's values (numbers as their repr)."""
        lines = [",".join(["axis", *(f.name for f in fields(SweepRow))])]
        for r in self.rows:
            lines.append(",".join([self.axis, *map(repr, to_document(r).values())]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"axis": self.axis, "rows": [to_document(r) for r in self.rows],
                "aggregates": self.aggregates()}

    def to_plotdata_text(self) -> str:
        """Student accuracy per axis value: `x mean min max` rows."""
        lines = ["# x mean min max"]
        for entry in self.aggregates():
            s = entry["acc_student"]
            lines.append(f"{entry['value']!r} {s['mean']!r} {s['min']!r} {s['max']!r}")
        return "\n".join(lines) + "\n"


def sweep(grid: SweepGrid) -> SweepResult:
    """Run the full two-stage pipeline for every cell of the grid, on the
    datasets the grid built.

    Cells whose datasets share a `layout` train together, on one
    `Slices(datasets, seeds)` of their cells that every stage takes: one
    [K, ...] stack of teachers on its `per_source()` view, one per source
    (a distinct dataset and seed), each with the base config at its seed;
    then the soft targets, one stack of students and one of fine-tuned
    models over the cells, each from its source's teacher. Every slice is
    bit-identical to its cell trained alone. The stratified split gives
    every seed and noise rate the same split sizes, so only clean_fraction
    values train apart. Each cell's teacher accuracy is its source's in
    the teacher report. Only the final accuracies are read, so every stage
    trains with `record_epochs=False`: its report holds no epochs.
    """
    groups: dict[tuple, list[tuple[float, int, TrainConfig, Dataset]]] = {}
    for cell in grid.cells:
        groups.setdefault(layout(cell[3]), []).append(cell)

    results: dict[tuple[float, int], tuple[float, float, float]] = {}
    for group in groups.values():
        _, seeds, configs, datasets = zip(*group)
        data = Slices(datasets, seeds)
        teachers, teacher_report = train_teacher(
            data.per_source(), [replace(grid.base_config, seed=seed) for _, seed in data.sources],
            record_epochs=False)
        cache = guidance.compute_teacher_soft_targets(teachers, data,
                                                      [c.temperature for c in configs])
        acc_teacher = [teacher_report.final_test_accuracy[s] for s in data.source]
        students, student_report = train_student(teachers, data, configs, cache,
                                                 record_epochs=False)
        _, finetune_report = finetune_clean(students, data, configs, record_epochs=False)
        for (value, seed, _, _), *accs in zip(group, acc_teacher,
                                              student_report.final_test_accuracy,
                                              finetune_report.final_test_accuracy):
            results[value, seed] = tuple(accs)

    rows = [SweepRow(value, seed, *results[(value, seed)]) for value, seed, _, _ in grid.cells]
    return SweepResult(axis=grid.axis, rows=rows)
