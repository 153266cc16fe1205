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
    dataset recipe. Making a grid checks it whole, before any training: each
    cell's config and recipe (an error names the cell), the noise model that
    a noise_rate sweep needs, and each distinct dataset, built once into
    `datasets` (by `data_key`), which must have a test split and the subsets
    that the teacher, student and fine-tune stages train on (an
    EmptySubsetError naming the cell)."""

    axis: str
    values: tuple[float, ...]
    base_config: TrainConfig
    seeds: tuple[int, ...]
    recipe: DataRecipe
    datasets: dict[tuple, Dataset] = field(init=False, repr=False, compare=False)

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
        datasets: dict[tuple, Dataset] = {}
        for value in self.values:
            for seed in self.seeds:
                recipe = _cell(self, value, seed)[1]
                key = self.data_key(value, seed)
                if key not in datasets:
                    datasets[key], _ = recipe.build(seed)
                    try:
                        check_split(datasets[key], TEST)
                        check_trains(datasets[key], "teacher", "student", "finetune")
                    except EmptySubsetError as exc:
                        raise EmptySubsetError(f"sweep {self.axis}={value!r}: {exc}") from None
        object.__setattr__(self, "datasets", datasets)

    def data_key(self, value: float, seed: int) -> tuple:
        """Which dataset cell (value, seed) trains on: one per seed, and per
        value on the axes that set the recipe."""
        return (value if SWEEP_AXES[self.axis][0] is DataRecipe else None, seed)


@dataclass(frozen=True)
class SweepRow:
    axis: str
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
        """A header of the SweepRow fields, then each row's values (numbers
        as their repr)."""
        lines = [",".join(f.name for f in fields(SweepRow))]
        for r in self.rows:
            lines.append(",".join(v if isinstance(v, str) else repr(v)
                                  for v in to_document(r).values()))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rows = [to_document(r) for r in self.rows]
        for row in rows:
            del row["axis"]
        return {"axis": self.axis, "rows": rows, "aggregates": self.aggregates()}

    def to_plotdata_text(self) -> str:
        """Student accuracy per axis value: `x mean min max` rows."""
        lines = ["# x mean min max"]
        for entry in self.aggregates():
            s = entry["acc_student"]
            lines.append(f"{entry['value']!r} {s['mean']!r} {s['min']!r} {s['max']!r}")
        return "\n".join(lines) + "\n"


def _cell(grid: SweepGrid, value: float, seed: int) -> tuple[TrainConfig, DataRecipe]:
    """The config at `seed` and the recipe of cell (value, seed), `value`
    set in the one that owns the axis's field; a value it rejects is an
    error of the same type naming the cell."""
    owner, name = SWEEP_AXES[grid.axis]
    parts = {TrainConfig: replace(grid.base_config, seed=seed), DataRecipe: grid.recipe}
    try:
        parts[owner] = replace(parts[owner], **{name: value})
    except GuidanceLearnError as exc:
        raise type(exc)(f"sweep {grid.axis}={value!r}: {exc}") from None
    return parts[TrainConfig], parts[DataRecipe]


def sweep(grid: SweepGrid) -> SweepResult:
    """Run the full two-stage pipeline for every (value, seed) cell, on the
    datasets the grid built.

    Cells whose datasets share a `layout` train together: one [K, ...]
    stack of teachers, one per dataset (per seed; per seed and value on the
    axes that change the data), then one stack of students and one of
    fine-tuned models over the cells, each cell starting from its dataset's
    teacher. Every slice is bit-identical to its cell trained alone. The
    stratified split gives every seed and noise rate the same split sizes,
    so only clean_fraction values train apart. Each cell's teacher accuracy
    is its teacher report's. Only the final accuracies are read, so every
    stage trains with `record_epochs=False`: its report holds no epochs.
    """
    cells = [(value, seed) for value in grid.values for seed in grid.seeds]
    groups: dict[tuple, list[tuple[float, int]]] = {}
    for cell in cells:
        groups.setdefault(layout(grid.datasets[grid.data_key(*cell)]), []).append(cell)

    results: dict[tuple[float, int], tuple[float, float, float]] = {}
    for group in groups.values():
        # one teacher per source: each distinct dataset (and so seed) of the cells
        keys = list(dict.fromkeys(grid.data_key(*cell) for cell in group))
        teachers, teacher_report = train_teacher(
            [grid.datasets[key] for key in keys],
            [replace(grid.base_config, seed=seed) for _, seed in keys], record_epochs=False)
        acc_teacher = teacher_report.final_test_accuracy
        cell_data = [grid.datasets[grid.data_key(*cell)] for cell in group]
        configs = [_cell(grid, value, seed)[0] for value, seed in group]
        cache = guidance.compute_teacher_soft_targets(
            teachers, Slices(cell_data, [c.seed for c in configs]),
            [c.temperature for c in configs])
        students, student_report = train_student(teachers, cell_data, configs, cache,
                                                 record_epochs=False)
        _, finetune_report = finetune_clean(students, cell_data, configs, record_epochs=False)
        for cell, acc_student, acc_finetuned in zip(
                group, student_report.final_test_accuracy, finetune_report.final_test_accuracy):
            results[cell] = (acc_teacher[keys.index(grid.data_key(*cell))], acc_student,
                             acc_finetuned)

    rows = [SweepRow(grid.axis, value, seed, *results[(value, seed)]) for value, seed in cells]
    return SweepResult(axis=grid.axis, rows=rows)
