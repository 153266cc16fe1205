"""Metrics and single-axis hyperparameter sweeps over the full pipeline."""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import guidance, nn
from .data import DataRecipe, Dataset, Slices, layout
from .errors import InputError, ParameterError
from .pipeline import TrainConfig, finetune_clean, train_student, train_teacher
from .serialize import to_document

SWEEP_AXES = ("alpha", "beta", "T", "clean_fraction", "noise_rate")
_STAGE2_AXES = ("alpha", "beta", "T")


def accuracy(params: nn.ModelParams, dataset: Dataset | Slices, tag: str) -> float | list[float]:
    """Fraction of split samples whose argmax logit hits the true label; a
    list of K fractions, one per slice, for a stack (on per-slice data, each
    slice's own split).

    np.argmax breaks ties toward the lowest class index.
    """
    data = dataset if isinstance(dataset, Slices) else Slices(dataset)
    idx = data.indices(tag)
    if idx.size == 0:
        raise InputError(f"split {tag!r} is empty")
    preds = np.argmax(nn.forward(params, data.rows(data.features, idx)), axis=-1)
    return (preds == data.rows(data.truth, idx)).mean(axis=-1).tolist()


@dataclass(frozen=True)
class SweepGrid:
    """One axis, its values, the base config, and the replicate seeds."""

    axis: str
    values: tuple[float, ...]
    base_config: TrainConfig
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ParameterError(f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
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
        for v in self.values:
            self._validate_value(v)

    def _validate_value(self, value: float) -> None:
        if self.axis in ("alpha", "beta") and value < 0:
            raise ParameterError(f"{self.axis} must be >= 0, got {value}")
        if self.axis == "T" and not (value > 0):
            raise ParameterError(f"T must be > 0, got {value}")
        if self.axis in ("clean_fraction", "noise_rate") and not (0.0 <= value < 1.0):
            raise ParameterError(f"{self.axis} must be in [0, 1), got {value}")


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
        seen: list[float] = []
        for row in self.rows:
            if row.value not in seen:
                seen.append(row.value)
        for value in seen:
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


def _cell_config(grid: SweepGrid, value: float, seed: int) -> TrainConfig:
    cfg = replace(grid.base_config, seed=seed)
    if grid.axis == "alpha":
        return replace(cfg, alpha=value)
    if grid.axis == "beta":
        return replace(cfg, beta=value)
    if grid.axis == "T":
        return replace(cfg, temperature=value)
    return cfg


def _cell_recipe(grid: SweepGrid, recipe: DataRecipe, value: float) -> DataRecipe:
    if grid.axis == "clean_fraction":
        return replace(recipe, clean_fraction=value)
    if grid.axis == "noise_rate":
        return replace(recipe, noise_rate=value)
    return recipe


def sweep(grid: SweepGrid, recipe: DataRecipe) -> SweepResult:
    """Run the full two-stage pipeline for every (value, seed) cell.

    Cells whose datasets share a `layout` train together: one [K, ...]
    stack of teachers, one per dataset (per seed; per seed and value on the
    axes that change the data), then one stack of students and one of
    fine-tuned models over the cells, each cell starting from its dataset's
    teacher. Every slice is bit-identical to its cell trained alone. The
    stratified split gives every seed and noise rate the same split sizes,
    so only clean_fraction values train apart.
    """
    if grid.axis == "noise_rate" and recipe.noise_model == "none":
        raise ParameterError("noise_rate sweep needs a recipe with a noise model")

    def data_key(value: float, seed: int) -> tuple:
        return (None if grid.axis in _STAGE2_AXES else value, seed)

    cells = [(value, seed) for value in grid.values for seed in grid.seeds]
    datasets: dict[tuple, Dataset] = {}
    groups: dict[tuple, list[tuple[float, int]]] = {}
    for value, seed in cells:
        key = data_key(value, seed)
        if key not in datasets:
            datasets[key], _ = _cell_recipe(grid, recipe, value).build(seed)
        groups.setdefault(layout(datasets[key]), []).append((value, seed))

    results: dict[tuple[float, int], tuple[float, float, float]] = {}
    for group in groups.values():
        # one teacher per source: each distinct dataset (and so seed) of the cells
        keys = list(dict.fromkeys(data_key(*cell) for cell in group))
        teacher_data = [datasets[key] for key in keys]
        teachers, _ = train_teacher(teacher_data, [replace(grid.base_config, seed=seed)
                                                   for _, seed in keys])
        acc_teacher = accuracy(teachers, Slices(teacher_data), "test")
        cell_data = [datasets[data_key(*cell)] for cell in group]
        configs = [_cell_config(grid, value, seed) for value, seed in group]
        cache = guidance.compute_teacher_soft_targets(
            teachers, Slices(cell_data, [c.seed for c in configs]),
            [c.temperature for c in configs])
        students, student_report = train_student(teachers, cell_data, configs, cache)
        _, finetune_report = finetune_clean(students, cell_data, configs)
        for cell, acc_student, acc_finetuned in zip(
                group, student_report.final_test_accuracy, finetune_report.final_test_accuracy):
            results[cell] = (acc_teacher[keys.index(data_key(*cell))], acc_student, acc_finetuned)

    rows = [SweepRow(grid.axis, value, seed, *results[(value, seed)]) for value, seed in cells]
    return SweepResult(axis=grid.axis, rows=rows)
