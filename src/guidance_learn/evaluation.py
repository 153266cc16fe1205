"""Metrics and single-axis hyperparameter sweeps over the full pipeline."""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import guidance, nn
from .data import DataRecipe, Dataset
from .errors import InputError, ParameterError
from .pipeline import TrainConfig, finetune_clean, train_student, train_teacher
from .serialize import to_document

SWEEP_AXES = ("alpha", "beta", "T", "clean_fraction", "noise_rate")
_STAGE2_AXES = ("alpha", "beta", "T")


def accuracy(params: nn.ModelParams, dataset: Dataset, tag: str) -> float | list[float]:
    """Fraction of split samples whose argmax logit hits the true label; a
    list of K fractions, one per slice, for a stack.

    np.argmax breaks ties toward the lowest class index.
    """
    idx = dataset.indices(tag)
    if idx.size == 0:
        raise InputError(f"split {tag!r} is empty")
    preds = np.argmax(nn.forward(params, dataset.features[idx]), axis=-1)
    truth = dataset.true_labels if dataset.true_labels is not None else dataset.labels
    return (preds == truth[idx]).mean(axis=-1).tolist()


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

    Stage-2-only axes (alpha, beta, T) share one teacher per seed, and the
    cells of a seed train as one [K, ...] stack of students and then of
    fine-tuned models (each slice bit-identical to its cell trained alone).
    Axes that change the data (clean_fraction, noise_rate) retrain the
    teacher per cell and train each cell as a stack of one.
    """
    if grid.axis == "noise_rate" and recipe.noise_model == "none":
        raise ParameterError("noise_rate sweep needs a recipe with a noise model")

    cells = list(enumerate(grid.values))
    if grid.axis in _STAGE2_AXES:
        groups = [(seed, cells) for seed in grid.seeds]
    else:
        groups = [(seed, [cell]) for cell in cells for seed in grid.seeds]
    results: dict[tuple[int, int], tuple[float, float, float]] = {}
    for seed, group in groups:
        dataset, _ = _cell_recipe(grid, recipe, group[0][1]).build(seed)
        configs = [_cell_config(grid, value, seed) for _, value in group]
        teacher, _ = train_teacher(dataset, configs[0])
        acc_teacher = accuracy(teacher, dataset, "test")
        cache = guidance.compute_teacher_soft_targets(
            teacher, dataset, [c.temperature for c in configs])
        students, student_report = train_student(teacher, dataset, configs, cache)
        _, finetune_report = finetune_clean(students, dataset, configs[0])
        for (vi, _), acc_student, acc_finetuned in zip(
                group, student_report.final_test_accuracy,
                finetune_report.final_test_accuracy):
            results[(vi, seed)] = (acc_teacher, acc_student, acc_finetuned)

    rows = [
        SweepRow(axis=grid.axis, value=value, seed=seed,
                 acc_teacher=results[(vi, seed)][0],
                 acc_student=results[(vi, seed)][1],
                 acc_finetuned=results[(vi, seed)][2])
        for vi, value in enumerate(grid.values)
        for seed in grid.seeds
    ]
    return SweepResult(axis=grid.axis, rows=rows)
