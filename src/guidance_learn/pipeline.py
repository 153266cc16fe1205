"""Training recipes: stage-1 teacher, stage-2 guidance student, fine-tuning,
and the cross-comparable baseline variants.

All runs are driven by a TrainConfig and are bit-reproducible from
(dataset, config): every shuffle and init draws from seed-derived streams.
The training loop is indifferent to whether it carries one model or a
[K, ...] stack (see `nn`); for a stack, every loss and accuracy in the
report is a list of K per-slice values. Given K configs, which may differ
in alpha, beta, temperature and seed, and one dataset or K, a stage trains
K models as one stack, slice k on its own dataset and seed (`data.Slices`).
"""
from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import guidance, nn
from .data import CLEAN_TRAIN, NOISY_TRAIN, TEST, Dataset, Slices
from .errors import (ConfigurationError, ConsistencyError, DivergenceError, InputError,
                     ParameterError, ShapeError)
from .serialize import from_document, to_document

BASELINE_VARIANTS = ("noisy_only", "clean_only", "mixed", "guidance", "guidance_finetuned")

Schedule = tuple[tuple[int, float], ...]

# Transcribed two-stage schedules: base LRs divided by 10 at fixed epochs
# (teacher 10/15/20 of 25, student 5/8 of 11). Desk-scale blob experiments
# train fine at these values with the default architecture below.
DEFAULT_TEACHER_SCHEDULE: Schedule = ((0, 1e-3), (10, 1e-4), (15, 1e-5), (20, 1e-6))
DEFAULT_STUDENT_SCHEDULE: Schedule = ((0, 1e-4), (5, 1e-5), (8, 1e-6))


def _check_schedule(name: str, schedule: Schedule) -> None:
    if not schedule:
        raise ParameterError(f"{name} must have at least one (epoch, lr) entry")
    epochs = [e for e, _ in schedule]
    if epochs[0] != 0:
        raise ParameterError(f"{name} must start at epoch 0, got {epochs[0]}")
    if any(b <= a for a, b in zip(epochs, epochs[1:])):
        raise ParameterError(f"{name} epochs must be strictly increasing: {epochs}")
    if any(lr < 0 for _, lr in schedule):
        raise ParameterError(f"{name} has a negative learning rate")


def lr_at(schedule: Schedule, epoch: int) -> float:
    """Piecewise-constant: the last schedule entry with epoch <= `epoch`."""
    lr = schedule[0][1]
    for start, value in schedule:
        if start <= epoch:
            lr = value
    return float(lr)


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of a two-stage run."""

    alpha: float = 0.1
    beta: float = 0.3
    temperature: float = 5.0
    momentum: float = 0.9
    weight_decay: float = 1e-3
    batch_size: int = 64
    hidden_dims: tuple[int, ...] = (64,)
    seed: int = 0
    teacher_epochs: int = 25
    student_epochs: int = 11
    finetune_epochs: int = 5
    teacher_lr_schedule: Schedule = DEFAULT_TEACHER_SCHEDULE
    student_lr_schedule: Schedule = DEFAULT_STUDENT_SCHEDULE
    finetune_lr_schedule: Schedule | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ParameterError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if not (self.temperature > 0):
            raise ParameterError(f"temperature must be > 0, got {self.temperature}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.momentum < 1):
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for name, n in (("teacher_epochs", self.teacher_epochs),
                        ("student_epochs", self.student_epochs),
                        ("finetune_epochs", self.finetune_epochs)):
            if n < 0:
                raise ParameterError(f"{name} must be >= 0, got {n}")
        _check_schedule("teacher_lr_schedule", self.teacher_lr_schedule)
        _check_schedule("student_lr_schedule", self.student_lr_schedule)
        if self.finetune_lr_schedule is not None:
            _check_schedule("finetune_lr_schedule", self.finetune_lr_schedule)

    def effective_finetune_schedule(self) -> Schedule:
        """Fine-tuning default: the student's initial LR divided by 10, flat."""
        if self.finetune_lr_schedule is not None:
            return self.finetune_lr_schedule
        return ((0, self.student_lr_schedule[0][1] / 10.0),)

    def to_dict(self) -> dict:
        return to_document(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config from the field keys present in `doc` (others are
        ignored); a value of the wrong JSON type is a ConfigurationError."""
        return from_document(cls, doc)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    loss_total: float | list[float]
    loss_guidance: float | list[float]
    loss_clean: float | list[float]
    test_accuracy: float | list[float] | None


@dataclass
class RunReport:
    """Per-epoch training record plus final test accuracy, serializable.

    wall_time_sec is informational only and deliberately left out of the
    JSON form so reruns with the same seed serialize byte-identically.
    """

    stage: str
    config: dict
    epochs: list[EpochRecord] = field(default_factory=list)
    final_test_accuracy: float | list[float] | None = None
    checkpoint_fingerprints: dict[str, str] = field(default_factory=dict)
    variant: str | None = None
    wall_time_sec: float = 0.0

    def to_json_dict(self) -> dict:
        doc = to_document(self)
        del doc["wall_time_sec"]
        return doc


# The config fields in which the slices of a stack may differ.
_PER_SLICE = ("alpha", "beta", "temperature", "seed")


@dataclass(frozen=True)
class _Stack:
    """What a stage trains on: the slices' data, the config they share and,
    for a stack given per-slice configs, each slice's config."""

    data: Slices
    config: TrainConfig
    configs: list[TrainConfig] | None

    def report_config(self) -> dict:
        """The config of a report; a stack of configs lists per-slice values."""
        doc = self.config.to_dict()
        if self.configs is not None:
            doc.update({name: [getattr(c, name) for c in self.configs] for name in _PER_SLICE})
        return doc


def _stack(dataset: Dataset | Sequence[Dataset],
           config: TrainConfig | Sequence[TrainConfig]) -> _Stack:
    """One config and one dataset, or K configs that differ only in
    `_PER_SLICE` with one dataset or K."""
    if isinstance(config, TrainConfig):
        if not isinstance(dataset, Dataset):
            raise ConfigurationError("per-slice datasets need per-slice configs")
        return _Stack(Slices(dataset, config.seed), config, None)
    configs = list(config)
    if not configs:
        raise ConfigurationError("a stack needs at least one config")
    shared = [replace(c, **{name: getattr(configs[0], name) for name in _PER_SLICE})
              for c in configs]
    if any(c != configs[0] for c in shared):
        raise ConfigurationError(
            f"the configs of a stack may differ only in {', '.join(_PER_SLICE)}")
    return _Stack(Slices(dataset, [c.seed for c in configs]), configs[0], configs)


def _test_accuracy(params: nn.ModelParams, data: Slices) -> float | list[float] | None:
    from .evaluation import accuracy

    if data.indices(TEST).size == 0:
        return None
    return accuracy(params, data, TEST)


def _init_for(stack: _Stack) -> nn.ModelParams:
    """The seeded initial model, or a stack of each slice's."""
    dims = [stack.data.features.shape[-1], *stack.config.hidden_dims, stack.data.num_classes]
    if stack.configs is None:
        return nn.init_params(dims, stack.config.seed)
    return nn.stack([nn.init_params(dims, c.seed) for c in stack.configs])


def _epoch_mean(values) -> float | list[float]:
    """Mean over an epoch's step losses, per slice for a stack; each slice is
    summed exactly as a single model's losses would be."""
    return np.ascontiguousarray(np.transpose(values)).mean(axis=-1).tolist()


@np.errstate(over="ignore", invalid="ignore")
def _train(
    params: nn.ModelParams,
    stack: _Stack,
    schedule: Schedule,
    epochs: int,
    stage: str,
    batches: Callable[[int], Iterable],
    step: Callable,
) -> tuple[nn.ModelParams, RunReport]:
    """The epoch/step loop every stage shares.

    `batches(epoch)` yields the epoch's batches; `step(params, batch)` returns
    ((L_total, L_g, L_c), gradients) of one batch from a single pass. Each
    epoch records its mean losses and test accuracy; the last epoch's
    accuracy is the final one. The report carries no fingerprints. Non-finite
    logits or parameters (the inputs are finite, so training diverged) are a
    DivergenceError naming the stage, epoch, step (from 0) and learning rate.
    That check is the detector, so numpy's overflow and invalid-value
    warnings on the way there are not printed.
    """
    t0 = time.perf_counter()
    config = stack.config
    state = nn.OptState.zeros(params)
    report = RunReport(stage=stage, config=stack.report_config())
    try:
        for epoch in range(epochs):
            lr = lr_at(schedule, epoch)
            losses = []
            for batch in batches(epoch):
                loss, grads = step(params, batch)
                params, state = nn.sgd_step(params, grads, state, lr,
                                            config.momentum, config.weight_decay)
                losses.append(loss)
            total, guide, clean = (_epoch_mean(column) for column in zip(*losses))
            report.epochs.append(EpochRecord(
                epoch=epoch, lr=lr, loss_total=total, loss_guidance=guide,
                loss_clean=clean, test_accuracy=_test_accuracy(params, stack.data),
            ))
    except InputError as exc:
        raise DivergenceError(stage, epoch, len(losses), lr, exc) from exc
    report.final_test_accuracy = (report.epochs[-1].test_accuracy if report.epochs
                                  else _test_accuracy(params, stack.data))
    report.wall_time_sec = time.perf_counter() - t0
    return params, report


def _fingerprinted(
    params: nn.ModelParams, report: RunReport, role: str = "model"
) -> tuple[nn.ModelParams, RunReport]:
    """Record the fingerprint of a single model; a stack has no checkpoint."""
    if params.weights[0].ndim == 2:
        report.checkpoint_fingerprints[role] = nn.fingerprint(params)
    return params, report


def _train_cross_entropy(
    stack: _Stack,
    tags: tuple[str, ...],
    params: nn.ModelParams,
    schedule: Schedule,
    epochs: int,
    stage: str,
) -> tuple[nn.ModelParams, RunReport]:
    """Plain cross-entropy over the samples with `tags`."""
    data = stack.data
    if data.indices(*tags).size == 0:
        raise ConfigurationError(f"{stage}: training subset is empty")
    X, y, C = data.features, data.labels, data.num_classes

    def step(params, batch):
        targets = nn.one_hot(data.rows(y, batch), C)
        probs, grads = nn.backward(params, data.rows(X, batch), targets)
        loss = nn.cross_entropy(probs, targets)
        return (loss, 0.0 * loss, loss), grads

    return _fingerprinted(*_train(
        params, stack, schedule, epochs, stage,
        lambda epoch: data.batches(tags, stack.config.batch_size, epoch), step,
    ))


def train_teacher(
    dataset: Dataset | Sequence[Dataset], config: TrainConfig | Sequence[TrainConfig]
) -> tuple[nn.ModelParams, RunReport]:
    """Stage 1: plain cross-entropy over all training samples, clean + noisy.
    K configs (and one dataset or K) train a [K, ...] stack of teachers,
    slice k initialised and batched from its own seed."""
    stack = _stack(dataset, config)
    if stack.data.indices(CLEAN_TRAIN, NOISY_TRAIN).size == 0:
        raise ConfigurationError("teacher training needs a nonempty train set")
    return _train_cross_entropy(stack, (CLEAN_TRAIN, NOISY_TRAIN), _init_for(stack),
                                stack.config.teacher_lr_schedule,
                                stack.config.teacher_epochs, stage="teacher")


def train_student(
    teacher: nn.ModelParams,
    dataset: Dataset | Sequence[Dataset],
    config: TrainConfig | Sequence[TrainConfig],
    cache: guidance.GuidanceCache,
) -> tuple[nn.ModelParams, RunReport]:
    """Stage 2: teacher-initialized student under the multi-task objective.

    `cache` holds the soft targets of this `teacher` at the configured
    temperature (`guidance.compute_teacher_soft_targets`) on this data; a
    cache built from another model or on other samples is a
    ConsistencyError. The teacher's fingerprint goes into the report.
    Given K configs that differ only in alpha, beta, temperature and seed,
    one dataset or K, and a cache built at their K temperatures on that
    data, the K students train as one [K, ...] stack. They start from the
    teacher tiled K times or, on per-slice data, from a stack of one teacher
    per source (`data.Slices.source`). Slice k equals the student of config
    k trained alone, and the report holds per-slice values and no student
    fingerprint.
    """
    stack = _stack(dataset, config)
    data, config = stack.data, stack.config
    if teacher.layer_dims[0] != data.features.shape[-1]:
        raise ShapeError(
            f"teacher input dim {teacher.layer_dims[0]} != dataset feature dim "
            f"{data.features.shape[-1]}"
        )
    if teacher.num_classes != data.num_classes:
        raise ShapeError(
            f"teacher has {teacher.num_classes} outputs, dataset has "
            f"{data.num_classes} classes"
        )
    if data.indices(CLEAN_TRAIN).size == 0:
        raise ConfigurationError(
            "student training needs a clean subset; for noisy-only training "
            "use run_baseline('noisy_only', ...)"
        )
    noisy_idx = data.indices(NOISY_TRAIN)
    if noisy_idx.size == 0:
        raise ConfigurationError("student training needs a noisy subset")
    teacher_fingerprint = nn.fingerprint(teacher)
    if cache.teacher_fingerprint != teacher_fingerprint:
        raise ConsistencyError(
            f"guidance cache was built from teacher {cache.teacher_fingerprint[:12]}..., "
            f"not from the given teacher {teacher_fingerprint[:12]}..."
        )
    if not np.array_equal(cache.indices, noisy_idx):
        raise ConsistencyError("guidance cache does not hold the noisy samples of the data")

    if stack.configs is None:
        student = teacher.copy()
        alpha, beta, temperature = config.alpha, config.beta, config.temperature
    else:
        if teacher.weights[0].ndim == 2:
            student = nn.tile(teacher, len(stack.configs))
        elif teacher.weights[0].shape[0] == data.num_sources:
            student = nn.take(teacher, data.source)
        else:
            raise ShapeError(f"a stack of {teacher.weights[0].shape[0]} teachers for "
                             f"data of {data.num_sources} sources")
        alpha, beta, temperature = (np.array([getattr(c, name) for c in stack.configs])
                                    for name in ("alpha", "beta", "temperature"))
    X, y = data.features, data.labels

    def step(student, batch):
        noisy, clean = batch
        return guidance.student_batch_loss(
            student, data.rows(X, noisy), data.rows(y, noisy), noisy, cache,
            data.rows(X, clean), data.rows(y, clean),
            alpha=alpha, beta=beta, temperature=temperature,
        )

    student, report = _train(
        student, stack, config.student_lr_schedule, config.student_epochs, "student",
        lambda epoch: data.mixed_batches(config.batch_size, epoch), step,
    )
    report.checkpoint_fingerprints["teacher"] = teacher_fingerprint
    return _fingerprinted(student, report, "student")


def finetune_clean(
    model: nn.ModelParams,
    dataset: Dataset | Sequence[Dataset],
    config: TrainConfig | Sequence[TrainConfig],
) -> tuple[nn.ModelParams, RunReport]:
    """Cross-entropy pass over the clean subset only, at a reduced LR; `model`
    may be a stack, and K configs (and one dataset or K) fine-tune slice k
    on its own data and seed."""
    stack = _stack(dataset, config)
    if stack.data.indices(CLEAN_TRAIN).size == 0:
        raise ConfigurationError("fine-tuning needs a nonempty clean subset")
    return _train_cross_entropy(
        stack, (CLEAN_TRAIN,), model.copy(), stack.config.effective_finetune_schedule(),
        stack.config.finetune_epochs, stage="finetune",
    )


def run_baseline(
    variant: str, dataset: Dataset, config: TrainConfig
) -> tuple[dict[str, nn.ModelParams], RunReport]:
    """Run one comparison variant: its models by checkpoint name ("model";
    or "teacher" and "student", plus "finetuned") and its report. Reports
    of one dataset and config differ only in their variant field."""
    if variant in ("noisy_only", "clean_only"):
        stack = _stack(dataset, config)
        params, report = _train_cross_entropy(
            stack, (NOISY_TRAIN if variant == "noisy_only" else CLEAN_TRAIN,),
            _init_for(stack), config.teacher_lr_schedule, config.teacher_epochs,
            stage="teacher",
        )
        models = {"model": params}
    elif variant == "mixed":
        params, report = train_teacher(dataset, config)
        models = {"model": params}
    elif variant in ("guidance", "guidance_finetuned"):
        teacher, teacher_report = train_teacher(dataset, config)
        cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
        student, report = train_student(teacher, dataset, config, cache)
        models = {"teacher": teacher, "student": student}
        report.wall_time_sec += teacher_report.wall_time_sec
        if variant == "guidance_finetuned":
            student_report = report
            finetuned, report = finetune_clean(student, dataset, config)
            models["finetuned"] = finetuned
            report.checkpoint_fingerprints = {
                **student_report.checkpoint_fingerprints,
                "finetuned": report.checkpoint_fingerprints["model"],
            }
            report.wall_time_sec += student_report.wall_time_sec
    else:
        raise ParameterError(
            f"unknown baseline variant {variant!r}; expected one of {BASELINE_VARIANTS}"
        )
    report.variant = variant
    return models, report

