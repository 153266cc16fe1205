"""Training recipes: stage-1 teacher, stage-2 guidance student, fine-tuning,
and the cross-comparable baseline variants.

All runs are driven by a TrainConfig and are bit-reproducible from
(dataset, config): every shuffle and init draws from seed-derived streams.
A stage always trains a [K, ...] stack (see `nn`), and every loss and
accuracy in its report is a list of K per-slice values. Given K configs,
which may differ in alpha, beta, temperature and seed, and one dataset or
K, slice k trains on its own dataset and seed (`data.Slices`). One config
and one dataset train a stack of one, which leaves the stage as the single
model it holds, with scalar report fields and the model's fingerprint.
"""
from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import guidance, nn
from .data import CLEAN_TRAIN, NOISY_TRAIN, TEST, Dataset, Slices
from .errors import ConfigurationError, DivergenceError, InputError, ParameterError, ShapeError
from .serialize import from_document, to_document

BASELINE_VARIANTS = ("noisy_only", "clean_only", "mixed", "guidance", "guidance_finetuned")

Schedule = tuple[tuple[int, float], ...]

# Transcribed two-stage schedules: base LRs divided by 10 at fixed epochs
# (teacher 10/15/20 of 25, student 5/8 of 11). Desk-scale blob experiments
# train fine at these values with the default architecture below.
DEFAULT_TEACHER_SCHEDULE: Schedule = ((0, 1e-3), (10, 1e-4), (15, 1e-5), (20, 1e-6))
DEFAULT_STUDENT_SCHEDULE: Schedule = ((0, 1e-4), (5, 1e-5), (8, 1e-6))

# `_train` runs an epoch's steps in blocks of consecutive batches holding at
# most this many (noisy or only) batch rows over all slices, and at least
# one batch: a desk-scale epoch is one block, a 6-slice stack's about ten
# steps. The block's targets, probabilities and losses are held at once.
BLOCK_ROWS = 4096


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
    test_accuracy: float | list[float | None] | None


@dataclass
class RunReport:
    """Per-epoch training record plus final test accuracy, serializable.

    A stage records each loss and accuracy as a list of per-slice values;
    the report of a single model (`_returned`) holds that slice's numbers.
    wall_time_sec is informational only and deliberately left out of the
    JSON form so reruns with the same seed serialize byte-identically.
    """

    stage: str
    config: dict
    epochs: list[EpochRecord] = field(default_factory=list)
    final_test_accuracy: float | list[float | None] | None = None
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
    """What a stage trains on: the data and config of each of its K slices,
    which share `config` but for `_PER_SLICE`. `single` marks the inputs of
    one model, whose stack of one the stage returns as that model
    (`_returned`)."""

    data: Slices
    config: TrainConfig
    configs: list[TrainConfig]
    single: bool

    def report_config(self) -> dict:
        """The config of a report, with each slice's `_PER_SLICE` values."""
        return {**self.config.to_dict(),
                **{name: [getattr(c, name) for c in self.configs] for name in _PER_SLICE}}


def _stack(dataset: Dataset | Sequence[Dataset], config: TrainConfig | Sequence[TrainConfig],
           start: tuple[int, ...] = ()) -> _Stack:
    """K configs that differ only in `_PER_SLICE`, with one dataset or K; or
    one config and one dataset, for the one model or the [K] stack `start`
    (a stack shape) that the stage starts from."""
    one_config = isinstance(config, TrainConfig)
    if one_config:
        if not isinstance(dataset, Dataset):
            raise ConfigurationError("per-slice datasets need per-slice configs")
        config = [config] * int(np.prod(start))
    configs = list(config)
    if not configs:
        raise ConfigurationError("a stack needs at least one config")
    shared = [replace(c, **{name: getattr(configs[0], name) for name in _PER_SLICE})
              for c in configs]
    if any(c != configs[0] for c in shared):
        raise ConfigurationError(
            f"the configs of a stack may differ only in {', '.join(_PER_SLICE)}")
    return _Stack(Slices(dataset, [c.seed for c in configs]), configs[0], configs,
                  one_config and start == ())


def check_fits(model: nn.ModelParams, dataset: Dataset | Slices, name: str) -> None:
    """A ShapeError, its message led by `name`, unless `model` takes the
    dataset's features as input and has one output per class."""
    dim = dataset.features.shape[-1]
    if model.layer_dims[0] != dim:
        raise ShapeError(f"{name} input dim {model.layer_dims[0]} != dataset feature dim {dim}")
    if model.num_classes != dataset.num_classes:
        raise ShapeError(f"{name} has {model.num_classes} outputs, dataset has "
                         f"{dataset.num_classes} classes")


def _test_accuracy(params: nn.ModelParams, data: Slices) -> list[float | None]:
    """Each slice's test accuracy, None for an empty test split."""
    from .evaluation import accuracy

    if data.indices(TEST).size == 0:
        return [None] * len(data.source)
    return accuracy(params, data, TEST)


def _init_for(stack: _Stack) -> nn.ModelParams:
    """The stack of each slice's seeded initial model."""
    dims = [stack.data.features.shape[-1], *stack.config.hidden_dims, stack.data.num_classes]
    return nn.stack([nn.init_params(dims, c.seed) for c in stack.configs])


def _epoch_mean(values: np.ndarray) -> list[float]:
    """Mean over an epoch's step losses [S, K], per slice; each slice is
    summed exactly as a single model's losses would be."""
    return np.ascontiguousarray(np.transpose(values)).mean(axis=-1).tolist()


def _split(targets: np.ndarray, batches: list[np.ndarray]) -> list[np.ndarray]:
    """Each batch's rows (views) of a block's targets [..., n, C], which
    hold the batches' rows end to end."""
    ends = itertools.accumulate(b.shape[-1] for b in batches)
    return [targets[..., end - b.shape[-1]:end, :] for b, end in zip(batches, ends)]


def _per_step(loss: Callable, probs: list[np.ndarray], targets: np.ndarray) -> np.ndarray:
    """`loss(probs[i], targets of step i)` for each step i of a block, per
    slice [S, K], from one call per run of equal-size batches (the
    short last batch of an epoch is a run of its own): the losses reduce
    each leading index on its own, so step i's value has the bits of a
    call on its batch alone."""
    out, start = [], 0
    for size, run in itertools.groupby(probs, key=lambda q: q.shape[-2]):
        run = np.stack(list(run), axis=-3)
        stop = start + run.shape[-3] * size
        rows = targets[..., start:stop, :]
        out.append(loss(run, rows.reshape(*rows.shape[:-2], -1, size, rows.shape[-1])).T)
        start = stop
    return np.concatenate(out)


@np.errstate(over="ignore", invalid="ignore")
def _train(
    params: nn.ModelParams,
    stack: _Stack,
    schedule: Schedule,
    epochs: int,
    stage: str,
    batches: Callable[[int], Iterable],
    block: Callable[[nn.ModelParams, list, list], Iterator[nn.Gradients]],
) -> tuple[nn.ModelParams, RunReport]:
    """The epoch/step loop every stage shares.

    `params` is trained in place with one momentum buffer. `batches(epoch)`
    yields the epoch's batches, which are trained in blocks of consecutive
    batches (`BLOCK_ROWS`). `block(params, batches, losses)` does a block's
    work: what does not depend on the parameters (targets from labels and
    the guidance cache) once, then for each batch the forward and backward
    pass, yielding its gradients, on which `_train` takes the SGD step;
    after the last step it appends the block's per-step (L_total, L_g, L_c)
    to `losses`, each per slice [S, K]. Each epoch records its mean
    losses and test accuracy; the last epoch's accuracy is the final one.
    The report carries no fingerprints. Non-finite logits or parameters (the
    inputs are finite, so training diverged) are a DivergenceError naming
    the stage, epoch, step (from 0) and learning rate: the logits are
    checked at every step, the parameters after each epoch's last step,
    which is the step named when only they are non-finite. Those checks are
    the detector, so numpy's overflow and invalid-value warnings on the way
    there are not printed, and a block that diverges computes no losses.
    """
    t0 = time.perf_counter()
    config = stack.config
    velocity = nn.Gradients.zeros(params)
    scratch = np.empty_like(params.flat)
    steps_per_block = max(1, BLOCK_ROWS // (config.batch_size * len(stack.configs)))
    report = RunReport(stage=stage, config=stack.report_config())
    try:
        for epoch in range(epochs):
            lr = lr_at(schedule, epoch)
            losses: list[tuple[np.ndarray, ...]] = []
            steps = 0
            epoch_batches = iter(batches(epoch))
            while blocked := list(itertools.islice(epoch_batches, steps_per_block)):
                for grads in block(params, blocked, losses):
                    nn.sgd_step(params, grads, velocity, lr, config.momentum,
                                config.weight_decay, scratch)
                    steps += 1
            try:
                nn._check_finite(params)
            except InputError as exc:
                raise DivergenceError(stage, epoch, steps - 1, lr, exc) from exc
            total, guide, clean = (_epoch_mean(np.concatenate(column))
                                   for column in zip(*losses))
            report.epochs.append(EpochRecord(
                epoch=epoch, lr=lr, loss_total=total, loss_guidance=guide,
                loss_clean=clean, test_accuracy=_test_accuracy(params, stack.data),
            ))
    except InputError as exc:
        raise DivergenceError(stage, epoch, steps, lr, exc) from exc
    report.final_test_accuracy = (report.epochs[-1].test_accuracy if report.epochs
                                  else _test_accuracy(params, stack.data))
    report.wall_time_sec = time.perf_counter() - t0
    return params, report


def _returned(stack: _Stack, params: nn.ModelParams, report: RunReport,
              role: str = "model") -> tuple[nn.ModelParams, RunReport]:
    """The trained stack and its report, or for the inputs of one model
    (`_Stack.single`) that model with its fingerprint under `role`, its
    config and the slice's scalar report values; a stack has no checkpoint."""
    if stack.single:
        params = nn.take(params, 0)
        report.config = stack.config.to_dict()
        for record in report.epochs:
            for name in ("loss_total", "loss_guidance", "loss_clean", "test_accuracy"):
                setattr(record, name, getattr(record, name)[0])
        report.final_test_accuracy = report.final_test_accuracy[0]
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
    buffer = nn.Gradients.zeros(params)

    def block(params, batches, losses):
        targets = nn.one_hot(data.rows(y, np.concatenate(batches, axis=-1)), C)
        probs = []
        for batch, batch_targets in zip(batches, _split(targets, batches)):
            q, grads = nn.backward(params, data.rows(X, batch), batch_targets, out=buffer)
            probs.append(q)
            yield grads
        loss = _per_step(nn.cross_entropy, probs, targets)
        losses.append((loss, 0.0 * loss, loss))

    return _train(params, stack, schedule, epochs, stage,
                  lambda epoch: data.batches(tags, stack.config.batch_size, epoch), block)


def train_teacher(
    dataset: Dataset | Sequence[Dataset], config: TrainConfig | Sequence[TrainConfig]
) -> tuple[nn.ModelParams, RunReport]:
    """Stage 1: plain cross-entropy over all training samples, clean + noisy.
    K configs (and one dataset or K) train a [K, ...] stack of teachers,
    slice k initialised and batched from its own seed."""
    stack = _stack(dataset, config)
    if stack.data.indices(CLEAN_TRAIN, NOISY_TRAIN).size == 0:
        raise ConfigurationError("teacher training needs a nonempty train set")
    return _returned(stack, *_train_cross_entropy(
        stack, (CLEAN_TRAIN, NOISY_TRAIN), _init_for(stack), stack.config.teacher_lr_schedule,
        stack.config.teacher_epochs, stage="teacher"))


def train_student(
    teacher: nn.ModelParams,
    dataset: Dataset | Sequence[Dataset],
    config: TrainConfig | Sequence[TrainConfig],
    cache: guidance.GuidanceCache,
) -> tuple[nn.ModelParams, RunReport]:
    """Stage 2: teacher-initialized student under the multi-task objective.

    `cache` holds the soft targets of this `teacher` at the configured
    temperature (`guidance.compute_teacher_soft_targets`) on this data; a
    cache built from another model, on other samples or at another
    temperature is a ConsistencyError (`guidance.check_cache`). The
    teacher's fingerprint goes into the report. Given K configs that differ
    only in alpha, beta, temperature and seed, one dataset or K, and a cache
    built at their K temperatures on that data, the K students train as one
    [K, ...] stack. They start from K copies of the teacher or, on per-slice
    data, from a stack of one teacher per source (`data.Slices.source`).
    Slice k equals the student of config k trained alone, and the report
    holds per-slice values and no student fingerprint.
    """
    stack = _stack(dataset, config)
    data, config = stack.data, stack.config
    check_fits(teacher, data, "teacher")
    if data.indices(CLEAN_TRAIN).size == 0:
        raise ConfigurationError(
            "student training needs a clean subset; for noisy-only training "
            "use run_baseline('noisy_only', ...)"
        )
    noisy_idx = data.indices(NOISY_TRAIN)
    if noisy_idx.size == 0:
        raise ConfigurationError("student training needs a noisy subset")
    student = nn.take(nn._stacked(teacher, data.num_sources), data.source)
    alpha, beta, temperature = (np.array([getattr(c, name) for c in stack.configs])
                                for name in ("alpha", "beta", "temperature"))
    teacher_fingerprint = nn.fingerprint(teacher)
    X, y, C = data.features, data.labels, data.num_classes
    cache = guidance._stacked(cache)
    guidance.check_cache(cache, teacher_fingerprint, noisy_idx, temperature, C)
    buffers = nn.Gradients.zeros(student), nn.Gradients.zeros(student)

    def block(student, batches, losses):
        noisy, clean = (list(stream) for stream in zip(*batches))
        block_idx = np.concatenate(noisy, axis=-1)
        targets = guidance.guidance_targets(cache, block_idx, data.rows(y, block_idx), beta, C)
        clean_targets = nn.one_hot(data.rows(y, np.concatenate(clean, axis=-1)), C)
        qs, ps = [], []
        for noisy_batch, clean_batch, g, t in zip(noisy, clean, _split(targets, noisy),
                                                  _split(clean_targets, clean)):
            q, p, grads = guidance.student_backward(
                student, data.rows(X, noisy_batch), g, data.rows(X, clean_batch), t,
                alpha=alpha, temperature=temperature, out=buffers)
            qs.append(q)
            ps.append(p)
            yield grads
        loss_g = _per_step(lambda q, g: nn.kl_div(g, q), qs, targets)
        loss_c = _per_step(nn.cross_entropy, ps, clean_targets)
        losses.append((guidance.total_loss(loss_g, loss_c, alpha, temperature), loss_g, loss_c))

    student, report = _train(
        student, stack, config.student_lr_schedule, config.student_epochs, "student",
        lambda epoch: data.mixed_batches(config.batch_size, epoch), block,
    )
    report.checkpoint_fingerprints["teacher"] = teacher_fingerprint
    return _returned(stack, student, report, "student")


def finetune_clean(
    model: nn.ModelParams,
    dataset: Dataset | Sequence[Dataset],
    config: TrainConfig | Sequence[TrainConfig],
) -> tuple[nn.ModelParams, RunReport]:
    """Cross-entropy pass over the clean subset only, at a reduced LR, on a
    copy of `model`. K configs (and one dataset or K) fine-tune slice k of
    a stack of K, or K copies of one model, on its own data and seed; one
    config fine-tunes each model of a given stack. A model that does not
    fit the data (`check_fits`) is a ShapeError."""
    stack = _stack(dataset, config, model.weights[0].shape[:-2])
    check_fits(model, stack.data, "model")
    if stack.data.indices(CLEAN_TRAIN).size == 0:
        raise ConfigurationError("fine-tuning needs a nonempty clean subset")
    return _returned(stack, *_train_cross_entropy(
        stack, (CLEAN_TRAIN,), nn._stacked(model, len(stack.configs)),
        stack.config.effective_finetune_schedule(), stack.config.finetune_epochs,
        stage="finetune"))


def run_baseline(
    variant: str, dataset: Dataset, config: TrainConfig
) -> tuple[dict[str, nn.ModelParams], RunReport]:
    """Run one comparison variant: its models by checkpoint name ("model";
    or "teacher" and "student", plus "finetuned") and its report. Reports
    of one dataset and config differ only in their variant field."""
    if variant in ("noisy_only", "clean_only"):
        stack = _stack(dataset, config)
        params, report = _returned(stack, *_train_cross_entropy(
            stack, (NOISY_TRAIN if variant == "noisy_only" else CLEAN_TRAIN,),
            _init_for(stack), config.teacher_lr_schedule, config.teacher_epochs,
            stage="teacher"))
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

