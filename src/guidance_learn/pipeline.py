"""Training recipes: stage-1 teacher, stage-2 guidance student, fine-tuning,
and the cross-comparable baseline variants, of which noisy_only, clean_only
and mixed train from scratch as the teacher does, on their own subsets.

All runs are driven by a TrainConfig and are bit-reproducible from
(dataset, config): every shuffle and init draws from seed-derived streams.
The slice axis follows the inputs (see `nn` and `data.Slices`). Given K
configs, which may differ in alpha, beta, temperature and seed, and one
dataset or K, a stage trains a [K, ...] stack, slice k on its own dataset
and seed, and every loss and accuracy in its report is a list of K
per-slice values. One config and one dataset have no slice axis: the stage
trains one model, by the same code, and its report holds numbers and the
model's fingerprint. A stage that starts from given models picks each
slice's with `nn.take`.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import guidance, nn
from .data import CLEAN_TRAIN, NOISY_TRAIN, TEST, Dataset, Slices
from .errors import (ConfigurationError, DivergenceError, EmptySubsetError, InputError,
                     ParameterError, ShapeError)
from .serialize import from_document, to_document

# stage -> the subsets it trains on, each given by its split tags; the
# single-set baselines train from scratch as the teacher does
TRAINS_ON = {"teacher": ((CLEAN_TRAIN, NOISY_TRAIN),), "mixed": ((CLEAN_TRAIN, NOISY_TRAIN),),
             "noisy_only": ((NOISY_TRAIN,),), "clean_only": ((CLEAN_TRAIN,),),
             "student": ((NOISY_TRAIN,), (CLEAN_TRAIN,)), "finetune": ((CLEAN_TRAIN,),)}

# baseline variant -> the stages it runs
BASELINE_VARIANTS = {"noisy_only": ("noisy_only",), "clean_only": ("clean_only",),
                     "mixed": ("mixed",), "guidance": ("teacher", "student"),
                     "guidance_finetuned": ("teacher", "student", "finetune")}

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
        if any(width < 1 for width in self.hidden_dims):
            raise ParameterError(f"hidden_dims must all be >= 1, got {list(self.hidden_dims)}")
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

    Each loss and accuracy follows the slice axis: a number for one model,
    a list of per-slice values for a stack. A stage trained with
    `record_epochs=False` has no epochs, only the final test accuracy.
    It holds no config: the CLI writes the run's config snapshot beside
    these fields in report.json.
    """

    stage: str
    epochs: list[EpochRecord] = field(default_factory=list)
    final_test_accuracy: float | list[float | None] | None = None
    checkpoint_fingerprints: dict[str, str] = field(default_factory=dict)
    variant: str | None = None


# The config fields in which the slices of a stack may differ.
_PER_SLICE = ("alpha", "beta", "temperature", "seed")


@dataclass(frozen=True)
class _Stack:
    """What a stage trains on: the data and config of each of its slices,
    which share `config` but for `_PER_SLICE`. One config and one dataset
    are data without a slice axis (`data.source` 0-d), for one model."""

    data: Slices
    config: TrainConfig
    configs: list[TrainConfig]

    @property
    def slices(self) -> np.ndarray:
        """Each slice's index in `configs`, shaped like `data.source`."""
        return np.arange(len(self.configs)).reshape(self.data.source.shape)


def _stack(dataset: Dataset | Sequence[Dataset],
           config: TrainConfig | Sequence[TrainConfig]) -> _Stack:
    """K configs that differ only in `_PER_SLICE`, with one dataset or K; or
    one config and one dataset. Any other count is a ConfigurationError."""
    if isinstance(config, TrainConfig):
        if not isinstance(dataset, Dataset):
            raise ConfigurationError("per-slice datasets need per-slice configs")
        return _Stack(Slices(dataset, config.seed), config, [config])
    configs = list(config)
    if not configs:
        raise ConfigurationError("a stack needs at least one config")
    if not isinstance(dataset, Dataset) and len(dataset) not in (1, len(configs)):
        raise ConfigurationError(f"{len(dataset)} datasets for {len(configs)} configs: a stack "
                                 f"takes one dataset, or one per config")
    shared = [replace(c, **{name: getattr(configs[0], name) for name in _PER_SLICE})
              for c in configs]
    if any(c != configs[0] for c in shared):
        raise ConfigurationError(
            f"the configs of a stack may differ only in {', '.join(_PER_SLICE)}")
    return _Stack(Slices(dataset, [c.seed for c in configs]), configs[0], configs)


def check_fits(model: nn.ModelParams, dataset: Dataset | Slices, name: str) -> None:
    """A ShapeError, its message led by `name`, unless `model` takes the
    dataset's features as input and has one output per class."""
    dim = dataset.features.shape[-1]
    if model.layer_dims[0] != dim:
        raise ShapeError(f"{name} input dim {model.layer_dims[0]} != dataset feature dim {dim}")
    if model.num_classes != dataset.num_classes:
        raise ShapeError(f"{name} has {model.num_classes} outputs, dataset has "
                         f"{dataset.num_classes} classes")


def check_trains(dataset: Dataset | Slices, *stages: str) -> None:
    """An EmptySubsetError naming the stage and split tags unless the data
    has samples in every subset that each of `stages` trains on
    (`TRAINS_ON`). Each stage checks its own; the command line checks a
    command's stages before it opens the run directory."""
    data = dataset if isinstance(dataset, Slices) else Slices(dataset)
    for stage in stages:
        for tags in TRAINS_ON[stage]:
            if data.indices(*tags).size == 0:
                raise EmptySubsetError(
                    f"{stage} trains on {' + '.join(tags)} samples, and the data has none; "
                    f"the noisy_only and clean_only baselines each train on one subset")


def check_split(dataset: Dataset | Slices, tag: str) -> None:
    """An EmptySubsetError unless the data has samples in split `tag`."""
    if dataset.indices(tag).size == 0:
        raise EmptySubsetError(f"split {tag!r} is empty")


def _test_accuracy(params: nn.ModelParams, data: Slices) -> float | list[float | None] | None:
    """The test accuracy, per slice for a stack; None for an empty test split."""
    from .evaluation import accuracy

    if data.indices(TEST).size == 0:
        return np.full(data.source.shape, None).tolist()
    return accuracy(params, data, TEST)


def _epoch_mean(values: np.ndarray) -> float | list[float]:
    """Mean over an epoch's step losses [S] ([S, K] per slice for a stack);
    each slice is summed exactly as a single model's losses are."""
    return np.ascontiguousarray(np.transpose(values)).mean(axis=-1).tolist()


def _per_step(loss: Callable, probs: list[np.ndarray], targets: np.ndarray) -> np.ndarray:
    """`loss(probs[i], targets of step i)` for each step i of a block, [S]
    ([S, K] per slice for a stack), from one call per run of equal-size
    batches (the short last batch of an epoch is a run of its own): the
    losses reduce each leading index on its own, so step i's value has the
    bits of a call on its batch alone."""
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
    orders: Callable[[int], tuple[np.ndarray, ...]],
    block: Callable[..., Iterator[nn.Gradients]],
    record_epochs: bool,
) -> tuple[nn.ModelParams, RunReport]:
    """The epoch/step loop every stage shares.

    `params` is trained in place with one momentum buffer. `orders(epoch)`
    gives the epoch's index orders (`data.Slices.order`), one per stream,
    whose batches line up column for column. The first order's columns are
    trained in blocks of consecutive batches (`BLOCK_ROWS`):
    `block(params, losses, *orders)` takes each order's column range of the
    block, computes what does not depend on the parameters (targets from
    labels and the guidance cache) once, then for each batch, its next B
    columns, does the forward and backward pass and yields its gradients,
    on which `_train` takes the SGD step; after the last step it appends
    the block's per-step (L_total, L_g, L_c) to `losses`, each [S] ([S, K]
    per slice for a stack). Each epoch records its mean losses and test
    accuracy; the last epoch's accuracy is the final one. With
    `record_epochs` False, `losses` is None and the block computes no
    losses, no epoch is recorded, and the test accuracy is evaluated once,
    after the last epoch: the parameters and the final accuracy are the
    same.
    The report carries no fingerprints. Non-finite logits or parameters (the
    inputs are finite, so training diverged) are a DivergenceError naming
    the stage, epoch, step (from 0) and learning rate: the logits are
    checked at every step, the parameters after each epoch's last step,
    which is the step named when only they are non-finite. Those checks are
    the detector, so numpy's overflow and invalid-value warnings on the way
    there are not printed, and a block that diverges computes no losses.
    """
    config = stack.config
    velocity = nn.Gradients.zeros(params)
    scratch = np.empty_like(params.flat)
    B = config.batch_size
    block_rows = B * max(1, BLOCK_ROWS // (B * len(stack.configs)))
    report = RunReport(stage=stage)
    try:
        for epoch in range(epochs):
            lr = lr_at(schedule, epoch)
            losses: list[tuple[np.ndarray, ...]] | None = [] if record_epochs else None
            steps = 0
            epoch_orders = orders(epoch)
            for start in range(0, epoch_orders[0].shape[-1], block_rows):
                columns = (order[..., start:start + block_rows] for order in epoch_orders)
                for grads in block(params, losses, *columns):
                    nn.sgd_step(params, grads, velocity, lr, config.momentum,
                                config.weight_decay, scratch)
                    steps += 1
            try:
                nn._check_finite(params)
            except InputError as exc:
                raise DivergenceError(stage, epoch, steps - 1, lr, exc) from exc
            if record_epochs:
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
    return params, report


def _returned(params: nn.ModelParams, report: RunReport,
              role: str = "model") -> tuple[nn.ModelParams, RunReport]:
    """The trained model and its report, which holds a single model's
    fingerprint under `role`; a stack has no checkpoint."""
    if params.weights[0].ndim == 2:
        report.checkpoint_fingerprints[role] = nn.fingerprint(params)
    return params, report


def _train_cross_entropy(
    stack: _Stack,
    name: str,
    params: nn.ModelParams,
    schedule: Schedule,
    epochs: int,
    stage: str,
    record_epochs: bool,
) -> tuple[nn.ModelParams, RunReport]:
    """Plain cross-entropy over the subset that stage `name` trains on
    (`TRAINS_ON`, checked here)."""
    data = stack.data
    check_trains(data, name)
    tags = TRAINS_ON[name][0]
    X, y, C, B = data.features, data.labels, data.num_classes, stack.config.batch_size
    buffer = nn.Gradients.zeros(params)

    def block(params, losses, order):
        targets = nn.one_hot(data.rows(y, order), C)
        probs = []
        for j in range(0, order.shape[-1], B):
            q, grads = nn.backward(params, data.rows(X, order[..., j:j + B]),
                                   targets[..., j:j + B, :], out=buffer)
            if losses is not None:
                probs.append(q)
            yield grads
        if losses is not None:
            loss = _per_step(nn.cross_entropy, probs, targets)
            losses.append((loss, 0.0 * loss, loss))

    return _train(params, stack, schedule, epochs, stage,
                  lambda epoch: (data.order(tags, B, epoch),), block, record_epochs)


def _from_scratch(dataset: Dataset | Sequence[Dataset],
                  config: TrainConfig | Sequence[TrainConfig],
                  name: str, record_epochs: bool = True) -> tuple[nn.ModelParams, RunReport]:
    """Cross-entropy over the subset that stage `name` trains on
    (`TRAINS_ON`) on the teacher schedule, slice k initialised and batched
    from its own seed: the teacher and the single-set baselines."""
    stack = _stack(dataset, config)
    dims = [stack.data.features.shape[-1], *stack.config.hidden_dims, stack.data.num_classes]
    init = nn.take(nn.stack([nn.init_params(dims, c.seed) for c in stack.configs]),
                   stack.slices)
    return _returned(*_train_cross_entropy(
        stack, name, init, stack.config.teacher_lr_schedule, stack.config.teacher_epochs,
        stage="teacher", record_epochs=record_epochs))


def train_teacher(
    dataset: Dataset | Sequence[Dataset], config: TrainConfig | Sequence[TrainConfig],
    *, record_epochs: bool = True,
) -> tuple[nn.ModelParams, RunReport]:
    """Stage 1: plain cross-entropy over all training samples, clean + noisy.
    One config and one dataset train one teacher; K configs (and one
    dataset or K) train a [K, ...] stack of teachers, slice k initialised
    and batched from its own seed. With `record_epochs` False the report
    holds no epochs, only the final test accuracy, and no per-epoch loss or
    test pass is computed (`_train`); the model is the same."""
    return _from_scratch(dataset, config, "teacher", record_epochs)


def train_student(
    teacher: nn.ModelParams,
    dataset: Dataset | Sequence[Dataset],
    config: TrainConfig | Sequence[TrainConfig],
    cache: guidance.GuidanceCache,
    *,
    record_epochs: bool = True,
) -> tuple[nn.ModelParams, RunReport]:
    """Stage 2: teacher-initialized student under the multi-task objective.

    `cache` holds the soft targets of this `teacher` at the configured
    temperature (`guidance.compute_teacher_soft_targets`) on this data; a
    cache built from another model, on other samples or at another
    temperature is a ConsistencyError (`guidance.check_cache`). The
    teacher's fingerprint goes into the report. One config and one dataset
    train one student from the teacher, with the cache the command line
    writes (no slice axis), and the report holds its fingerprint. Given K
    configs that differ only in alpha, beta, temperature and seed, one
    dataset or K, and a cache built at their K temperatures on that data,
    the K students train as one [K, ...] stack. The teacher is a stack of
    one model per source of the data, in the order that `data.Slices.sources`
    lists them, a single model standing for one source, and slice k starts
    from teacher `source[k]`.
    Slice k equals the student of config k trained alone, and the report
    holds per-slice values and no student fingerprint. `record_epochs` is
    `train_teacher`'s.
    """
    stack = _stack(dataset, config)
    data, config = stack.data, stack.config
    check_fits(teacher, data, "teacher")
    check_trains(data, "student")
    noisy_idx = data.indices(NOISY_TRAIN)
    student = nn.take(teacher, data.source)
    alpha, beta, temperature = (np.array([getattr(c, name) for c in stack.configs])[stack.slices]
                                for name in ("alpha", "beta", "temperature"))
    teacher_fingerprint = nn.fingerprint(teacher)
    X, y, C, B = data.features, data.labels, data.num_classes, config.batch_size
    guidance.check_cache(cache, teacher_fingerprint, noisy_idx, temperature, C)
    buffers = nn.Gradients.zeros(student), nn.Gradients.zeros(student)

    def block(student, losses, noisy, clean):
        targets = guidance.guidance_targets(cache, noisy, data.rows(y, noisy), beta, C)
        clean_targets = nn.one_hot(data.rows(y, clean), C)
        qs, ps = [], []
        for j in range(0, noisy.shape[-1], B):
            q, p, grads = guidance.student_backward(
                student, data.rows(X, noisy[..., j:j + B]), targets[..., j:j + B, :],
                data.rows(X, clean[..., j:j + B]), clean_targets[..., j:j + B, :],
                alpha=alpha, temperature=temperature, out=buffers)
            if losses is not None:
                qs.append(q)
                ps.append(p)
            yield grads
        if losses is not None:
            loss_g = _per_step(lambda q, g: nn.kl_div(g, q), qs, targets)
            loss_c = _per_step(nn.cross_entropy, ps, clean_targets)
            losses.append((guidance.total_loss(loss_g, loss_c, alpha, temperature),
                           loss_g, loss_c))

    student, report = _train(
        student, stack, config.student_lr_schedule, config.student_epochs, "student",
        lambda epoch: data.mixed_orders(B, epoch), block, record_epochs,
    )
    report.checkpoint_fingerprints["teacher"] = teacher_fingerprint
    return _returned(student, report, "student")


def finetune_clean(
    model: nn.ModelParams,
    dataset: Dataset | Sequence[Dataset],
    config: TrainConfig | Sequence[TrainConfig],
    *,
    record_epochs: bool = True,
) -> tuple[nn.ModelParams, RunReport]:
    """Cross-entropy pass over the clean subset only, at a reduced LR, on a
    copy of `model`. One config fine-tunes one model; K configs (and one
    dataset or K) fine-tune slice k of a stack of K on its own data and
    seed. A model that does not fit the data (`check_fits`) or the configs
    is a ShapeError. `record_epochs` is `train_teacher`'s."""
    stack = _stack(dataset, config)
    check_fits(model, stack.data, "model")
    if model.weights[0].shape[:-2] not in ((), (len(stack.configs),)):
        raise ShapeError(f"a stack of {len(model.weights[0])} models for "
                         f"{len(stack.configs)} configs")
    return _returned(*_train_cross_entropy(
        stack, "finetune", nn.take(model, stack.slices),
        stack.config.effective_finetune_schedule(), stack.config.finetune_epochs,
        stage="finetune", record_epochs=record_epochs))


def run_baseline(
    variant: str, dataset: Dataset, config: TrainConfig
) -> tuple[dict[str, nn.ModelParams], RunReport]:
    """Run one comparison variant: its models by checkpoint name ("model";
    or "teacher" and "student", plus "finetuned") and its report. Reports
    of one dataset and config differ only in their variant field. Data
    without a subset that one of the variant's stages trains on is an
    EmptySubsetError before any training."""
    if variant not in BASELINE_VARIANTS:
        raise ParameterError(
            f"unknown baseline variant {variant!r}; expected one of {tuple(BASELINE_VARIANTS)}"
        )
    check_trains(dataset, *BASELINE_VARIANTS[variant])
    if variant in ("noisy_only", "clean_only", "mixed"):
        params, report = _from_scratch(dataset, config, variant)
        models = {"model": params}
    else:
        # only the last stage's epochs reach the report
        teacher, _ = train_teacher(dataset, config, record_epochs=False)
        cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
        student, report = train_student(teacher, dataset, config, cache,
                                        record_epochs=variant == "guidance")
        models = {"teacher": teacher, "student": student}
        if variant == "guidance_finetuned":
            student_report = report
            finetuned, report = finetune_clean(student, dataset, config)
            models["finetuned"] = finetuned
            report.checkpoint_fingerprints = {
                **student_report.checkpoint_fingerprints,
                "finetuned": report.checkpoint_fingerprints["model"],
            }
    report.variant = variant
    return models, report

