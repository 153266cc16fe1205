"""Frozen-teacher soft targets, fusion with noisy labels, multi-task loss.

The teacher is run once over the noisy subset and its temperature-softened
predictions are cached. During student training each noisy sample is
supervised by the fusion g = (p + beta*y) / (1 + beta) of its cached soft
target p and its (possibly wrong) one-hot label y, via a KL objective
evaluated at the same temperature; clean samples get plain cross-entropy.

The slice axis follows the inputs (see `nn`). One student trains with one
alpha, beta and T and reads a cache of one dataset at one temperature, as
the command line writes it: [N] indices and [N, C] soft targets. A [K, ...]
stack of students takes [K] per-slice values, and its cache has a leading
slice axis, [K, N] indices and [K, N, C] soft targets, row k slice k's.
Both go through the same code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import NOISY_TRAIN, Dataset, Slices
from .errors import ConsistencyError, InputError, ParameterError, ShapeError
from .serialize import _compact_json, _write_atomic

CACHE_FORMAT_VERSION = 1


@dataclass
class GuidanceCache:
    """Teacher soft targets of the noisy samples, plus provenance.

    Row k of `targets` [N, C] is the soft target of dataset sample
    `indices[k]`; `indices` [N] ascends. A cache for a stack holds [K, N]
    indices and [K, N, C] targets, row k slice k's, at one temperature or
    at K, one per slice.
    """

    indices: np.ndarray
    targets: np.ndarray
    temperature: float | list[float]
    teacher_fingerprint: str

    def __post_init__(self) -> None:
        if self.indices.shape != self.targets.shape[:-1]:
            raise ShapeError(f"cache indices {self.indices.shape} do not index its targets "
                             f"{self.targets.shape}")
        if self.indices.size == 0:
            raise InputError("a guidance cache needs at least one noisy sample")
        # `guidance_targets` looks rows up in a table: entry i + _offset[k] is
        # the row of slice k's sample i in `targets` flattened over slices,
        # or -1 where slice k has no sample i; slice k's entries run from its
        # lowest index to its highest
        keys = np.atleast_2d(self.indices)
        low = keys.min(axis=-1, keepdims=True, initial=keys.max(initial=0))
        span = int((keys - low).max(initial=0)) + 1
        offsets = np.arange(len(keys))[:, None] * span - low
        self._offset = offsets.reshape(*self.indices.shape[:-1], 1)
        self._table = np.full(len(keys) * span, -1)
        self._table[keys + offsets] = np.arange(keys.size).reshape(keys.shape)


def compute_teacher_soft_targets(
    teacher: nn.ModelParams, dataset: Dataset | Slices, temperature
) -> GuidanceCache:
    """softmax_t(forward(teacher, x_i), T) for every noisy-train sample, at
    one temperature or at each of [K], from one teacher forward pass. The
    teacher is a stack of one model per source of the data (`data.Slices`),
    a single model standing for one source, and slice k's targets are those
    of its source's teacher on its own noisy samples; the cache has a slice axis
    when the data or the temperatures have one (InputError when empty). The
    pass runs in row blocks of at most 2^18 // widest layer rows per slice
    (`data.Slices.logits`), so it holds the teacher's logits and one
    block's activations, however many noisy samples there are; the targets
    are those logits taken per slice, softened in place."""
    data = dataset if isinstance(dataset, Slices) else Slices(dataset)
    noisy_idx = data.indices(NOISY_TRAIN)
    sources = data.per_source()
    if teacher.weights[0].shape[:-2] not in ((), sources.source.shape):
        raise ShapeError(f"{len(teacher.weights[0])} teachers for {len(data.sources)} sources")
    logits = sources.logits(nn.take(teacher, sources.source), sources.indices(NOISY_TRAIN))
    slices = np.broadcast_shapes(np.shape(temperature), data.source.shape)
    # slice k's rows are its source's, taken into the one array softened in place
    targets = np.take(logits, np.broadcast_to(data.source, slices), axis=0)
    return GuidanceCache(
        indices=np.broadcast_to(noisy_idx, slices + noisy_idx.shape[-1:]).copy(),
        targets=nn.softmax_t(targets, temperature, out=targets),
        temperature=np.asarray(temperature, dtype=np.float64).tolist(),
        teacher_fingerprint=nn.fingerprint(teacher),
    )


def total_loss(loss_guidance, loss_clean, alpha, temperature):
    """alpha * T^2 * L_g + L_c; T^2 offsets the softening's gradient shrink.
    Any argument may be [K] per-slice values."""
    if np.min(alpha) < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if not np.min(temperature) > 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    return alpha * temperature**2 * loss_guidance + loss_clean


def guidance_targets(
    cache: GuidanceCache,
    indices: np.ndarray,
    noisy_labels: np.ndarray,
    beta,
    num_classes: int,
) -> np.ndarray:
    """Fused guidance matrix [B, C] for a noisy batch given by dataset
    indices [B]; [K, B, C] for per-slice [K, B] indices and labels, or a
    cache with a slice axis, row k looked up in slice k. beta is one value,
    or [K] per slice."""
    indices = np.asarray(indices)
    rows = np.take(cache._table, indices + cache._offset, mode="clip")
    # a clipped or shifted query lands on another sample's row, or on none
    found = (rows >= 0) & (np.take(cache.indices, rows) == indices)
    if not found.all():
        raise ConsistencyError(
            "guidance cache has no entry for sample index "
            f"{int(np.broadcast_to(indices, found.shape)[~found][0])}"
        )
    targets = np.take(cache.targets.reshape(-1, cache.targets.shape[-1]), rows, axis=0)
    b = nn._slicewise("beta", beta, targets)
    if b.min() < 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    return (targets + b * nn.one_hot(noisy_labels, num_classes)) / (1.0 + b)


def check_cache(cache: GuidanceCache, teacher_fingerprint: str, indices: np.ndarray,
                temperature, num_classes: int) -> None:
    """ConsistencyError unless `cache` holds the soft targets of the teacher
    with `teacher_fingerprint` on the noisy samples `indices` at
    `temperature` ([K] per slice for a stack), over `num_classes` classes."""
    if cache.teacher_fingerprint != teacher_fingerprint:
        raise ConsistencyError(
            f"guidance cache was built from teacher {cache.teacher_fingerprint[:12]}..., "
            f"not from the given teacher {teacher_fingerprint[:12]}..."
        )
    if not np.array_equal(cache.indices, indices):
        raise ConsistencyError("guidance cache does not hold the noisy samples of the data")
    if not np.array_equal(cache.temperature, temperature):
        raise ConsistencyError(
            f"cache temperature {cache.temperature} != configured {temperature}"
        )
    shape = (*np.shape(temperature), indices.shape[-1], num_classes)
    if cache.targets.shape != shape:
        raise ConsistencyError(f"cache targets shape {cache.targets.shape} != {shape}, "
                               f"the shape of the data's soft targets")


def student_backward(
    student: nn.ModelParams,
    noisy_batch: np.ndarray,
    targets: np.ndarray,
    clean_batch: np.ndarray,
    clean_targets: np.ndarray,
    *,
    alpha,
    temperature,
    out: tuple[nn.Gradients, nn.Gradients] | None = None,
) -> tuple[np.ndarray, np.ndarray, nn.Gradients]:
    """(q, p, gradients of L_total) for one paired batch.

    `targets` are the noisy batch's fused guidance targets
    (`guidance_targets`) and `clean_targets` the clean batch's one-hot
    labels. q is the student's noisy-batch softmax at the cache's
    temperature and p its clean-batch softmax, one forward pass each; the
    batch's losses are L_g = kl_div(targets, q), L_c = cross_entropy(p,
    clean_targets) and L_total = total_loss(L_g, L_c, alpha, temperature).
    With alpha == 0 the noisy branch stays out of the gradient sum, so
    training reproduces clean-only cross-entropy bit for bit. For a stacked
    `student`, alpha and temperature may be [K] per-slice values. `out`
    holds the noisy and the clean branch's gradient buffers; the sum is
    written into the first.
    """
    noisy_out, clean_out = (None, None) if out is None else out
    q, grads = nn.backward(student, noisy_batch, targets, temperature, alpha * temperature,
                           out=noisy_out)
    p, clean = nn.backward(student, clean_batch, clean_targets, out=clean_out)
    grads.flat += clean.flat
    if 0.0 in np.ravel(alpha).tolist():
        # alpha == 0 (the model, or those slices of a stack) keeps the clean
        # gradient bit for bit: adding the zero branch could turn -0.0 into +0.0
        alpha_zero = np.equal(alpha, 0.0)
        for total, branch in zip(grads.weights + grads.biases, clean.weights + clean.biases):
            total[alpha_zero] = branch[alpha_zero]
    return q, p, grads


def cache_dict(cache: GuidanceCache) -> dict:
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "temperature": cache.temperature,
        "teacher_fingerprint": cache.teacher_fingerprint,
        "targets": dict(zip(map(str, cache.indices.tolist()), cache.targets.tolist())),
    }


def save_cache(cache: GuidanceCache, path) -> None:
    """Write `cache_dict(cache)` atomically as compact, key-sorted JSON."""
    _write_atomic(path, _compact_json(cache_dict(cache)))
