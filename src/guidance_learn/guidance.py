"""Frozen-teacher soft targets, fusion with noisy labels, multi-task loss.

The teacher is run once over the noisy subset and its temperature-softened
predictions are cached. During student training each noisy sample is
supervised by the fusion g = (p + beta*y) / (1 + beta) of its cached soft
target p and its (possibly wrong) one-hot label y, via a KL objective
evaluated at the same temperature; clean samples get plain cross-entropy.

alpha, beta and T may each be one value or [K] per-slice values that train
a [K, ...] stack of students (see `nn`) in one pass; a cache built with [K]
temperatures holds [K, N, C] soft targets, and one built on per-slice data
(`data.Slices`) also holds each slice's own noisy indices [K, N].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import NOISY_TRAIN, Dataset, Slices
from .errors import ConsistencyError, InputError, ParameterError, ShapeError
from .serialize import _write_atomic, canonical_json

CACHE_FORMAT_VERSION = 1


@dataclass
class GuidanceCache:
    """Teacher soft targets of the noisy samples, plus provenance.

    Row k of `targets` [N, C] is the soft target of dataset sample
    `indices[k]`; `indices` [N] ascends. A cache for a stack holds one
    temperature per slice ([K]) and `targets` [K, N, C]; on per-slice data
    `indices` is [K, N], row k slice k's ascending indices.
    """

    indices: np.ndarray
    targets: np.ndarray
    temperature: float | np.ndarray
    teacher_fingerprint: str

    def __post_init__(self) -> None:
        # `guidance_targets` looks rows up in a table: entry i + _offset[k] is
        # the row of slice k's sample i in `targets` flattened over slices,
        # or -1 where slice k has no sample i
        keys = np.atleast_2d(self.indices)
        span = int(keys.max(initial=0)) + 1
        offsets = np.arange(len(keys))[:, None] * span
        self._offset = offsets if self.indices.ndim == 2 else 0
        self._table = np.full(len(keys) * span, -1)
        self._table[keys + offsets] = np.arange(keys.size).reshape(keys.shape)


def compute_teacher_soft_targets(
    teacher: nn.ModelParams, dataset: Dataset | Slices, temperature
) -> GuidanceCache:
    """softmax_t(forward(teacher, x_i), T) for every noisy-train sample, at
    one temperature or at each of [K] (one teacher forward pass either way).
    On per-slice data (see `data.Slices`) the teacher is a stack of one
    model per source, and slice k's targets are those of its source's
    teacher on its own noisy samples."""
    if not (nn._lowest(temperature) > 0):
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    temperature = np.asarray(temperature, dtype=np.float64)
    data = dataset if isinstance(dataset, Slices) else Slices(dataset)
    noisy_idx = data.indices(NOISY_TRAIN)
    if noisy_idx.size == 0:
        raise InputError("noisy subset is empty; nothing to cache")
    if data.features.shape[-1] != teacher.layer_dims[0]:
        raise ShapeError(
            f"teacher expects input dim {teacher.layer_dims[0]}, dataset has "
            f"{data.features.shape[-1]} features"
        )
    sources = data.per_source()
    logits = nn.forward(teacher, sources.rows(sources.features, sources.indices(NOISY_TRAIN)))
    probs = nn.softmax_t(logits if data.shared else logits[data.source], temperature)
    return GuidanceCache(
        indices=noisy_idx,
        targets=probs,
        temperature=temperature if temperature.ndim else float(temperature),
        teacher_fingerprint=nn.fingerprint(teacher),
    )


def total_loss(loss_guidance, loss_clean, alpha, temperature):
    """alpha * T^2 * L_g + L_c; T^2 offsets the softening's gradient shrink.
    Any argument may be [K] per-slice values."""
    if nn._lowest(alpha) < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    if not (nn._lowest(temperature) > 0):
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    return alpha * temperature**2 * loss_guidance + loss_clean


def guidance_targets(
    cache: GuidanceCache,
    indices: np.ndarray,
    noisy_labels: np.ndarray,
    beta,
    num_classes: int,
) -> np.ndarray:
    """Fused guidance matrix [B, C] for a noisy batch given by dataset indices;
    [K, B, C] for [K] betas or a stacked cache. A cache on per-slice data
    takes per-slice [K, B] indices and labels, row k looked up in slice k."""
    if nn._lowest(beta) < 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    indices = np.asarray(indices)
    rows = np.take(cache._table, indices + cache._offset, mode="clip")
    # a clipped or shifted query lands on another sample's row, or on none
    found = (rows >= 0) & (np.take(cache.indices, rows) == indices)
    targets = cache.targets
    if cache.indices.ndim == 2:
        targets = targets.reshape(-1, targets.shape[-1])
    if not found.all():
        raise ConsistencyError(
            "guidance cache has no entry for sample index "
            f"{int(np.broadcast_to(indices, found.shape)[~found][0])}"
        )
    y = nn.one_hot(np.asarray(noisy_labels), num_classes)
    beta = nn._per_slice(beta)
    return (targets[..., rows, :] + beta * y) / (1.0 + beta)


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
    if nn._lowest(alpha) == 0.0:
        # alpha == 0 (the model, or those slices of a stack) keeps the clean
        # gradient bit for bit: adding the zero branch could turn -0.0 into +0.0
        alpha_zero = np.asarray(alpha) == 0.0
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
    _write_atomic(path, canonical_json(cache_dict(cache)).encode("utf-8"))
