"""Frozen-teacher soft targets, fusion with noisy labels, multi-task loss.

The teacher is run once over the noisy subset and its temperature-softened
predictions are cached. During student training each noisy sample is
supervised by the fusion g = (p + beta*y) / (1 + beta) of its cached soft
target p and its (possibly wrong) one-hot label y, via a KL objective
evaluated at the same temperature; clean samples get plain cross-entropy.

alpha, beta and T may each be one value or [K] per-slice values that train
a [K, ...] stack of students (see `nn`) in one pass; a cache built with [K]
temperatures holds [K, N, C] soft targets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset, NOISY_TRAIN
from .errors import ConsistencyError, InputError, ParameterError, ShapeError
from .serialize import _write_atomic, canonical_json

CACHE_FORMAT_VERSION = 1


@dataclass
class GuidanceCache:
    """Teacher soft targets of the noisy samples, plus provenance.

    Row k of `targets` [N, C] is the soft target of dataset sample
    `indices[k]`; `indices` [N] ascends. A cache for a stack holds one
    temperature per slice ([K]) and `targets` [K, N, C].
    """

    indices: np.ndarray
    targets: np.ndarray
    temperature: float | np.ndarray
    teacher_fingerprint: str

    def __len__(self) -> int:
        return len(self.indices)


def compute_teacher_soft_targets(
    teacher: nn.ModelParams, dataset: Dataset, temperature
) -> GuidanceCache:
    """softmax_t(forward(teacher, x_i), T) for every noisy-train sample, at
    one temperature or at each of [K] (one teacher forward pass either way)."""
    if not (nn._lowest(temperature) > 0):
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    temperature = np.asarray(temperature, dtype=np.float64)
    noisy_idx = dataset.indices(NOISY_TRAIN)
    if noisy_idx.size == 0:
        raise InputError("noisy subset is empty; nothing to cache")
    if dataset.features.shape[1] != teacher.layer_dims[0]:
        raise ShapeError(
            f"teacher expects input dim {teacher.layer_dims[0]}, dataset has "
            f"{dataset.features.shape[1]} features"
        )
    probs = nn.softmax_t(nn.forward(teacher, dataset.features[noisy_idx]), temperature)
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
    [K, B, C] for [K] betas or a stacked cache."""
    if nn._lowest(beta) < 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    indices = np.asarray(indices)
    rows = np.searchsorted(cache.indices, indices)
    found = rows < len(cache)
    found[found] = cache.indices[rows[found]] == indices[found]
    if not found.all():
        raise ConsistencyError(
            f"guidance cache has no entry for sample index {int(indices[~found][0])}"
        )
    y = nn.one_hot(np.asarray(noisy_labels), num_classes)
    beta = nn._per_slice(beta)
    return (cache.targets[..., rows, :] + beta * y) / (1.0 + beta)


def student_batch_loss(
    student: nn.ModelParams,
    noisy_batch: np.ndarray,
    noisy_labels: np.ndarray,
    noisy_indices: np.ndarray,
    cache: GuidanceCache,
    clean_batch: np.ndarray,
    clean_labels: np.ndarray,
    *,
    alpha,
    beta,
    temperature,
) -> tuple[tuple, nn.Gradients]:
    """((L_total, L_g, L_c), gradients of L_total) for one paired batch.

    One forward pass per batch: the KL branch softens the student's own
    logits with the cache's temperature; the clean branch uses plain
    softmax. With alpha == 0 the noisy branch stays out of the gradient
    sum, so training reproduces clean-only cross-entropy bit for bit.
    For a stacked `student`, alpha, beta and temperature may be [K]
    per-slice values and each loss is [K].
    """
    if nn._is_number(temperature) and nn._is_number(cache.temperature):
        same_temperature = cache.temperature == temperature
    else:
        same_temperature = np.array_equal(cache.temperature, temperature)
    if not same_temperature:
        raise ConsistencyError(
            f"cache temperature {cache.temperature} != configured {temperature}"
        )
    C = student.num_classes
    g = guidance_targets(cache, noisy_indices, noisy_labels, beta, C)
    q, noisy_grads = nn.backward(student, noisy_batch, g, temperature, alpha * temperature)
    clean_targets = nn.one_hot(np.asarray(clean_labels), C)
    p, clean_grads = nn.backward(student, clean_batch, clean_targets)
    grads = nn.Gradients(
        weights=[a + b for a, b in zip(noisy_grads.weights, clean_grads.weights)],
        biases=[a + b for a, b in zip(noisy_grads.biases, clean_grads.biases)],
    )
    if nn._lowest(alpha) == 0.0:
        # alpha == 0 (the model, or those slices of a stack) keeps the clean
        # gradient bit for bit: adding the zero branch could turn -0.0 into +0.0
        alpha_zero = np.asarray(alpha) == 0.0
        for total, clean in zip(grads.weights + grads.biases,
                                clean_grads.weights + clean_grads.biases):
            total[alpha_zero] = clean[alpha_zero]
    loss_g = nn.kl_div(g, q)
    loss_c = nn.cross_entropy(p, clean_targets)
    return (total_loss(loss_g, loss_c, alpha, temperature), loss_g, loss_c), grads


def cache_dict(cache: GuidanceCache) -> dict:
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "temperature": cache.temperature,
        "teacher_fingerprint": cache.teacher_fingerprint,
        "targets": dict(zip(map(str, cache.indices.tolist()), cache.targets.tolist())),
    }


def save_cache(cache: GuidanceCache, path) -> None:
    _write_atomic(path, canonical_json(cache_dict(cache)).encode("utf-8"))
