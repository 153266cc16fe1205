"""Datasets, label-noise injection, splitting, and the paired batch iterator.

A Dataset holds features, labels and a per-sample split tag. Synthetic
noise replaces the organically mislabeled web data the method was designed
for: labels of noisy-train samples are corrupted either symmetrically
(uniform wrong class) or by a fixed class->class pair map. The noise
realization for a sample depends only on (seed, sample index), so changing
the split does not reshuffle which samples get corrupted. `Slices` holds
the data of a stack of models (see `nn`), one dataset and batch stream per
slice.
"""
from __future__ import annotations

import copy
import csv
import io
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    FormatError,
    ParameterError,
    ShapeError,
)
from .serialize import _write_atomic, to_document, write_canonical_json

CLEAN_TRAIN = "clean_train"
NOISY_TRAIN = "noisy_train"
TEST = "test"
VALID_TAGS = (CLEAN_TRAIN, NOISY_TRAIN, TEST)

STREAM_BLOBS = 10
STREAM_SPLIT = 20
STREAM_NOISE = 30
STREAM_BATCH = 2
STREAM_MIXED_NOISY = 3
STREAM_MIXED_CLEAN = 4

MANIFEST_FORMAT_VERSION = 1


@dataclass
class Dataset:
    """Feature matrix plus labels, split tags and optional ground truth.

    Treated as immutable after construction; operations that change labels
    or tags return a new Dataset.
    """

    features: np.ndarray
    labels: np.ndarray
    tags: np.ndarray
    num_classes: int
    true_labels: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        if not np.isfinite(self.features).all():
            row = np.argmin(np.isfinite(self.features).all(axis=1))
            raise DataError(f"non-finite feature at row {row}")
        if self.labels.shape != (n,) or self.tags.shape != (n,):
            raise DataError("labels/tags length must match feature rows")
        if self.num_classes < 2:
            raise DataError(f"need at least 2 classes, got {self.num_classes}")
        bad = np.where((self.labels < 0) | (self.labels >= self.num_classes))[0]
        if bad.size:
            raise DataError(
                f"label {int(self.labels[bad[0]])} out of range [0, {self.num_classes}) "
                f"at row {int(bad[0])}"
            )
        if not np.isin(self.tags, VALID_TAGS).all():
            raise DataError("unknown split tag present")
        if self.true_labels is not None and self.true_labels.shape != (n,):
            raise DataError("true_labels length must match labels")

    def __len__(self) -> int:
        return self.features.shape[0]

    def indices(self, tag: str) -> np.ndarray:
        if tag not in VALID_TAGS:
            raise ParameterError(f"unknown split tag {tag!r}")
        return np.where(self.tags == tag)[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Synthetic corruption model applied to noisy-train labels."""

    model: str
    rate: float
    seed: int
    pair_map: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if self.model not in ("symmetric", "pair_flip"):
            raise ParameterError(f"unknown noise model {self.model!r}")
        if not (0.0 <= self.rate < 1.0):
            raise ParameterError(f"noise rate must be in [0, 1), got {self.rate}")
        if self.seed < 0:
            raise ParameterError(f"noise seed must be >= 0, got {self.seed}")
        if self.pair_map is not None:
            for src, dst in self.pair_map.items():
                if src == dst:
                    raise ParameterError(f"pair map must move class {src} to a different class")


@dataclass(frozen=True)
class FlipMask:
    """Which samples actually had their label corrupted."""

    corrupted: np.ndarray


def make_blobs(classes: int, per_class: int, dim: int, sigma: float, seed: int) -> Dataset:
    """Gaussian clusters around seeded centers rescaled to unit min separation."""
    if classes < 2:
        raise ParameterError(f"need at least 2 classes, got {classes}")
    if dim < 2:
        raise ParameterError(f"need at least 2 dimensions, got {dim}")
    if per_class < 1:
        raise ParameterError(f"per_class must be >= 1, got {per_class}")
    if not (sigma > 0):
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_BLOBS]))
    centers = rng.normal(size=(classes, dim))
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=-1)
    min_dist = dists[np.triu_indices(classes, k=1)].min()
    if min_dist == 0.0:
        raise DataError("degenerate seeded centers (coincident)")
    centers /= min_dist
    labels = np.repeat(np.arange(classes), per_class)
    features = centers[labels] + sigma * rng.normal(size=(labels.size, dim))
    return Dataset(
        features=features,
        labels=labels.copy(),
        tags=np.full(labels.size, NOISY_TRAIN),
        num_classes=classes,
        true_labels=labels.copy(),
        provenance=f"blobs(classes={classes}, per_class={per_class}, dim={dim}, "
                   f"sigma={sigma}, seed={seed})",
    )


def inject_noise(dataset: Dataset, spec: NoiseSpec) -> tuple[Dataset, FlipMask]:
    """Corrupt noisy-train labels per `spec`; returns the new dataset and mask.

    Per-sample randomness is drawn for the whole dataset up front and keyed
    by sample index, so the realization is stable under re-splitting.
    """
    n = len(dataset)
    C = dataset.num_classes
    true_labels = (dataset.true_labels if dataset.true_labels is not None
                   else dataset.labels).copy()
    labels = dataset.labels.copy()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, STREAM_NOISE]))
    u = rng.random(n)
    offsets = rng.integers(1, C, size=n)
    eligible = dataset.tags == NOISY_TRAIN
    flip = eligible & (u < spec.rate)
    if spec.model == "symmetric":
        labels[flip] = (labels[flip] + offsets[flip]) % C
    else:
        pair_map = spec.pair_map if spec.pair_map is not None else {c: (c + 1) % C for c in range(C)}
        for src, dst in pair_map.items():
            if not (0 <= src < C and 0 <= dst < C):
                raise ParameterError(f"pair map entry {src}->{dst} outside [0, {C})")
        mapped = labels.copy()
        for src, dst in pair_map.items():
            mapped[labels == src] = dst
        labels[flip] = mapped[flip]
    out = replace(dataset, labels=labels, true_labels=true_labels,
                  tags=dataset.tags.copy())
    return out, FlipMask(corrupted=labels != true_labels)


def split(dataset: Dataset, clean_fraction: float, test_fraction: float, seed: int) -> Dataset:
    """Assign clean_train/test/noisy_train tags, stratified per class.

    Within each class the seeded shuffle allocates test samples first, so
    the test set is identical across different clean fractions and clean
    sets are nested as the fraction grows. Test samples get their true
    labels back (the test set is verified by construction).
    """
    for name, frac in (("clean_fraction", clean_fraction), ("test_fraction", test_fraction)):
        if not (0.0 <= frac < 1.0):
            raise ParameterError(f"{name} must be in [0, 1), got {frac}")
    if clean_fraction + test_fraction >= 1.0:
        raise ParameterError(
            f"clean_fraction + test_fraction must be < 1, got "
            f"{clean_fraction + test_fraction}"
        )
    strat = dataset.true_labels if dataset.true_labels is not None else dataset.labels
    rng = np.random.default_rng(np.random.SeedSequence([seed, STREAM_SPLIT]))
    tags = np.full(len(dataset), NOISY_TRAIN)
    for c in range(dataset.num_classes):
        idx = np.where(strat == c)[0]
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        n_test = int(round(test_fraction * idx.size))
        n_clean = int(round(clean_fraction * idx.size))
        if (n_test + n_clean > idx.size
                or (test_fraction > 0 and n_test == 0)
                or (clean_fraction > 0 and n_clean == 0)):
            raise DataError(
                f"class {c} has {idx.size} samples, fewer than the requested "
                f"stratified split (clean_fraction={clean_fraction}, "
                f"test_fraction={test_fraction}) requires"
            )
        tags[idx[:n_test]] = TEST
        tags[idx[n_test:n_test + n_clean]] = CLEAN_TRAIN
    labels = dataset.labels.copy()
    if dataset.true_labels is not None:
        test_idx = tags == TEST
        labels[test_idx] = dataset.true_labels[test_idx]
    return replace(dataset, labels=labels, tags=tags,
                   true_labels=None if dataset.true_labels is None
                   else dataset.true_labels.copy())


def batch_indices(indices: np.ndarray, batch_size: int, seed: int, epoch: int,
                  stream: int = STREAM_BATCH):
    """One seeded shuffled pass over `indices`; the final short batch is kept."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if indices.size == 0:
        raise ConfigurationError("cannot iterate over an empty subset")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, stream]))
    perm = rng.permutation(indices)
    for start in range(0, perm.size, batch_size):
        yield perm[start:start + batch_size]


def mixed_batch_iterator(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Paired (noisy, clean) index batches for one multi-task epoch.

    An epoch is one shuffled pass over the noisy subset (short final batch
    kept). The much smaller clean subset is cycled to supply a full-size
    batch every step, reshuffling on each wrap.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    noisy = dataset.indices(NOISY_TRAIN)
    clean = dataset.indices(CLEAN_TRAIN)
    if noisy.size == 0 or clean.size == 0:
        raise ConfigurationError(
            "mixed iteration needs nonempty noisy and clean subsets; use a "
            "single-set iterator for baselines"
        )
    rng_noisy = np.random.default_rng(np.random.SeedSequence([seed, epoch, STREAM_MIXED_NOISY]))
    rng_clean = np.random.default_rng(np.random.SeedSequence([seed, epoch, STREAM_MIXED_CLEAN]))
    noisy_perm = rng_noisy.permutation(noisy)
    clean_perm = rng_clean.permutation(clean)
    cursor = 0
    for start in range(0, noisy_perm.size, batch_size):
        noisy_batch = noisy_perm[start:start + batch_size]
        picked: list[np.ndarray] = []
        need = batch_size
        while need > 0:
            take = min(need, clean_perm.size - cursor)
            picked.append(clean_perm[cursor:cursor + take])
            cursor += take
            need -= take
            if cursor >= clean_perm.size:
                clean_perm = rng_clean.permutation(clean)
                cursor = 0
        yield noisy_batch, np.concatenate(picked)


def layout(dataset: Dataset) -> tuple:
    """What the datasets of a stack's slices must share: the feature shape,
    the class count and the sample count of each split."""
    return (dataset.features.shape, dataset.num_classes,
            *(int((dataset.tags == tag).sum()) for tag in VALID_TAGS))


class Slices:
    """The data of the K slices of a stack: slice k trains on `datasets[k]`
    with the batch stream of `seeds[k]`; one dataset or one seed stands for
    all K.

    Slices with the same dataset (by identity) and seed share a source;
    `source[k]` numbers slice k's in order of first appearance, and each
    source's batches are drawn once. `features`, `labels` and `truth` hold
    the sources' arrays end to end, and indices name rows of them: sample i
    of source s is row s * N + i. Index batches are [K, B], row k from slice
    k's own stream, and `rows` gathers [K, B, ...]. One dataset with one int
    seed is data without a slice axis, for a single model: `source` is then
    a 0-d array, index batches are [B] and rows [B, ...], by the same code.
    All datasets must share one `layout`, so that the slices' batches align.
    """

    def __init__(self, datasets: Dataset | Sequence[Dataset], seeds: int | Sequence[int] = 0):
        one_seed = isinstance(seeds, (int, np.integer))
        axis = () if one_seed and isinstance(datasets, Dataset) else (-1,)
        datasets = [datasets] if isinstance(datasets, Dataset) else list(datasets)
        seeds = [seeds] if one_seed else list(seeds)
        if len(datasets) == 1:
            datasets = datasets * len(seeds)
        if len(seeds) == 1:
            seeds = seeds * len(datasets)
        if len(datasets) != len(seeds):
            raise ShapeError(f"{len(datasets)} datasets for {len(seeds)} seeds")
        keys = [(id(ds), seed) for ds, seed in zip(datasets, seeds)]
        sources = dict(zip(keys, zip(datasets, seeds)))
        order = {key: j for j, key in enumerate(sources)}
        self._sources = list(sources.values())
        self.source = np.array([order[key] for key in keys]).reshape(axis)
        self._starts = np.arange(len(self._sources))[:, None] * len(datasets[0])
        layouts = {layout(ds) for ds, _ in self._sources}
        if len(layouts) > 1:
            raise ShapeError(f"the datasets of a stack's slices must share their feature "
                             f"shape, class count and split sizes; got {sorted(layouts)}")
        self.num_sources = len(self._sources)
        self.num_classes = datasets[0].num_classes
        self.features = self._joined(lambda ds: ds.features)
        self.labels = self._joined(lambda ds: ds.labels)
        self.truth = self._joined(lambda ds: ds.labels if ds.true_labels is None
                                  else ds.true_labels)
        self._subsets: dict[tuple[str, ...], list[np.ndarray]] = {}

    def _joined(self, array_of) -> np.ndarray:
        """The sources' arrays end to end; one source's is not copied."""
        arrays = [array_of(ds) for ds, _ in self._sources]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def _sliced(self, per_source: Sequence[np.ndarray]) -> np.ndarray:
        """Row k: the sample indices of slice k's source, as rows of the
        joined arrays."""
        return (np.array(per_source) + self._starts)[self.source]

    def _subset(self, tags: tuple[str, ...]) -> list[np.ndarray]:
        """Per source, the ascending indices of its samples with any of `tags`."""
        if tags not in self._subsets:
            self._subsets[tags] = [np.where(np.isin(ds.tags, tags))[0]
                                   for ds, _ in self._sources]
        return self._subsets[tags]

    def _epoch(self, per_source: list[list[np.ndarray]]) -> list[np.ndarray]:
        """The sources' index batches of an epoch as views of one [K, n]
        array: row k of batch j is batch j of slice k's source."""
        joined = self._sliced([np.concatenate(batches) for batches in per_source])
        ends = itertools.accumulate(b.size for b in per_source[0])
        return [joined[..., end - b.size:end] for b, end in zip(per_source[0], ends)]

    def per_source(self) -> "Slices":
        """One slice per source, in `source` order, sharing these arrays."""
        view = copy.copy(self)
        view.source = np.arange(self.num_sources)
        return view

    def rows(self, array: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The rows `indices` of `features`, `labels` or `truth`."""
        return array.take(indices, axis=0)

    def indices(self, *tags: str) -> np.ndarray:
        """The rows of the samples with any of `tags`, ascending: [K, n] per
        slice, or [n] without a slice axis."""
        return self._sliced(self._subset(tags))

    def batches(self, tags: tuple[str, ...], batch_size: int, epoch: int) -> list[np.ndarray]:
        """`batch_indices` over the samples with `tags`, per source: the
        epoch's batches."""
        return self._epoch([list(batch_indices(idx, batch_size, seed, epoch))
                            for idx, (_, seed) in zip(self._subset(tags), self._sources)])

    def mixed_batches(self, batch_size: int, epoch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """`mixed_batch_iterator` pairs, per source: the epoch's pairs."""
        pairs = [list(zip(*mixed_batch_iterator(ds, batch_size, seed, epoch)))
                 for ds, seed in self._sources]
        return list(zip(*(self._epoch(stream) for stream in zip(*pairs))))


def save_csv(dataset: Dataset, path) -> None:
    """feature columns, then `label`, then `true_label` when known."""
    dim = dataset.features.shape[1]
    header = [f"f{j}" for j in range(dim)] + ["label"]
    if dataset.true_labels is not None:
        header.append("true_label")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for i in range(len(dataset)):
        row = [repr(float(v)) for v in dataset.features[i]]
        row.append(str(int(dataset.labels[i])))
        if dataset.true_labels is not None:
            row.append(str(int(dataset.true_labels[i])))
        writer.writerow(row)
    _write_atomic(path, text.getvalue().encode("utf-8"))


def load_csv(path, num_classes: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a header row") from None
        if "label" not in header:
            raise FormatError(f"{path}: header has no `label` column: {header}")
        label_col = header.index("label")
        true_col = header.index("true_label") if "true_label" in header else None
        feat_cols = [j for j in range(len(header)) if j not in (label_col, true_col)]
        feats, labels, trues = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}"
                )
            try:
                feats.append([float(row[j]) for j in feat_cols])
                labels.append(int(row[label_col]))
                if true_col is not None:
                    trues.append(int(row[true_col]))
            except ValueError as exc:
                raise DataError(f"{path}: row {rownum}: {exc}") from exc
    if not labels:
        raise FormatError(f"{path}: no data rows")
    labels_arr = _int64_column(labels, "label", path)
    C = num_classes if num_classes is not None else int(labels_arr.max()) + 1
    bad = np.where((labels_arr < 0) | (labels_arr >= C))[0]
    if bad.size:
        raise DataError(
            f"{path}: row {int(bad[0]) + 2}: label {int(labels_arr[bad[0]])} out of "
            f"range [0, {C})"
        )
    features = np.asarray(feats, dtype=np.float64)
    finite = np.isfinite(features)
    if not finite.all():
        row, col = map(int, np.argwhere(~finite)[0])
        raise DataError(f"{path}: row {row + 2}: feature {header[feat_cols[col]]!r} "
                        f"is {float(features[row, col])!r}, not a finite number")
    return Dataset(
        features=features,
        labels=labels_arr,
        tags=np.full(labels_arr.size, NOISY_TRAIN),
        num_classes=C,
        true_labels=_int64_column(trues, "true_label", path) if trues else None,
        provenance=f"csv({path})",
    )


def _int64_column(values: list[int], name: str, path) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        row = next(i for i, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise DataError(f"{path}: row {row + 2}: {name} {values[row]} out of range") from None


def _csv_records(fh, path):
    """The CSV records of text file `fh`; text that is not UTF-8 or not CSV
    is a FormatError naming `path`."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}: not a CSV file: {exc}") from exc


def noise_manifest_dict(dataset: Dataset, spec: NoiseSpec, mask: FlipMask) -> dict:
    spec_doc = to_document(spec)
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "seed": spec_doc.pop("seed"),
        "spec": spec_doc,
        "tags": dataset.tags.tolist(),
        "flip_indices": np.where(mask.corrupted)[0].tolist(),
    }


def save_noise_manifest(path, dataset: Dataset, spec: NoiseSpec, mask: FlipMask) -> None:
    write_canonical_json(path, noise_manifest_dict(dataset, spec, mask))


@dataclass(frozen=True)
class DataRecipe:
    """Everything needed to regenerate a dataset deterministically from a seed."""

    kind: str = "blobs"
    classes: int = 10
    per_class: int = 500
    dim: int = 20
    sigma: float = 0.1
    csv_path: str | None = None
    clean_fraction: float = 0.05
    test_fraction: float = 0.2
    noise_model: str = "none"
    noise_rate: float = 0.0
    pair_map: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("blobs", "csv"):
            raise ParameterError(f"unknown recipe kind {self.kind!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ParameterError("csv recipe needs csv_path")
        if self.noise_model not in ("none", "symmetric", "pair_flip"):
            raise ParameterError(f"unknown noise model {self.noise_model!r}")

    def build(self, seed: int) -> tuple[Dataset, FlipMask | None]:
        if self.kind == "blobs":
            dataset = make_blobs(self.classes, self.per_class, self.dim, self.sigma, seed)
        else:
            dataset = load_csv(self.csv_path)
        dataset = split(dataset, self.clean_fraction, self.test_fraction, seed)
        if self.noise_model == "none":
            return dataset, None
        spec = NoiseSpec(model=self.noise_model, rate=self.noise_rate, seed=seed,
                         pair_map=self.pair_map)
        return inject_noise(dataset, spec)
