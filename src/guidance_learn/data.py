"""Datasets, label-noise injection, splitting, and the paired batch iterator.

A Dataset holds features, labels and a per-sample split tag. Synthetic
noise replaces the organically mislabeled web data the method was designed
for: labels of noisy-train samples are corrupted either symmetrically
(uniform wrong class) or by a fixed class->class pair map. The noise
realization for a sample depends only on (seed, sample index), so changing
the split does not reshuffle which samples get corrupted. `Slices` holds
the data of a stack of models (see `nn`), one dataset and batch stream per
slice, and runs a model over its rows in bounded row blocks.
"""
from __future__ import annotations

import copy
import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import nn
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

# `Slices.logits` forwards at most this many activation entries per slice at a
# time: 2 MiB of float64, so 1,024 rows at width 256 and 4,096 at width 64.
FORWARD_BLOCK_ENTRIES = 2**18


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
    """Gaussian clusters around seeded centers rescaled to unit min separation.

    The features are built in place, so the [classes * per_class, dim] draw
    is the one array of that size the build holds.
    """
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
    features = rng.normal(size=(labels.size, dim))
    features *= sigma
    blobs = features.reshape(classes, per_class, dim)  # a view: class c's rows are blobs[c]
    blobs += centers[:, None, :]
    return Dataset(
        features=features,
        labels=labels.copy(),
        tags=np.full(labels.size, NOISY_TRAIN),
        num_classes=classes,
        true_labels=labels.copy(),
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
    DataRecipe(clean_fraction=clean_fraction, test_fraction=test_fraction)  # checks them
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


def batch_indices(indices: np.ndarray, batch_size: int, seed: int, epoch: int):
    """One seeded shuffled pass over `indices`; the final short batch is kept."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if indices.size == 0:
        raise ConfigurationError("cannot iterate over an empty subset")
    rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, STREAM_BATCH]))
    perm = rng.permutation(indices)
    for start in range(0, perm.size, batch_size):
        yield perm[start:start + batch_size]


def mixed_batch_iterator(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Paired (noisy, clean) index batches for one multi-task epoch.

    An epoch is one shuffled pass over the noisy subset (short final batch
    kept). The much smaller clean subset supplies a full-size batch every
    step: its stream is as many shuffled passes as the steps need, end to
    end, cut at the noisy pass's offsets.
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
    rows = -(-noisy.size // batch_size) * batch_size
    clean_stream = np.concatenate([rng_clean.permutation(clean)
                                   for _ in range(-(-rows // clean.size))])
    for start in range(0, noisy_perm.size, batch_size):
        yield noisy_perm[start:start + batch_size], clean_stream[start:start + batch_size]


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
    `sources` lists the (dataset, seed) pairs in order of first appearance,
    `source[k]` is slice k's number in it, and each source's batches are
    drawn once. `features`, `labels` and `truth` hold the sources' arrays
    end to end, and indices name rows of them: sample i of source s is row
    s * N + i. An epoch's index order is [K, n], row k slice k's own batch
    stream end to end, so that batch j is a column range; `rows` gathers
    [K, n, ...]. One dataset with one int seed is data without a slice
    axis, for a single model: `source` is then a 0-d array, orders are [n]
    and rows [n, ...], by the same code. All datasets must share one
    `layout`, so that the slices' batches align.
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
        self.sources = list(sources.values())
        self.source = np.array([order[key] for key in keys]).reshape(axis)
        self._starts = np.arange(len(self.sources))[:, None] * len(datasets[0])
        layouts = {layout(ds) for ds, _ in self.sources}
        if len(layouts) > 1:
            raise ShapeError(f"the datasets of a stack's slices must share their feature "
                             f"shape, class count and split sizes; got {sorted(layouts)}")
        self.num_classes = datasets[0].num_classes
        self.features = self._joined(lambda ds: ds.features)
        self.labels = self._joined(lambda ds: ds.labels)
        self.truth = self._joined(lambda ds: ds.labels if ds.true_labels is None
                                  else ds.true_labels)
        self._subsets: dict[tuple[str, ...], list[np.ndarray]] = {}

    def _joined(self, array_of) -> np.ndarray:
        """The sources' arrays end to end; one source's is not copied."""
        arrays = [array_of(ds) for ds, _ in self.sources]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def _sliced(self, per_source: Sequence[np.ndarray]) -> np.ndarray:
        """Row k: the sample indices of slice k's source, as rows of the
        joined arrays."""
        return (np.array(per_source) + self._starts)[self.source]

    def _subset(self, tags: tuple[str, ...]) -> list[np.ndarray]:
        """Per source, the ascending indices of its samples with any of `tags`."""
        if tags not in self._subsets:
            self._subsets[tags] = [np.where(np.isin(ds.tags, tags))[0]
                                   for ds, _ in self.sources]
        return self._subsets[tags]

    def per_source(self) -> "Slices":
        """One slice per source, in `source` order, sharing these arrays."""
        view = copy.copy(self)
        view.source = np.arange(len(self.sources))
        return view

    def rows(self, array: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The rows `indices` of `features`, `labels` or `truth`."""
        return array.take(indices, axis=0)

    def logits(self, params: nn.ModelParams, indices: np.ndarray) -> np.ndarray:
        """`nn.forward(params, self.rows(self.features, indices))` in row
        blocks: the index columns are cut by `np.array_split` into the fewest
        even blocks of at most FORWARD_BLOCK_ENTRIES // widest layer rows per
        slice, and the blocks' logits are joined along the row axis. So a
        pass over a whole split holds one block's activations, not the
        split's. Each row goes through the same operations; on OpenBLAS,
        blocks of 256 rows or more give the bits of one pass over all rows
        (smaller ones may not)."""
        rows = max(1, FORWARD_BLOCK_ENTRIES // max(params.layer_dims))
        blocks = max(1, -(-indices.shape[-1] // rows))
        return np.concatenate([nn.forward(params, self.rows(self.features, part))
                               for part in np.array_split(indices, blocks, axis=-1)], axis=-2)

    def indices(self, *tags: str) -> np.ndarray:
        """The rows of the samples with any of `tags`, ascending: [K, n] per
        slice, or [n] without a slice axis."""
        return self._sliced(self._subset(tags))

    def order(self, tags: tuple[str, ...], batch_size: int, epoch: int) -> np.ndarray:
        """The epoch's `batch_indices` over the samples with `tags`, per
        source, end to end: batch j is columns [j * B, (j + 1) * B)."""
        return self._sliced([np.concatenate(list(batch_indices(idx, batch_size, seed, epoch)))
                             for idx, (_, seed) in zip(self._subset(tags), self.sources)])

    def mixed_orders(self, batch_size: int, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """The epoch's `mixed_batch_iterator` (noisy, clean) streams, per
        source, end to end: pair j is columns [j * B, (j + 1) * B) of both."""
        pairs = [zip(*mixed_batch_iterator(ds, batch_size, seed, epoch))
                 for ds, seed in self.sources]
        return tuple(self._sliced([np.concatenate(stream) for stream in streams])
                     for streams in zip(*pairs))


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
    _write_atomic(path, [text.getvalue().encode("utf-8")])


def load_csv(path) -> Dataset:
    """The all-noisy_train dataset of a CSV as `save_csv` writes it, with the
    largest label + 1 classes; a bad row is an error naming `path` and row."""
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
    negative = np.flatnonzero(labels_arr < 0)
    if negative.size:
        row = int(negative[0])
        raise DataError(f"{path}: row {row + 2}: label {int(labels_arr[row])} is negative")
    if labels_arr.max() == 0:
        raise DataError(f"{path}: need at least 2 classes, got 1")
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
        num_classes=int(labels_arr.max()) + 1,
        true_labels=_int64_column(trues, "true_label", path) if trues else None,
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
    """Everything needed to regenerate a dataset deterministically from a
    seed; split fractions or a noise spec out of range are a ParameterError."""

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
        for name in ("clean_fraction", "test_fraction"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ParameterError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.clean_fraction + self.test_fraction >= 1.0:
            raise ParameterError(f"clean_fraction + test_fraction must be < 1, got "
                                 f"{self.clean_fraction + self.test_fraction}")
        if self.noise_model != "none":
            NoiseSpec(self.noise_model, self.noise_rate, 0, self.pair_map)

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
