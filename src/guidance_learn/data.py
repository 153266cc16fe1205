"""Datasets, label-noise injection, splitting, and the paired batch iterator.

A Dataset holds features, labels and a per-sample split tag. Synthetic
noise replaces the organically mislabeled web data the method was designed
for: labels of noisy-train samples are corrupted either symmetrically
(uniform wrong class) or by a fixed class->class pair map. The noise
realization for a sample depends only on (seed, sample index), so changing
the split does not reshuffle which samples get corrupted.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    FormatError,
    InputError,
    ParameterError,
)
from .serialize import read_json_object, write_canonical_json

CLEAN_TRAIN = "clean_train"
NOISY_TRAIN = "noisy_train"
TEST = "test"
VALID_TAGS = (CLEAN_TRAIN, NOISY_TRAIN, TEST)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

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


def save_csv(dataset: Dataset, path) -> None:
    """feature columns, then `label`, then `true_label` when known."""
    dim = dataset.features.shape[1]
    header = [f"f{j}" for j in range(dim)] + ["label"]
    if dataset.true_labels is not None:
        header.append("true_label")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(str(int(dataset.labels[i])))
            if dataset.true_labels is not None:
                row.append(str(int(dataset.true_labels[i])))
            writer.writerow(row)


def load_csv(path, num_classes: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
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
    labels_arr = np.asarray(labels, dtype=np.int64)
    C = num_classes if num_classes is not None else int(labels_arr.max()) + 1
    bad = np.where((labels_arr < 0) | (labels_arr >= C))[0]
    if bad.size:
        raise DataError(
            f"{path}: row {int(bad[0]) + 2}: label {int(labels_arr[bad[0]])} out of "
            f"range [0, {C})"
        )
    return Dataset(
        features=np.asarray(feats, dtype=np.float64),
        labels=labels_arr,
        tags=np.full(labels_arr.size, NOISY_TRAIN),
        num_classes=C,
        true_labels=np.asarray(trues, dtype=np.int64) if trues else None,
        provenance=f"csv({path})",
    )


def _read_exact(fh, count: int, path, offset: int) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(
            f"{path}: truncated at byte offset {offset + len(buf)}, "
            f"expected {count} more bytes"
        )
    return buf


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Big-endian IDX image/label pair (magics 0x00000803 / 0x00000801)."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, 0))
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        pixels = np.frombuffer(_read_exact(fh, n * rows * cols, images_path, 16),
                               dtype=np.uint8)
    with open(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path, 0))
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at byte offset 0, "
                f"expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        raw_labels = np.frombuffer(_read_exact(fh, n_labels, labels_path, 8),
                                   dtype=np.uint8)
    if n_labels != n:
        raise FormatError(
            f"{labels_path}: {n_labels} labels for {n} images in {images_path}"
        )
    labels = raw_labels.astype(np.int64)
    C = num_classes if num_classes is not None else int(labels.max()) + 1
    return Dataset(
        features=pixels.reshape(n, rows * cols).astype(np.float64) / 255.0,
        labels=labels,
        tags=np.full(n, NOISY_TRAIN),
        num_classes=C,
        provenance=f"idx({images_path})",
    )


def _derive_labels_path(images_path: str) -> str:
    derived = images_path.replace("images", "labels").replace("idx3", "idx1")
    if derived == images_path:
        raise ParameterError(
            f"cannot derive a labels path from {images_path!r}; pass labels_path"
        )
    return derived


def load_dataset(path, fmt: str, *, labels_path=None, num_classes: int | None = None) -> Dataset:
    if fmt == "csv":
        return load_csv(path, num_classes=num_classes)
    if fmt == "idx":
        if labels_path is None:
            labels_path = _derive_labels_path(str(path))
        return load_idx(path, labels_path, num_classes=num_classes)
    raise ParameterError(f"unknown dataset format {fmt!r}; expected 'idx' or 'csv'")


def noise_manifest_dict(dataset: Dataset, spec: NoiseSpec, mask: FlipMask) -> dict:
    return {
        "format_version": MANIFEST_FORMAT_VERSION,
        "seed": spec.seed,
        "spec": {
            "model": spec.model,
            "rate": spec.rate,
            "pair_map": None if spec.pair_map is None
            else {str(k): v for k, v in spec.pair_map.items()},
        },
        "tags": dataset.tags.tolist(),
        "flip_indices": np.where(mask.corrupted)[0].tolist(),
    }


def save_noise_manifest(path, dataset: Dataset, spec: NoiseSpec, mask: FlipMask) -> None:
    write_canonical_json(path, noise_manifest_dict(dataset, spec, mask))


def load_noise_manifest(path) -> dict:
    doc = read_json_object(path, "noise manifest")
    if doc.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported manifest format version {doc.get('format_version')!r}"
        )
    return doc


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
