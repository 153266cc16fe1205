import struct

import numpy as np
import pytest

from guidance_learn import data
from guidance_learn.errors import (
    ConfigurationError,
    DataError,
    FormatError,
    ParameterError,
)
from guidance_learn.serialize import from_document, to_document


def test_csv_direct_parse(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,0\n3.25,-4.5,1\n")
    dataset = data.load_dataset(path, "csv")
    assert len(dataset) == 4
    assert dataset.features.shape == (4, 2)
    assert dataset.num_classes == 2
    assert (dataset.tags == data.NOISY_TRAIN).all()
    assert np.array_equal(dataset.labels, [0, 1, 0, 1])


def test_csv_roundtrip_is_value_identical(tmp_path):
    rng = np.random.default_rng(0)
    dataset = data.make_blobs(3, 7, 4, sigma=0.5, seed=2)
    path = tmp_path / "blob.csv"
    data.save_csv(dataset, path)
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.features, dataset.features)
    assert np.array_equal(loaded.labels, dataset.labels)
    assert np.array_equal(loaded.true_labels, dataset.true_labels)
    second = tmp_path / "blob2.csv"
    data.save_csv(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_csv_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\n2.0,oops\n")
    with pytest.raises(DataError, match="row 3"):
        data.load_csv(path)
    path.write_text("f0,label\n1.0,0\n2.0,9\n")
    with pytest.raises(DataError, match="row 3"):
        data.load_csv(path, num_classes=2)
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(FormatError, match="label"):
        data.load_csv(path)


def _write_idx_pair(tmp_path, n=10, rows=28, cols=28, image_magic=data.IDX_IMAGE_MAGIC,
                    label_magic=data.IDX_LABEL_MAGIC, n_labels=None):
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n if n_labels is None else n_labels, dtype=np.uint8)
    images_path = tmp_path / "t10k-images-idx3-ubyte"
    labels_path = tmp_path / "t10k-labels-idx1-ubyte"
    images_path.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", label_magic, labels.size) + labels.tobytes())
    return images_path, labels_path, pixels, labels


def test_idx_loading(tmp_path):
    images_path, labels_path, pixels, labels = _write_idx_pair(tmp_path)
    dataset = data.load_dataset(images_path, "idx")
    assert len(dataset) == 10
    assert dataset.features.shape == (10, 784)
    assert dataset.features.min() >= 0.0 and dataset.features.max() <= 1.0
    assert np.array_equal(dataset.features[0], pixels[0].reshape(-1) / 255.0)
    assert np.array_equal(dataset.labels, labels)


def test_idx_bad_magic_reports_offset(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path, image_magic=0x00000901)
    with pytest.raises(FormatError, match="byte offset 0"):
        data.load_idx(images_path, labels_path)


def test_idx_truncation_reports_offset(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path, n=2, rows=4, cols=4)
    raw = images_path.read_bytes()
    images_path.write_bytes(raw[:20])
    with pytest.raises(FormatError, match="truncated at byte offset 20"):
        data.load_idx(images_path, labels_path)


def test_idx_count_mismatch(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path, n=10, n_labels=9)
    with pytest.raises(FormatError, match="9 labels for 10 images"):
        data.load_idx(images_path, labels_path)


def test_idx_header_declaring_more_than_the_file_holds_is_truncation(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path, n=2, rows=4, cols=4)
    raw = images_path.read_bytes()
    # 2**32 - 1 images of 2**32 - 1 rows: the size is checked before any read
    images_path.write_bytes(raw[:4] + b"\xff" * 12 + raw[16:])
    with pytest.raises(FormatError, match="truncated at byte offset 48"):
        data.load_idx(images_path, labels_path)


def test_idx_without_images_is_format_error(tmp_path):
    images_path, labels_path, _, _ = _write_idx_pair(tmp_path, n=0)
    with pytest.raises(FormatError, match="no images"):
        data.load_idx(images_path, labels_path)


@pytest.mark.parametrize("content, error, message", [
    (b"f0,label\n\xff1.0,0\n", FormatError, "not UTF-8"),
    (b"f0,label\n1.0,0\n-inf,1\n", DataError, "row 3: feature 'f0' is -inf"),
    (b"label,f0,true_label\n0,1.0,0\n1,nan,1\n", DataError, "row 3: feature 'f0' is nan"),
    (b"f0,label\n1.0,0\n2.0,99999999999999999999\n", DataError, "row 3: label"),
], ids=["not-utf8", "inf", "nan", "label-overflow"])
def test_csv_bad_bytes_name_path_and_row(tmp_path, content, error, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(error, match=message) as exc:
        data.load_csv(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_dataset_rejects_non_finite_features():
    features = np.zeros((3, 2))
    features[2, 1] = np.nan
    with pytest.raises(DataError, match="non-finite feature at row 2"):
        data.Dataset(features=features, labels=np.array([0, 1, 0]),
                     tags=np.full(3, data.NOISY_TRAIN), num_classes=2)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ParameterError, match="format"):
        data.load_dataset(tmp_path / "x", "parquet")


def test_blobs_construction_and_balance():
    dataset = data.make_blobs(2, 5, 3, sigma=0.2, seed=0)
    assert len(dataset) == 10
    assert int((dataset.labels == 0).sum()) == 5
    assert int((dataset.labels == 1).sum()) == 5
    assert np.array_equal(dataset.labels, dataset.true_labels)


def test_blobs_nearest_centroid_oracle():
    dataset = data.make_blobs(4, 50, 5, sigma=0.01, seed=1)
    centroids = np.stack([
        dataset.features[dataset.labels == c].mean(axis=0) for c in range(4)
    ])
    dists = np.linalg.norm(dataset.features[:, None, :] - centroids[None], axis=-1)
    predictions = dists.argmin(axis=1)
    assert (predictions == dataset.labels).mean() >= 0.99


def test_blobs_deterministic():
    a = data.make_blobs(3, 10, 4, sigma=0.3, seed=7)
    b = data.make_blobs(3, 10, 4, sigma=0.3, seed=7)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_blobs_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        data.make_blobs(1, 5, 3, sigma=0.1, seed=0)
    with pytest.raises(ParameterError):
        data.make_blobs(3, 5, 1, sigma=0.1, seed=0)
    with pytest.raises(ParameterError):
        data.make_blobs(3, 5, 3, sigma=0.0, seed=0)


def test_inject_noise_rate_zero_is_noop():
    dataset = data.make_blobs(5, 40, 3, sigma=0.2, seed=3)
    out, mask = data.inject_noise(dataset, data.NoiseSpec("symmetric", 0.0, seed=1))
    assert np.array_equal(out.labels, dataset.labels)
    assert not mask.corrupted.any()


def test_symmetric_noise_empirical_rate():
    dataset = data.make_blobs(10, 1000, 2, sigma=0.2, seed=4)
    out, mask = data.inject_noise(dataset, data.NoiseSpec("symmetric", 0.4, seed=2))
    rate = mask.corrupted.mean()
    assert 0.39 <= rate <= 0.41
    assert np.array_equal(mask.corrupted, out.labels != out.true_labels)


def test_noise_rate_one_rejected():
    with pytest.raises(ParameterError):
        data.NoiseSpec("pair_flip", 1.0, seed=0)


def test_pair_flip_rate_and_mapping():
    dataset = data.make_blobs(2, 50_000, 2, sigma=0.2, seed=5)
    spec = data.NoiseSpec("pair_flip", 0.999, seed=3, pair_map={0: 1, 1: 0})
    out, mask = data.inject_noise(dataset, spec)
    rate = mask.corrupted.mean()
    assert abs(rate - 0.999) <= 0.005
    flipped = mask.corrupted
    assert np.array_equal(out.labels[flipped], 1 - out.true_labels[flipped])


def test_pair_map_fixed_point_rejected():
    with pytest.raises(ParameterError):
        data.NoiseSpec("pair_flip", 0.3, seed=0, pair_map={0: 0, 1: 0})


def test_noise_only_touches_noisy_train_samples():
    dataset = data.make_blobs(4, 100, 3, sigma=0.2, seed=6)
    dataset = data.split(dataset, clean_fraction=0.2, test_fraction=0.3, seed=6)
    out, mask = data.inject_noise(dataset, data.NoiseSpec("symmetric", 0.9, seed=4))
    untouched = out.tags != data.NOISY_TRAIN
    assert not mask.corrupted[untouched].any()
    assert np.array_equal(out.labels[untouched], dataset.labels[untouched])


def test_noise_realization_is_stable_under_resplit():
    base = data.make_blobs(4, 100, 3, sigma=0.2, seed=8)
    small = data.split(base, clean_fraction=0.05, test_fraction=0.2, seed=8)
    large = data.split(base, clean_fraction=0.2, test_fraction=0.2, seed=8)
    spec = data.NoiseSpec("symmetric", 0.5, seed=8)
    out_small, _ = data.inject_noise(small, spec)
    out_large, _ = data.inject_noise(large, spec)
    both = (small.tags == data.NOISY_TRAIN) & (large.tags == data.NOISY_TRAIN)
    assert np.array_equal(out_small.labels[both], out_large.labels[both])


def test_split_counts_and_stratification():
    dataset = data.make_blobs(2, 50, 3, sigma=0.2, seed=9)
    tagged = data.split(dataset, clean_fraction=0.1, test_fraction=0.2, seed=9)
    assert len(tagged) == 100
    assert int((tagged.tags == data.CLEAN_TRAIN).sum()) == 10
    assert int((tagged.tags == data.TEST).sum()) == 20
    assert int((tagged.tags == data.NOISY_TRAIN).sum()) == 70
    for c in (0, 1):
        cls = tagged.true_labels == c
        assert int((tagged.tags[cls] == data.CLEAN_TRAIN).sum()) == 5
        assert int((tagged.tags[cls] == data.TEST).sum()) == 10


def test_split_zero_clean_fraction():
    dataset = data.make_blobs(3, 20, 3, sigma=0.2, seed=10)
    tagged = data.split(dataset, clean_fraction=0.0, test_fraction=0.2, seed=10)
    assert int((tagged.tags == data.CLEAN_TRAIN).sum()) == 0


def test_split_deterministic():
    dataset = data.make_blobs(3, 30, 3, sigma=0.2, seed=11)
    a = data.split(dataset, 0.1, 0.2, seed=12)
    b = data.split(dataset, 0.1, 0.2, seed=12)
    assert np.array_equal(a.tags, b.tags)


def test_split_restores_true_labels_on_test():
    dataset = data.make_blobs(4, 50, 3, sigma=0.2, seed=13)
    noisy, _ = data.inject_noise(dataset, data.NoiseSpec("symmetric", 0.8, seed=13))
    tagged = data.split(noisy, clean_fraction=0.1, test_fraction=0.3, seed=13)
    test_idx = tagged.indices(data.TEST)
    assert np.array_equal(tagged.labels[test_idx], tagged.true_labels[test_idx])


def test_split_parameter_and_data_errors():
    dataset = data.make_blobs(2, 10, 3, sigma=0.2, seed=14)
    with pytest.raises(ParameterError):
        data.split(dataset, 0.6, 0.5, seed=0)
    with pytest.raises(ParameterError):
        data.split(dataset, -0.1, 0.2, seed=0)
    tiny = data.make_blobs(2, 3, 3, sigma=0.2, seed=15)
    with pytest.raises(DataError, match="class"):
        data.split(tiny, 0.1, 0.2, seed=0)


def _mixed_dataset(n_noisy, n_clean, seed=16):
    per_class = (n_noisy + n_clean) // 2
    dataset = data.make_blobs(2, per_class, 2, sigma=0.2, seed=seed)
    clean_fraction = n_clean / len(dataset)
    return data.split(dataset, clean_fraction, 0.0, seed=seed)


def test_mixed_iterator_step_count_and_short_batch():
    dataset = _mixed_dataset(100, 8)
    steps = list(data.mixed_batch_iterator(dataset, 32, seed=0, epoch=0))
    assert [len(s[0]) for s in steps] == [32, 32, 32, 4]
    assert all(len(s[1]) == 32 for s in steps)


def test_mixed_iterator_covers_noisy_exactly_once():
    dataset = _mixed_dataset(100, 8)
    steps = list(data.mixed_batch_iterator(dataset, 32, seed=1, epoch=0))
    seen = np.concatenate([s[0] for s in steps])
    assert sorted(seen.tolist()) == sorted(dataset.indices(data.NOISY_TRAIN).tolist())


def test_mixed_iterator_cycles_clean_uniformly():
    dataset = _mixed_dataset(40, 8)
    steps = list(data.mixed_batch_iterator(dataset, 4, seed=2, epoch=0))
    assert len(steps) == 10
    clean_seen = np.concatenate([s[1] for s in steps])
    counts = {int(i): int((clean_seen == i).sum())
              for i in dataset.indices(data.CLEAN_TRAIN)}
    assert all(v == 5 for v in counts.values())


def test_mixed_iterator_requires_both_subsets():
    dataset = data.make_blobs(2, 10, 2, sigma=0.2, seed=17)
    with pytest.raises(ConfigurationError):
        list(data.mixed_batch_iterator(dataset, 4, seed=0, epoch=0))


def test_manifest_roundtrip(tmp_path):
    dataset = data.make_blobs(3, 30, 3, sigma=0.2, seed=18)
    tagged = data.split(dataset, 0.1, 0.2, seed=18)
    spec = data.NoiseSpec("symmetric", 0.4, seed=18)
    noisy, mask = data.inject_noise(tagged, spec)
    path = tmp_path / "noise_manifest.json"
    data.save_noise_manifest(path, noisy, spec, mask)
    doc = data.load_noise_manifest(path)
    assert doc["seed"] == 18
    assert doc["spec"]["model"] == "symmetric"
    assert doc["spec"]["rate"] == 0.4
    assert doc["tags"] == noisy.tags.tolist()
    assert doc["flip_indices"] == np.where(mask.corrupted)[0].tolist()


def test_recipe_roundtrip_and_determinism():
    recipe = data.DataRecipe(classes=3, per_class=20, dim=4, sigma=0.2,
                             noise_model="symmetric", noise_rate=0.3)
    again = from_document(data.DataRecipe, to_document(recipe))
    assert again == recipe
    a, mask_a = recipe.build(5)
    b, mask_b = recipe.build(5)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(mask_a.corrupted, mask_b.corrupted)
