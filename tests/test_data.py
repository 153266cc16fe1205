import json

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
    dataset = data.load_csv(path)
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
    path.write_text("f0,label\n1.0,0\n2.0,-1\n")
    with pytest.raises(DataError, match="row 3"):
        data.load_csv(path)
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(FormatError, match="label"):
        data.load_csv(path)


@pytest.mark.parametrize("content, error, message", [
    (b"f0,label\n\xff1.0,0\n", FormatError, "not UTF-8"),
    (b"f0,label\n1.0,0\n-inf,1\n", DataError, "row 3: feature 'f0' is -inf"),
    (b"label,f0,true_label\n0,1.0,0\n1,nan,1\n", DataError, "row 3: feature 'f0' is nan"),
    (b"f0,label\n1.0,0\n2.0,99999999999999999999\n", DataError, "row 3: label"),
    (b"f0,label\n1.0,0\n2.0,0\n", DataError, "need at least 2 classes, got 1"),
], ids=["not-utf8", "inf", "nan", "label-overflow", "one-class"])
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


def test_slice_orders_are_each_slices_batches_end_to_end():
    """Row k of an epoch's order, and of each of its mixed orders, is slice
    k's batch stream end to end, as rows of its source in the joined arrays."""
    first, second = _mixed_dataset(100, 8, seed=16), _mixed_dataset(100, 8, seed=19)
    datasets, seeds = (first, second, first), (1, 1, 2)
    slices = data.Slices(datasets, seeds)
    tags = (data.CLEAN_TRAIN, data.NOISY_TRAIN)
    order = slices.order(tags, 32, epoch=3)
    mixed = slices.mixed_orders(32, epoch=3)
    for k, (dataset, seed) in enumerate(zip(datasets, seeds)):
        start = slices.source[k] * len(dataset)
        idx = np.flatnonzero(np.isin(dataset.tags, tags))
        batches = data.batch_indices(idx, 32, seed, epoch=3)
        assert np.array_equal(order[k], np.concatenate(list(batches)) + start)
        pairs = data.mixed_batch_iterator(dataset, 32, seed, epoch=3)
        for joined, stream in zip(mixed, zip(*pairs), strict=True):
            assert np.array_equal(joined[k], np.concatenate(stream) + start)


def test_slices_list_their_sources_in_source_order():
    """A source is a distinct (dataset by identity, seed) pair; `sources`
    lists them in order of first appearance, numbered by `source`."""
    first, second = _mixed_dataset(100, 8, seed=16), _mixed_dataset(100, 8, seed=19)
    slices = data.Slices([first, first, second], [1, 2, 1])
    assert [(id(ds), seed) for ds, seed in slices.sources] == [
        (id(first), 1), (id(first), 2), (id(second), 1)]
    assert slices.source.tolist() == [0, 1, 2]
    shared = data.Slices([first, first], [1, 1])
    assert [(id(ds), seed) for ds, seed in shared.sources] == [(id(first), 1)]
    assert shared.source.tolist() == [0, 0]

def test_manifest_roundtrip(tmp_path):
    dataset = data.make_blobs(3, 30, 3, sigma=0.2, seed=18)
    tagged = data.split(dataset, 0.1, 0.2, seed=18)
    spec = data.NoiseSpec("symmetric", 0.4, seed=18)
    noisy, mask = data.inject_noise(tagged, spec)
    path = tmp_path / "noise_manifest.json"
    data.save_noise_manifest(path, noisy, spec, mask)
    doc = json.loads(path.read_text(encoding="utf-8"))
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
