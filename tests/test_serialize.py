"""`canonical_json` writes exactly the stdlib's indented, sorted JSON,
checkpoints and caches are the stdlib's compact, sorted JSON, and
`_write_atomic` replaces a file whole or not at all."""
import errno
import io
import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidance_learn import guidance, nn, serialize
from guidance_learn.serialize import _compact_json, canonical_json


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _compact_reference(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 1e-320, 5e-324, 1.7976931348623157e308]))
_SCALARS = (st.none() | st.booleans() | _FLOATS | st.text()
            | st.integers() | st.integers(min_value=2**63, max_value=10**40).map(lambda n: -n))
_DOCS = st.recursive(
    _SCALARS | st.lists(_FLOATS, max_size=8),
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_canonical_json_equals_stdlib_reference(doc):
    assert canonical_json(doc) == _reference(doc)


def test_canonical_json_equals_stdlib_reference_on_edge_documents():
    docs = [
        {}, [], (), "", {"": [[]]}, [{}], [[], {}],
        {"é": "☃\U0001f600\x00\"\\/\n", "b": [1, 2.0, True, None], "a": (0.1, -0.0)},
        [1e-7, 1e16, -0.0, 2.5e-308], [1.0, 2], [True, 1.0], [10**30, -(10**30)],
        {"w": [[0.5, -1.25], [3.0, 1e22]], "k": {"z": [], "y": {}}},
    ]
    for doc in docs:
        assert canonical_json(doc) == _reference(doc), doc


_NON_FINITE = [
    float("nan"), float("inf"), -float("inf"), [1.0, float("nan")], [float("-inf"), 2.0],
    {"a": [1, float("inf")]}, {"a": {"b": float("nan")}}, (0.5, float("inf")),
]
_WRITERS = {"": (canonical_json, _reference), "compact-": (_compact_json, _compact_reference)}


@pytest.mark.parametrize("writer, reference, bad", [
    pytest.param(writer, reference, bad,
                 id=prefix + (repr(bad) if isinstance(bad, float) else f"bad{i}"))
    for prefix, (writer, reference) in _WRITERS.items() for i, bad in enumerate(_NON_FINITE)
])
def test_canonical_json_rejects_non_finite_floats_like_stdlib(writer, reference, bad):
    with pytest.raises(ValueError) as ours:
        writer(bad)
    with pytest.raises(ValueError) as stdlib:
        reference(bad)
    assert str(ours.value) == str(stdlib.value)


def test_checkpoints_and_caches_are_the_compact_stdlib_json_of_their_documents(tmp_path):
    params = nn.init_params([5, 7, 4], seed=13)
    nn.save_checkpoint(params, tmp_path / "model.ckpt")
    expected = _compact_reference(nn.checkpoint_dict(params)).encode("utf-8")
    assert (tmp_path / "model.ckpt").read_bytes() == expected
    cache = guidance.GuidanceCache(
        indices=np.array([2, 5, 11]), targets=np.random.default_rng(3).dirichlet(np.ones(4), 3),
        temperature=2.5, teacher_fingerprint=nn.fingerprint(params))
    guidance.save_cache(cache, tmp_path / "guidance_cache.bin")
    expected = _compact_reference(guidance.cache_dict(cache)).encode("utf-8")
    assert (tmp_path / "guidance_cache.bin").read_bytes() == expected


@pytest.mark.parametrize("doc", [
    {1: "int key"}, {2.5: "float key"}, {None: 0}, {False: 1},
    [np.float64(0.25), np.float64(1e-7)], {"x": np.float64(3.0)}, OrderedDict(b=1, a=2),
])
def test_canonical_json_falls_back_to_stdlib_for_other_types(doc):
    assert canonical_json(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [{"a": object()}, {(1, 2): 0}, {"a": 1, 2: 0},
                                 [np.arange(3)]])
def test_canonical_json_raises_what_stdlib_raises(doc):
    with pytest.raises(TypeError):
        _reference(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)


class _FullDisk(io.FileIO):
    """A file whose write stores half the data, then fails."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_atomic_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "artifact.ckpt"
    target.write_bytes(b"old contents\n")
    monkeypatch.setattr(serialize, "open", lambda path, mode: _FullDisk(path, "x"),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        serialize._write_atomic(target, b"new contents that do not fit\n")
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.ckpt"]


def test_atomic_write_replaces_and_names_the_target_on_error(tmp_path):
    target = tmp_path / "out.json"
    serialize._write_atomic(target, b"one\n")
    serialize._write_atomic(target, b"two\n")
    assert target.read_bytes() == b"two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    missing = tmp_path / "no-such-dir" / "out.json"
    with pytest.raises(FileNotFoundError) as exc:
        serialize._write_atomic(missing, b"x")
    assert exc.value.filename == str(missing)
