"""`canonical_json` writes exactly the stdlib's indented, sorted JSON,
checkpoints and caches are the stdlib's compact, sorted JSON, written in
blocks, and `_write_atomic` replaces a file whole or not at all."""
import errno
import hashlib
import io
import json
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidance_learn import guidance, nn, serialize
from guidance_learn.serialize import _compact_pieces, canonical_json
from helpers import stack


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _compact_reference(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=np.ndarray.tolist) + "\n"


def _compact(doc) -> bytes:
    return b"".join(_compact_pieces(doc))


def test_canonical_json_equals_stdlib_reference():
    """Indent 2, sorted keys, ASCII escapes, floats as their repr, tuples as
    lists and numpy float scalars as floats: the text of
    `json.dumps(indent=2, sort_keys=True)`, written out."""
    doc = {"b": [-0.0, 1e-7, 1e16, 2.5e-308], "a": {"é": "☃\x00\"\\/\n", "z": [], "y": {}},
           "c": (True, None, 10**30, np.float64(0.25))}
    assert canonical_json(doc) == r"""{
  "a": {
    "y": {},
    "z": [],
    "\u00e9": "\u2603\u0000\"\\/\n"
  },
  "b": [
    -0.0,
    1e-07,
    1e+16,
    2.5e-308
  ],
  "c": [
    true,
    null,
    1000000000000000000000000000000,
    0.25
  ]
}
"""


def test_canonical_json_equals_stdlib_reference_on_edge_documents():
    docs = [({}, "{}\n"), ([], "[]\n"), ((), "[]\n"), ("", '""\n'),
            ([[], {}], "[\n  [],\n  {}\n]\n"),
            # int keys sort as numbers, then are written as strings
            ({10: "ten", 2: [1.0, 2]}, '{\n  "2": [\n    1.0,\n    2\n  ],\n  "10": "ten"\n}\n')]
    for doc, text in docs:
        assert canonical_json(doc) == text, doc


_NON_FINITE = [
    float("nan"), float("inf"), -float("inf"), [1.0, float("nan")], [float("-inf"), 2.0],
    {"a": [1, float("inf")]}, {"a": {"b": float("nan")}}, (0.5, float("inf")),
]
_WRITERS = {"": (canonical_json, _reference), "compact-": (_compact, _compact_reference)}


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


def _desk_cache(indices=np.arange(3562), classes=10):
    """A cache the size of a desk-scale job's, 3,562 x 10; its keys' string
    order ("10" < "2") is not their numeric order."""
    return guidance.GuidanceCache(
        indices=indices, targets=np.random.default_rng(3).dirichlet(np.ones(classes),
                                                                    len(indices)),
        temperature=2.5, teacher_fingerprint="f" * 64)


def test_checkpoints_and_caches_are_the_compact_stdlib_json_of_their_documents(tmp_path):
    """Small documents, and documents whose arrays span several blocks and
    end in a short one: a model whose weight rows are cut into blocks, one
    whose row is wider than a block, a stack as `fingerprint` encodes a
    sweep's teachers, and caches keyed out of numeric order."""
    block = serialize.BLOCK_NUMBERS
    for dims in ([5, 7, 4], [200, 300, 10], [20000, 1, 2]):
        params = nn.init_params(dims, seed=13)
        nn.save_checkpoint(params, tmp_path / "model.ckpt")
        expected = _compact_reference(nn.checkpoint_dict(params)).encode("utf-8")
        assert (tmp_path / "model.ckpt").read_bytes() == expected, dims
    assert params.weights[0].shape == (1, 20000) and 20000 > block
    models = stack([nn.init_params([100, 200, 4], seed=s) for s in range(3)])
    assert models.weights[0].size > block
    expected = _compact_reference(nn.checkpoint_dict(models)).encode("utf-8")
    assert nn.fingerprint(models) == hashlib.sha256(expected).hexdigest()
    caches = [guidance.GuidanceCache(
        indices=np.array([2, 5, 11]), targets=np.random.default_rng(3).dirichlet(np.ones(4), 3),
        temperature=2.5, teacher_fingerprint=nn.fingerprint(params)),
        _desk_cache(), _desk_cache(np.arange(5, 40000, 7), classes=3)]
    for cache in caches:
        guidance.save_cache(cache, tmp_path / "guidance_cache.bin")
        expected = _compact_reference(guidance.cache_dict(cache)).encode("utf-8")
        assert (tmp_path / "guidance_cache.bin").read_bytes() == expected
    pieces = list(_compact_pieces(guidance.cache_dict(caches[1])))
    assert len(pieces) > 3 and max(piece.count(b",") for piece in pieces) < block


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 0.1])
_ARRAYS = st.builds(
    lambda shape, values: np.resize(np.array(values, dtype=np.float64), shape),
    st.lists(st.integers(0, 5), min_size=1, max_size=3), st.lists(_FLOATS, min_size=1))
_DOCUMENTS = st.recursive(
    _ARRAYS | _FLOATS | st.integers() | st.text(max_size=4) | st.none() | st.booleans(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
        st.text(alphabet="0123456789a", max_size=3), inner, max_size=5),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS, block=st.integers(1, 12))
def test_compact_pieces_join_to_the_stdlib_text_at_any_block_size(doc, block):
    """Cut at any block size, arrays of any shape and nested documents join
    to the stdlib's text, block boundaries inside rows, between rows and
    between a container's items included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "BLOCK_NUMBERS", block)
        assert _compact(doc) == _compact_reference(doc).encode("utf-8")


@pytest.mark.parametrize("doc, text", [
    ({1: "int key"}, '{\n  "1": "int key"\n}\n'),
    ({2.5: "float key"}, '{\n  "2.5": "float key"\n}\n'),
    ({None: 0}, '{\n  "null": 0\n}\n'),
    ({False: 1}, '{\n  "false": 1\n}\n'),
    ([np.float64(0.25), np.float64(1e-7)], "[\n  0.25,\n  1e-07\n]\n"),
    ({"x": np.float64(3.0)}, '{\n  "x": 3.0\n}\n'),
    (OrderedDict(b=1, a=2), '{\n  "a": 2,\n  "b": 1\n}\n'),
], ids=[f"doc{i}" for i in range(7)])
def test_canonical_json_falls_back_to_stdlib_for_other_types(doc, text):
    """Non-string keys, numpy float scalars and ordered mappings are written
    as the stdlib writes them."""
    assert canonical_json(doc) == text


@pytest.mark.parametrize("doc", [{"a": object()}, {(1, 2): 0}, {"a": 1, 2: 0},
                                 [np.arange(3)]])
def test_canonical_json_raises_what_stdlib_raises(doc):
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
        serialize._write_atomic(target, [b"new contents ", b"that do not fit\n"])
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.ckpt"]


def test_atomic_write_replaces_and_names_the_target_on_error(tmp_path):
    target = tmp_path / "out.json"
    serialize._write_atomic(target, [b"one\n"])
    serialize._write_atomic(target, (piece for piece in [b"t", b"wo\n"]))
    assert target.read_bytes() == b"two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    missing = tmp_path / "no-such-dir" / "out.json"
    with pytest.raises(FileNotFoundError) as exc:
        serialize._write_atomic(missing, [b"x"])
    assert exc.value.filename == str(missing)


class _CountingFile(io.FileIO):
    written = 0

    def write(self, data):
        _CountingFile.written += len(data)
        return super().write(data)


def test_a_cache_that_fails_in_its_last_block_keeps_the_old_file(tmp_path, monkeypatch):
    """A non-finite target in the row written last fails after the other
    blocks (0.6 of the 0.78 MB) were written: the stdlib's ValueError, the
    old bytes kept and no temporary file left."""
    cache = _desk_cache()
    cache.targets[int(max(map(str, cache.indices.tolist())))] = np.nan
    target = tmp_path / "guidance_cache.bin"
    target.write_bytes(b"old contents\n")
    monkeypatch.setattr(serialize, "open", lambda path, mode: _CountingFile(path, "x"),
                        raising=False)
    monkeypatch.setattr(_CountingFile, "written", 0)
    with pytest.raises(ValueError, match="Out of range float values") as exc:
        guidance.save_cache(cache, target)
    assert type(exc.value) is ValueError
    assert _CountingFile.written > 600_000
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["guidance_cache.bin"]


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saving_a_desk_cache_holds_one_block_not_the_document(tmp_path):
    """A 3,562 x 10 cache (0.78 MB of text) is written block by block: the
    traced peak stays under 2.5 MiB; built as one document and one string
    it read 5.6 MiB."""
    cache = _desk_cache()
    peak = _traced_peak(lambda: guidance.save_cache(cache, tmp_path / "guidance_cache.bin"))
    assert peak < 2.5 * 2**20, peak


def test_fingerprint_holds_the_pieces_and_one_block():
    """Fingerprinting a [256, 256, 256, 10] model (2.6 MB of text) hashes
    its pieces as they are made, one block's floats and strings at a time,
    and keeps only the sha256: the traced peak stays under 6 MiB; encoded as
    one document and one string it read 10.1 MiB."""
    params = nn.init_params([256, 256, 256, 10], seed=13)
    peak = _traced_peak(lambda: nn.fingerprint(params))
    assert peak < 6 * 2**20, peak


def test_saving_a_model_streams_its_encoding_to_the_file_and_the_hash(tmp_path):
    """Saving a never-fingerprinted [256, 256, 256, 10] model writes and
    hashes its 2.6 MB of text one block at a time and keeps only the
    sha256: the traced peak stays under 2 MiB; collecting the pieces before
    writing them read 3.36 MiB."""
    params = nn.init_params([256, 256, 256, 10], seed=13)
    path = tmp_path / "model.ckpt"
    peak = _traced_peak(lambda: nn.save_checkpoint(params, path))
    assert peak < 2 * 2**20, peak
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert params._encoding[1:] == (digest, None)
    assert nn.save_checkpoint(params, tmp_path / "again.ckpt") == digest
