"""`canonical_json` writes exactly the stdlib's indented, sorted JSON,
checkpoints and caches are the stdlib's compact, sorted JSON, and
`_write_atomic` replaces a file whole or not at all."""
import errno
import io
import json
from collections import OrderedDict

import numpy as np
import pytest

from guidance_learn import guidance, nn, serialize
from guidance_learn.serialize import _compact_json, canonical_json


def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _compact_reference(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


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
