"""Canonical JSON helpers and the dataclass <-> JSON document mapping.

Every JSON artifact this package writes is the text of one `json.dumps`
call with sorted keys, so that rerunning a job with the same seed produces
byte-identical files: the documents people read (configs, reports, sweep
results, noise manifests) indented through `canonical_json`, the two array
payloads (checkpoints, guidance caches) compact through `_compact_pieces`,
which makes that text in pieces, numpy arrays in blocks of rows, so that
one block's Python floats and strings exist at a time. Every file it
writes goes through `_write_atomic`, so a crash mid-write leaves the old
file or none, never a truncated one. Config dataclasses map to
and from flat JSON documents through `to_document`/`from_document`,
which derive the keys from the dataclass fields and check each value
against the field's type hint.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import reprlib
import types
import typing
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np

from .errors import ConfigurationError, FormatError


def canonical_json(obj: Any) -> str:
    """The indented form of the documents people read: exactly
    `json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"`."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# numbers per `json.dumps` call of `_compact_pieces`: the encoder holds a
# string per number until it joins them, about 1 MiB a block. Saving a
# 3,562 x 10 cache peaked at 2.0 MiB with 2**13 numbers a call and 3.1 MiB
# with 2**14; 2**12 to 2**15 encoded within a few percent of each other
BLOCK_NUMBERS = 2**13


def _dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False, default=np.ndarray.tolist)


def _compact_pieces(obj: Any) -> Iterator[bytes]:
    """The compact form of the array payloads (checkpoints, caches) in pieces:
    joined, exactly `json.dumps(obj, sort_keys=True, separators=(",", ":"),
    allow_nan=False, default=np.ndarray.tolist) + "\\n"`, UTF-8 encoded. Each
    piece is a bracket, a comma, a key or the text of one `json.dumps` call
    of at most BLOCK_NUMBERS numbers: a run of an array's rows, a row's
    numbers, or a run of a container's small items. A non-finite number
    raises the stdlib's ValueError when its block is reached."""
    yield from _pieces(obj)
    yield b"\n"


def _pieces(obj: Any) -> Iterator[bytes]:
    if isinstance(obj, (dict, list, tuple)) or (isinstance(obj, np.ndarray)
                                                and obj.size > BLOCK_NUMBERS):
        brackets = b"{}" if isinstance(obj, dict) else b"[]"
        yield brackets[:1]
        for i, part in enumerate(_parts(obj)):
            if i:
                yield b","
            yield from part
        yield brackets[1:]
    else:
        yield _dumps(obj).encode()


def _inner(obj: Any) -> tuple[bytes]:
    """The text of container `obj` without its brackets, as one piece."""
    return (_dumps(obj)[1:-1].encode(),)


def _parts(obj: Any) -> Iterator[Iterable[bytes]]:
    """The pieces of each comma-separated part of container `obj`."""
    if isinstance(obj, np.ndarray):
        rows = BLOCK_NUMBERS // (obj.size // len(obj))
        if not rows:  # a row wider than a block is cut in blocks of its own
            yield from map(_pieces, obj)
        else:
            for start in range(0, len(obj), rows):
                yield _inner(obj[start:start + rows])
        return
    keyed = isinstance(obj, dict)
    group, numbers = [], 0
    for item in sorted(obj.items()) if keyed else obj:
        value = item[1] if keyed else item
        size = value.size if isinstance(value, np.ndarray) else 1
        large = isinstance(value, (dict, list, tuple)) or size > BLOCK_NUMBERS
        if group and (large or numbers + size > BLOCK_NUMBERS):
            yield _inner(dict(group) if keyed else group)
            group, numbers = [], 0
        if not large:
            group.append(item)
            numbers += size
        elif keyed:  # the key as the stdlib writes it, colon included
            yield itertools.chain((_dumps({item[0]: 0})[1:-2].encode(),), _pieces(value))
        else:
            yield _pieces(value)
    if group:
        yield _inner(dict(group) if keyed else group)


def write_canonical_json(path, obj: Any) -> None:
    _write_atomic(path, [canonical_json(obj).encode("utf-8")])


_tmp_names = itertools.count()


def _write_atomic(path, pieces: Iterable[bytes]) -> None:
    """Write the concatenation of `pieces` to `path` through a new file in the
    same directory that then replaces `path`, so `path` holds its old
    contents or the new ones, never a part. `pieces` may be a generator that
    makes each piece as it is written; if anything fails, the making of a
    piece included, the temporary file is closed and removed."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{next(_tmp_names)}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = path  # name the target, not the temporary file
        raise
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_json_text(path, what: str, object_pairs_hook=None) -> tuple[dict, str]:
    """The document of a UTF-8 JSON file that must hold an object (a `what`),
    and the text it was parsed from, read once; `object_pairs_hook` is
    `json.loads`'."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc}") from exc
    del data  # the parse holds the text and its document, not the bytes too
    try:
        doc = json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: a {what} must be a JSON object, got {type(doc).__name__}")
    return doc, text


def read_json_object(path, what: str) -> dict:
    """The document of a UTF-8 JSON file that must hold an object (a `what`)."""
    return read_json_text(path, what)[0]


def read_field(doc: Mapping[str, Any], key: str, hint: Any, path, what: str) -> Any:
    """`doc[key]` of a `what` file at `path` as type `hint` (see
    `from_document`); a missing or mistyped field is a FormatError naming
    the path and the field."""
    if key not in doc:
        raise FormatError(f"{path}: missing {what} field {key!r}")
    try:
        return _typed(doc[key], hint, key)
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {what} field {exc}") from None


def _keys(cls, keys: Mapping[str, str] | None) -> Mapping[str, str]:
    return keys if keys is not None else {f.name: f.name for f in fields(cls)}


def _plain(value: Any) -> Any:
    if is_dataclass(value):
        return to_document(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def to_document(obj: Any, keys: Mapping[str, str] | None = None) -> dict:
    """The JSON document of dataclass `obj`: the value of each field in `keys`
    (default: every field) under its `keys` name, with tuples as lists, dict
    keys as strings and nested dataclasses as documents."""
    return {key: _plain(getattr(obj, name)) for name, key in _keys(obj, keys).items()}


def from_document(cls, doc: Mapping[str, Any], keys: Mapping[str, str] | None = None):
    """Dataclass `cls` from the `keys` (field -> document key, default: every
    field under its own name) present in `doc`; absent fields keep their
    defaults. Each value must have the JSON type of its field's hint: a float
    field takes any finite number, an int field an integer, never a boolean.
    A wrong type is a ConfigurationError naming the key."""
    hints = typing.get_type_hints(cls)
    return cls(**{name: _typed(doc[key], hints[name], key)
                  for name, key in _keys(cls, keys).items() if key in doc})


def _typed(value: Any, hint: Any, key: str) -> Any:
    """`value` as the Python value of type `hint`, or a ConfigurationError."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _typed(value, hint, key)
    if hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if math.isfinite(number):
                return number
        expected = "a finite number"
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        expected = "an integer"
    elif hint is str:
        if isinstance(value, str):
            return value
        expected = "a string"
    elif origin is tuple:
        if isinstance(value, list):
            items = [args[0]] * len(value) if args[-1] is Ellipsis else args
            if len(value) == len(items):
                return tuple(_typed(v, h, f"{key}[{i}]")
                             for i, (v, h) in enumerate(zip(value, items)))
        expected = "a list" if args[-1] is Ellipsis else f"a list of {len(args)} items"
    elif origin is dict and args == (int, int):
        if isinstance(value, dict):
            return {_typed(int(k) if k.removeprefix("-").isdecimal() else k, int, f"{key} key"):
                    _typed(v, int, f"{key}[{k!r}]") for k, v in value.items()}
        expected = "an object"
    else:
        raise TypeError(f"{key}: no JSON document type for {hint!r}")
    raise ConfigurationError(f"{key}: expected {expected}, got {reprlib.repr(value)}")

