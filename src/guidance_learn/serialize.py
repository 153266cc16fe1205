"""Canonical JSON helpers and the dataclass <-> JSON document mapping.

Every artifact this package writes (checkpoints, reports, caches,
manifests) goes through `canonical_json` so that rerunning a job with
the same seed produces byte-identical files, and every file it writes goes
through `_write_atomic`, so a crash mid-write leaves the old file or none,
never a truncated one. Config dataclasses map to
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
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from typing import Any

from .errors import ConfigurationError, FormatError


def canonical_json(obj: Any) -> str:
    """Serialize `obj` deterministically: exactly
    `json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"`.

    Documents of string keys and str/int/float/bool/None/list/tuple/dict
    values take a fast path that writes a list of floats with one join (the
    stdlib drops to its pure-Python encoder once `indent` is set); any other
    key or value type, and NaN or an infinity (a ValueError), is left to
    `json.dumps`.
    """
    chunks: list[str] = []
    try:
        _encode(obj, "\n", chunks)
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    chunks.append("\n")
    return "".join(chunks)


class _Unsupported(Exception):
    """A value outside `canonical_json`'s fast path."""


_encode_str = json.encoder.encode_basestring_ascii


def _encode(value: Any, newline: str, out: list[str]) -> None:
    """Append the chunks of `value` nested at `newline` (a newline plus the
    current indent) to `out`, as the stdlib's indented encoder writes it."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is float:
        text = float.__repr__(value)
        if "n" in text:  # nan, inf or -inf; a finite float's repr has no "n"
            raise _Unsupported
        out.append(text)
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            floats = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # not all floats (bool and int are not)
            out.append("[" + inner)
            for i, item in enumerate(value):
                if i:
                    out.append("," + inner)
                _encode(item, inner, out)
        else:
            if "n" in floats:
                raise _Unsupported
            out.append("[" + inner + floats)
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if not all(type(key) is str for key in value):
            raise _Unsupported
        inner = newline + "  "
        out.append("{" + inner)
        for i, key in enumerate(sorted(value)):
            if i:
                out.append("," + inner)
            out.append(_encode_str(key) + ": ")
            _encode(value[key], inner, out)
        out.append(newline + "}")
    else:
        raise _Unsupported


def write_canonical_json(path, obj: Any) -> None:
    _write_atomic(path, canonical_json(obj).encode("utf-8"))


_tmp_names = itertools.count()


def _write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` through a new file in the same directory that
    then replaces `path`, so `path` holds its old contents or the new ones,
    never a part; the temporary file is removed if anything fails."""
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
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_json_object(path, what: str) -> dict:
    """Parse a JSON file whose document must be an object (a `what`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: a {what} must be a JSON object, got {type(doc).__name__}")
    return doc


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

