"""Canonical JSON helpers and the dataclass <-> JSON document mapping.

Every artifact this package writes (checkpoints, reports, caches,
manifests) goes through `canonical_json` so that rerunning a job with
the same seed produces byte-identical files. Config dataclasses map to
and from flat JSON documents through `to_document`/`from_document`,
which derive the keys from the dataclass fields and check each value
against the field's type hint.
"""
from __future__ import annotations

import json
import math
import reprlib
import types
import typing
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from typing import Any

from .errors import ConfigurationError, FormatError


def canonical_json(obj: Any) -> str:
    """Serialize `obj` deterministically: sorted keys, fixed separators."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_canonical_json(path, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))


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

