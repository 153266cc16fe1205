"""Canonical JSON helpers.

Every artifact this package writes (checkpoints, reports, caches,
manifests) goes through `canonical_json` so that rerunning a job with
the same seed produces byte-identical files.
"""
from __future__ import annotations

import json
from typing import Any

from .errors import FormatError


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
