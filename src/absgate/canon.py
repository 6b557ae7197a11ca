"""Canonical JSON serialization and content hashing.

Every hash in this package is SHA-256 over the canonical byte form produced
here. Canonical form is deliberately boring: UTF-8 JSON, object keys sorted,
compact separators, and no floats at all (fixed-point values are rendered as
strings upstream). Semantically equal values therefore always serialize to
identical bytes, on any machine, in any locale.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_dumps", "canonical_bytes", "sha256_hex", "canonical_hash"]


# Exact types that need no further look; subclasses (str-mixin enums, for
# instance) still take the isinstance branches below.
_PLAIN = frozenset((str, int, bool, type(None)))


def _check_tree(obj: Any) -> None:
    if type(obj) in _PLAIN:
        return
    # Binary floats round-trip unpredictably across platforms; upstream code
    # must render numerics as int or as fixed-point strings.
    if isinstance(obj, float):
        raise TypeError(f"float is not canonically serializable: {obj!r}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string map key: {key!r}")
            if type(value) not in _PLAIN:
                _check_tree(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            if type(item) not in _PLAIN:
                _check_tree(item)
    elif obj is not None and not isinstance(obj, (str, int, bool)):
        raise TypeError(f"not canonically serializable: {type(obj).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Render a JSON-able object to its canonical text form."""
    _check_tree(obj)
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def canonical_bytes(obj: Any) -> bytes:
    """Canonical UTF-8 encoding of ``obj``; input to every digest."""
    return canonical_dumps(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical byte form of ``obj``."""
    return sha256_hex(canonical_bytes(obj))
