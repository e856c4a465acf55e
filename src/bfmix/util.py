"""Small shared utilities: integer 3-vectors, deterministic RNG streams,
hashing, JSON canonicalization."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ValidationError

MASK64 = (1 << 64) - 1

IVec = tuple[int, int, int]


def _ivec(k) -> IVec:
    """Validate an integer 3-vector: three integral components, no bool;
    anything else (an infinity, NaN, a string, None) is a ValidationError."""
    try:
        parts = tuple(k)
        bad = len(parts) != 3 or any(isinstance(c, bool) or int(c) != c for c in parts)
    except (TypeError, ValueError, OverflowError):
        bad = True
    if bad:
        raise ValidationError(f"mode {k!r} is not an integer 3-vector")
    return (int(parts[0]), int(parts[1]), int(parts[2]))


def _is_number(x, kind=(int, float)) -> bool:
    """``x`` is a finite instance of ``kind``, not a JSON ``true``/``false``,
    not ``NaN`` or ``Infinity`` and not an integer beyond float range."""
    if not isinstance(x, kind) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int that no float can hold
        return False


def _norm2(k: IVec) -> int:
    return k[0] * k[0] + k[1] * k[1] + k[2] * k[2]


def _add(a: IVec, b: IVec) -> IVec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a: IVec, b: IVec) -> IVec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _neg(a: IVec) -> IVec:
    return (-a[0], -a[1], -a[2])


def rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based random generator keyed by (seed, index).

    Philox is counter-based, so streams for different (seed, index) pairs are
    independent and reproducible regardless of draw order or thread count.
    """
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def canonical_json(obj) -> str:
    """Serialize to JSON with sorted keys and stable float formatting.

    Floats go through Python's repr (the json default), which round-trips
    exactly; reruns with identical inputs produce identical bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def content_hash(obj) -> str:
    """Short stable hash of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]
