"""The JSON encoding of payload fields, read and written in one place.

Numbers are JSON integers or floats, never strings or booleans; a complex
value is exactly an [re, im] pair of finite numbers. Readers return the field
or raise InputError naming it (a missing key reads as null, which none takes).
Keys no reader asks for are ignored.
"""

from __future__ import annotations

import reprlib
from itertools import chain

import numpy as np

from .errors import InputError

_KINDS = {dict: "a JSON object", list: "a JSON list", bool: "true or false"}


def read_typed(value, kind: type, what: str):
    """`value` when it is a JSON object (dict), list or boolean (bool)."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def read_int(value, what: str) -> int:
    """A JSON integer; booleans are not integers here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return value


def read_complex(value, what: str) -> complex:
    """An [re, im] pair of finite numbers."""
    return complex(_read_pairs(value, 1, what)[()])


def read_matrix(rows, what: str) -> np.ndarray:
    """A list of rows of [re, im] pairs as a complex128 matrix."""
    return _read_pairs(rows, 3, what)


def _read_pairs(value, depth: int, what: str) -> np.ndarray:
    # float64 conversion also takes strings, booleans and null: check leaf types
    try:
        a = np.array(value, dtype=np.float64)
        ok = a.ndim == depth and a.shape[-1] == 2 and bool(np.isfinite(a).all())
    except (TypeError, ValueError, OverflowError):
        ok = False
    if ok:
        leaves = value if depth == 1 else chain.from_iterable(chain.from_iterable(value))
        ok = set(map(type, leaves)) <= {int, float}
    if not ok:
        form = "an [re, im] pair" if depth == 1 else "rows of [re, im] pairs"
        raise InputError(f"{what} must be {form} of finite numbers, "
                         f"got {reprlib.repr(value)}")
    return a.view(np.complex128)[..., 0]


def write_complex(c: complex) -> list:
    return [c.real, c.imag]


def write_matrix(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], -1).tolist()
