"""The JSON encoding of payload fields, read and written in one place.

Numbers are JSON integers or floats, never strings or booleans; a complex
value is exactly an [re, im] pair of finite numbers. Readers return the field
or raise InputError naming it (a missing key reads as null, which none takes).
Keys no reader asks for are ignored.

A block operator payload as `build` writes it (compact, sorted keys) has its
own writer and reader, `write_operator_text` and `read_operator_text`. Each
block is a Toeplitz or Hankel matrix, so it holds few distinct numbers: they
format and parse each distinct one once, and give the same text and the
same float64 bits as json.dumps and json.loads through `write_matrix` and
`read_matrix`.
"""

from __future__ import annotations

import json
import reprlib
from itertools import chain

import numpy as np

from .errors import InputError

_KINDS = {dict: "a JSON object", list: "a JSON list", bool: "true or false"}

BLOCK_NAMES = ("That", "GammaCheck", "GammaHat", "TCheck")
_COMPACT = {"sort_keys": True, "separators": (",", ":")}
_BLOCKS = '"blocks":{'


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
    """A list of rows of [re, im] pairs as a complex128 matrix. A complex128
    matrix passes as it is: `read_operator_text` has read it already."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.complex128 and rows.ndim == 2:
        return rows
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


def write_operator_text(op) -> str:
    """json.dumps(op.to_json(), sort_keys=True, separators=(",", ":")) for a
    BlockOperator `op`, with its blocks formatted by _write_block_text."""
    document = op.to_json_with(_write_block_text)
    return _spliced(document, document.pop("blocks"))


def read_operator_text(text: str) -> dict | None:
    """The payload document of a text in write_operator_text's layout, its
    blocks as complex128 matrices. The four block texts are cut out and read
    by _read_block_text, the rest by json.loads. None for a text in any
    other layout, or with an entry read_matrix would reject: it is left to
    json.loads and the typed readers, which give the error message."""
    start = text.find(_BLOCKS)
    if start < 0:
        return None
    cut, blocks = start + len(_BLOCKS), {}
    for name in sorted(BLOCK_NAMES):
        key = f'"{name}":'
        end = text.find("]]]", cut) + 3
        if end < cut or not text.startswith(key, cut):
            return None
        blocks[name], cut = text[cut + len(key):end], end + 1
    head, tail = text[:start], text[cut:]
    try:
        rest = json.loads(head[:-1] + tail if head.endswith(",") else head + tail[1:])
        # the text must be exactly what write_operator_text gives for this
        # rest: that keeps the cut at the top level and rules out repeated or
        # escaped keys
        if not isinstance(rest, dict) or type(rest.get("M")) is not int \
                or rest["M"] < 0 or _spliced(rest, blocks) != text.rstrip(" \t\n\r"):
            return None
    except (ValueError, RecursionError):
        return None
    for name in BLOCK_NAMES:
        blocks[name] = _read_block_text(blocks[name], rest["M"] + 1)
        if blocks[name] is None:
            return None
    return {**rest, "blocks": blocks}


def _spliced(document: dict, blocks: dict) -> str:
    """The compact dump of `document` with a "blocks" object in place of its
    own, where `blocks` maps each name to its JSON text."""
    head = json.dumps({k: v for k, v in document.items() if k < "blocks"}, **_COMPACT)
    tail = json.dumps({k: v for k, v in document.items() if k > "blocks"}, **_COMPACT)
    section = _BLOCKS + ",".join(f'"{name}":{blocks[name]}'
                                 for name in sorted(blocks)) + "}"
    return "{" + ",".join(filter(None, (head[1:-1], section, tail[1:-1]))) + "}"


def _write_block_text(a: np.ndarray) -> str:
    """json.dumps(write_matrix(a), separators=(",", ":")), with one repr per
    distinct float64 bit pattern (so -0.0 keeps its sign) and one "[re,im]"
    per distinct pair of them."""
    bits = np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)
    floats, which = np.unique(bits, return_inverse=True)
    text = list(map(repr, floats.view(np.float64).tolist()))
    k = len(floats)
    which = which.reshape(-1, 2)
    codes, cell = np.unique(which[:, 0] * k + which[:, 1], return_inverse=True)
    cells = np.array([f"[{text[c // k]},{text[c % k]}]" for c in codes.tolist()],
                     dtype=object)
    rows = cells[cell.reshape(-1)].reshape(a.shape).tolist()
    return "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"


def _read_block_text(text: str, n: int) -> np.ndarray | None:
    """The n x n complex128 matrix of a block in _write_block_text's layout:
    n rows of n [re, im] pairs, no whitespace. Each distinct "re,im" token
    goes through json.loads once, or, when most tokens are distinct, all of
    them through one flat json.loads. None when the text is in any other
    layout or has an entry read_matrix would reject."""
    # the shortest such text has every number one digit long; checked
    # first so a large n allocates nothing
    if len(text) < 6 * n * n + 2 * n + 1 or not (
            text.startswith("[[[") and text.endswith("]]]")):
        return None
    rows = text[3:-3].split("]],[[")
    if len(rows) != n:
        return None
    cells = []
    for row in rows:
        row = row.split("],[")
        if len(row) != n:
            return None
        cells += row
    distinct = dict.fromkeys(cells)
    if 2 * len(distinct) > len(cells):
        values = _read_cells(cells)
    else:
        values = _read_cells(list(distinct))
        if values is not None:
            index = dict(zip(distinct, range(len(distinct))))
            values = values[np.fromiter(map(index.__getitem__, cells), np.intp,
                                        len(cells))]
    return None if values is None else values.reshape(n, n)


def _read_cells(cells: list) -> np.ndarray | None:
    # each "re,im" token holds one comma, so the flat list pairs up; a bracket
    # or quote in a token gives a list, string or JSON error, never a number
    text = ",".join(cells)
    if any(c.count(",") != 1 for c in cells) or any(w in text for w in " \t\n\r"):
        return None
    try:
        values = json.loads("[" + text + "]")
        a = np.array(values, dtype=np.float64)
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    if a.shape != (2 * len(cells),) or not np.isfinite(a).all() \
            or not set(map(type, values)) <= {int, float}:
        return None
    return a.view(np.complex128)
