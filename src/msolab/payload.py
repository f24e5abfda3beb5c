"""The JSON encoding of payload fields, read and written in one place.

Numbers are JSON integers or floats, never strings or booleans; a complex
value is exactly an [re, im] pair of finite numbers. Readers return the field
or raise InputError naming it (a missing key reads as null, which none takes).
Keys no reader asks for are ignored.

A block operator payload as `build` writes it (compact, sorted keys) has its
own writer and reader, `write_operator_text` and `read_operator_text`. Each
block is a Toeplitz or Hankel matrix, fixed by a sequence of 2M + 1
numbers. The writer takes the sequence from the operator
(`BlockOperator.sequences`) where a block is held in that layout: it
formats the sequence once and joins every row from its cells, and hands
the payload out in pieces, one block at a time. The reader sees it in the
text, where each row is the one above shifted by one cell: it parses the
sequence once and hands out the block as a read-only strided view of it,
and keeps the blocks as offsets into the text until it reads them. The
writer gives any other block to json.dumps; the reader declines a payload
holding a block of any other shape, which json.loads and the typed
readers then read. Both give
the same text and the same float64 bits as json.dumps and json.loads
through `write_matrix` and `read_matrix`.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterator
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


def write_operator_text(op) -> Iterator[str]:
    """json.dumps(op.to_json(), sort_keys=True, separators=(",", ":")) for a
    BlockOperator `op`, in pieces: the text around the blocks from _frame,
    each block's key and its text from _block_pieces, given the block's
    sequence and layout as the operator holds it (op.sequences()). A block
    is formatted only when its pieces are asked for."""
    # operators imports this module, so its layout table is read at call time
    from .operators import _TOEPLITZ
    document = op.to_json_with(lambda block: block)
    blocks = document.pop("blocks")
    layouts = dict(zip(BLOCK_NAMES, zip(op.sequences(), _TOEPLITZ)))
    head, tail = _frame(document)
    yield head
    for k, name in enumerate(sorted(blocks)):
        yield _key(k, name)
        yield from _block_pieces(blocks[name], *layouts[name])
    yield tail


def read_operator_text(text: str) -> dict | None:
    """The payload document of a text in write_operator_text's layout, its
    blocks as read-only complex128 views (_read_block_text). The four
    blocks are found as offsets into `text`, the rest is read by
    json.loads, and each block is read in place by _read_block_text in
    turn. None for a text in any other layout, or with an entry read_matrix
    would reject: it is left to json.loads and the typed readers, which
    give the error message."""
    start = text.find(_BLOCKS)
    if start < 0:
        return None
    cut, spans = start + len(_BLOCKS), {}
    for k, name in enumerate(sorted(BLOCK_NAMES)):
        key = _key(k, name)
        end = text.find("]]]", cut) + 3
        if end < cut or not text.startswith(key, cut):
            return None
        spans[name], cut = (cut + len(key), end), end
    head, tail = text[:start], text[cut + 1:]
    try:
        rest = json.loads(head[:-1] + tail if head.endswith(",") else head + tail[1:])
        if not isinstance(rest, dict) or type(rest.get("M")) is not int or rest["M"] < 0:
            return None
        # the text must be exactly what write_operator_text gives for this
        # rest: that keeps the cut at the top level and rules out repeated or
        # escaped keys
        before, after = _frame(rest)
        if len(before) != start + len(_BLOCKS) or not text.startswith(before) \
                or text[cut:].rstrip(" \t\n\r") != after:
            return None
    except (ValueError, RecursionError):
        return None
    blocks = {}
    for name in BLOCK_NAMES:
        blocks[name] = _read_block_text(text, *spans[name], rest["M"] + 1)
        if blocks[name] is None:
            return None
    return {**rest, "blocks": blocks}


def _frame(document: dict) -> tuple[str, str]:
    """The compact dump of `document` with a "blocks" object in place of its
    own, cut around the object's entries: the text up to and including
    '"blocks":{', and the text from the object's closing brace on."""
    head = json.dumps({k: v for k, v in document.items() if k < "blocks"}, **_COMPACT)
    tail = json.dumps({k: v for k, v in document.items() if k > "blocks"}, **_COMPACT)
    return (head[:-1] + ("," if len(head) > 2 else "") + _BLOCKS,
            "}" + ("," if len(tail) > 2 else "") + tail[1:])


def _key(k: int, name: str) -> str:
    """The text before the value of the k-th entry of the "blocks" object."""
    return ("," if k else "") + f'"{name}":'


def _block_pieces(a: np.ndarray, sequence: np.ndarray | None,
                  toeplitz: bool) -> Iterator[str]:
    """json.dumps(write_matrix(a), separators=(",", ":")) in pieces. A block
    held as a view of its 2n - 1 values, `sequence` (Toeplitz: cell (i, j)
    is value n-1+j-i; Hankel: value i+j), formats those cells once, with
    one repr per float64 (so -0.0 keeps its sign), and hands out each row
    as a join of n of them; a block with no sequence comes as one piece
    from json.dumps."""
    if sequence is None:
        yield json.dumps(write_matrix(a), **_COMPACT)
        return
    n = len(a)
    starts = range(n - 1, -1, -1) if toeplitz else range(n)
    cells = [f"[{re!r},{im!r}]" for re, im in
             sequence.view(np.float64).reshape(-1, 2).tolist()]
    for k, s in enumerate(starts):
        yield ("],[" if k else "[[") + ",".join(cells[s:s + n])
    yield "]]"


def _read_block_text(text: str, start: int, end: int, n: int) -> np.ndarray | None:
    """The n x n complex128 matrix of the block text[start:end] in
    _block_pieces's layout: n rows of n [re, im] pairs, no whitespace, each
    row the one above shifted by one cell (_new_cells), so that every row
    is a copy of cells of row 0 and the new cells. The rows are compared
    at their offsets in `text`, one row copied at a time. Only the 2n - 1
    sequence cells go through json.loads, and the block is a read-only
    view of them in the layout of the text: Toeplitz, cell (i, j) at
    n-1+j-i and strides (-s, s), or Hankel, at i+j and strides (s, s), for
    s the size of one value. None when the text is in any other layout or
    has an entry read_matrix would reject."""
    # the shortest such text has every number one digit long; checked
    # first so a large n allocates nothing
    if end - start < 6 * n * n + 2 * n + 1 or not (
            text.startswith("[[[", start, end) and text.endswith("]]]", start, end)):
        return None
    # (start, end) of each row's text between its "[[" and "]]"
    rows, a = [], start + 3
    for _ in range(n - 1):
        b = text.find("]],[[", a, end)
        if b < 0:
            return None
        rows.append((a, b))
        a = b + 5
    if text.find("]],[[", a, end) >= 0:
        return None
    rows.append((a, end - 3))
    first = text[slice(*rows[0])].split("],[")
    if len(first) != n:
        return None
    new = _new_cells(text, rows, toeplitz=True)
    toeplitz = new is not None
    if not toeplitz:
        new = _new_cells(text, rows, toeplitz=False)
        if new is None:
            return None
    values = _read_cells(new[::-1] + first if toeplitz else first + new)
    if values is None:
        return None
    s = values.itemsize
    block = np.ndarray((n, n), np.complex128, buffer=values,
                       offset=(n - 1) * s if toeplitz else 0,
                       strides=(-s, s) if toeplitz else (s, s))
    block.flags.writeable = False
    return block


def _new_cells(text: str, rows: list, toeplitz: bool) -> list | None:
    """The cell each row r + 1 adds to row r, for rows at the (start, end)
    offsets `rows` of `text`, when row r + 1 is one new cell, "],[" and
    row r without its last cell (Toeplitz), or row r without its first
    cell, "],[" and one new cell (Hankel). None when a row is not so."""
    new = []
    for (a, b), (c, d) in zip(rows, rows[1:]):
        if toeplitz:
            # row r without its last cell is text[a:p]; it ends row r + 1
            p = text.rfind("],[", a, b)
            k = d - 3 - (p - a)
            cell = text[c:k] if k >= c and text.startswith("],[", k) \
                and text.startswith(text[a:p], k + 3) else None
        else:
            # row r without its first cell is text[q:b]; it starts row r + 1
            q = text.find("],[", a, b) + 3
            k = c + b - q
            cell = text[k + 3:d] if k + 3 <= d and text.startswith(text[q:b], c) \
                and text.startswith("],[", k) else None
        if cell is None:
            return None
        new.append(cell)
    return new


def _read_cells(cells: list) -> np.ndarray | None:
    # each "re,im" token holds one comma, so the flat list pairs up; a quote
    # gives a string or a JSON error, never a number. No token may hold a
    # bracket: _new_cells compares row texts, where one would hide a boundary
    text = ",".join(cells)
    if any(c.count(",") != 1 for c in cells) or any(w in text for w in " \t\n\r[]"):
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
