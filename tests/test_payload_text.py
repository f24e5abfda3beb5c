"""Operator payloads written and read through their blocks' generating
sequences (the CLI's compact route through payload.write_operator_text and
payload.read_operator_text) against json.dumps and json.loads of the whole
tree, and against the routes that write and read each distinct number once
(tests/oracles.py). A block without the Toeplitz or Hankel shift is written
by json.dumps, and a payload holding one is read by json.loads."""

import json
import tracemalloc

import numpy as np
import pytest

from msolab import cli, payload
from msolab.cli import main
from msolab.inner import BlaschkeProduct, monomial_inner
from msolab.laurent import LaurentPolynomial
from msolab.operators import BlockOperator, build_dtto
from msolab.payload import _read_block_text, read_operator_text

from conftest import dense_noise_operator
from oracles import (distinct_read_operator_text, distinct_write_operator_text,
                     dumps_payload)

PAIRS = {"monomial": (monomial_inner(2), monomial_inner(3)),
         "blaschke": (BlaschkeProduct([0.5 - 0.3j]), BlaschkeProduct([0.2 + 0.6j, -0.4]))}
# built from a dict, so the CLI's from_json of its payload must keep the -0.0
SYMBOL = LaurentPolynomial({-1: 2.0, 0: 0.25 - 1j, 1: 1.0, 2: complex(-0.0, -0.5)})
# signed zeros, the smallest subnormal, floats whose repr has an exponent
# and integral floats
SPECIAL = np.array([complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0), 0j,
                    complex(5e-324, 1e22), complex(1e16, -2.0), complex(-3.0, 7.0),
                    complex(1e22, 5e-324)])


def _corner(D: BlockOperator, M: int) -> BlockOperator:
    """The leading depth-M corner of every block of D."""
    n = M + 1
    return BlockOperator(D.that[:n, :n], D.gamma_check[:n, :n], D.gamma_hat[:n, :n],
                         D.t_check[:n, :n], D.theta, D.alpha, M, edge=D.edge)


def _with_blocks(D: BlockOperator, change) -> BlockOperator:
    return BlockOperator(*(change(b.copy()) for b in (D.that, D.gamma_check,
                                                      D.gamma_hat, D.t_check)),
                         D.theta, D.alpha, D.M, edge=D.edge)


def _bumped(D: BlockOperator, block: int) -> BlockOperator:
    def bump(b, k=iter(range(4))):
        if next(k) == block:
            b[1, 2] += 1e-3 - 2e-3j
        return b
    return _with_blocks(D, bump)


def _special(M: int) -> BlockOperator:
    D = build_dtto(*PAIRS["monomial"], SYMBOL, M)
    picks = np.random.default_rng(M).integers(len(SPECIAL), size=(4, M + 1, M + 1))
    blocks = iter(SPECIAL[picks])
    return _with_blocks(D, lambda b: next(blocks))


# 31 and 32 are the last depth with one residual band and the first with two
DEPTHS = (16, 31, 32, 64, 256)


def _signed_zero(D: BlockOperator) -> BlockOperator:
    """D with one zero entry of TCheck as -0.0: Toeplitz by value, not by bits."""
    def flip(b, k=iter(range(4))):
        if next(k) == 3:
            assert b[5, 0] == 0
            b[5, 0] = -0.0
        return b
    return _with_blocks(D, flip)


def _operators():
    """Built operators at every depth, both pairs; single-entry bumps and a
    signed zero; the dense-noise operator; special values."""
    out = {}
    for label, (theta, alpha) in PAIRS.items():
        built = {M: build_dtto(theta, alpha, SYMBOL, M) for M in DEPTHS}
        # depths 0 and 1 are below every guard depth: corners of a build
        out.update({f"{label}-M{M}": _corner(built[16], M) for M in (0, 1)})
        out.update({f"{label}-M{M}": D for M, D in built.items()})
        out.update({f"{label}-bump{k}": _bumped(built[16], k) for k in range(4)})
        out[f"{label}-signed-zero"] = _signed_zero(built[16])
    out["dense-noise"] = dense_noise_operator()
    out["special"] = _special(10)
    out["special-M0"] = _corner(_special(10), 0)
    return out


OPERATORS = _operators()


def _unshifted(op: BlockOperator) -> int:
    """How many blocks of op are neither Toeplitz nor Hankel, bit for bit."""
    count = 0
    for b in (op.that, op.gamma_check, op.gamma_hat, op.t_check):
        n = len(b)
        i, j = np.ogrid[:n, :n]
        shifted = (np.concatenate([b[::-1, 0], b[0, 1:]])[j - i + (n - 1)],
                   np.concatenate([b[0], b[1:, -1]])[i + j])
        count += not any(np.array_equal(b.view(np.int64), m.view(np.int64))
                         for m in shifted)
    return count


@pytest.mark.parametrize("name", list(OPERATORS))
def test_writer_matches_the_whole_tree_dumps(name):
    op = OPERATORS[name]
    text = "".join(cli._payload_pieces(op))
    assert text == dumps_payload(op)
    assert text == distinct_write_operator_text(op)


def _calls(monkeypatch, name: str) -> list:
    """The first argument of every call to payload.`name` from here on."""
    seen, real = [], getattr(payload, name)

    def record(first, *args):
        seen.append(first)
        return real(first, *args)
    monkeypatch.setattr(payload, name, record)
    return seen


@pytest.mark.parametrize("name, unshifted", [
    ("blaschke-M16", 0), ("monomial-M256", 0), ("monomial-M0", 0),
    ("blaschke-bump0", 1), ("monomial-bump3", 1), ("monomial-signed-zero", 1),
    ("dense-noise", 4), ("special", 4)])
def test_each_block_takes_the_route_its_structure_allows(monkeypatch, name, unshifted):
    """A Toeplitz or Hankel block is written and read through its 2n - 1
    sequence cells; a block that is neither (a single-entry bump, noise)
    is written by json.dumps, and the compact reader declines its payload."""
    op, n = OPERATORS[name], OPERATORS[name].M + 1
    assert _unshifted(op) == unshifted
    dumped = _calls(monkeypatch, "write_matrix")
    text = "".join(cli._payload_pieces(op))
    read = _calls(monkeypatch, "_read_cells")
    compact = read_operator_text(text)
    assert len(dumped) == unshifted
    assert (compact is None) == (unshifted > 0)
    assert set(map(len, read)) <= {2 * n - 1}
    assert len(read) == 4 or unshifted


@pytest.mark.parametrize("label", list(PAIRS))
def test_build_writes_the_whole_tree_dumps(capsys, label):
    theta, alpha = PAIRS[label]
    code = main(["build", "dtto", "--theta", json.dumps(theta.to_json()),
                 "--alpha", json.dumps(alpha.to_json()),
                 "--symbol", json.dumps(SYMBOL.to_json()), "--M", "16"])
    assert code == 0
    assert capsys.readouterr().out == \
        dumps_payload(build_dtto(theta, alpha, SYMBOL, 16)) + "\n"


def _assert_same_operator(fast: BlockOperator, generic: BlockOperator):
    __tracebackhide__ = True
    for name in ("that", "gamma_check", "gamma_hat", "t_check"):
        a, b = getattr(fast, name), getattr(generic, name)
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    assert fast.theta.to_json() == generic.theta.to_json()
    assert fast.alpha.to_json() == generic.alpha.to_json()
    assert (fast.M, fast.edge) == (generic.M, generic.edge)


def _generic(text: str) -> BlockOperator:
    return BlockOperator.from_json(json.loads(text))


def _compact(text: str) -> BlockOperator:
    return BlockOperator.from_json(read_operator_text(text))


def _as_ints(text: str) -> str:
    """The same payload with every integral float written as an integer."""
    return json.dumps(json.loads(text, parse_float=lambda s: int(float(s))
                                 if float(s).is_integer() else float(s)),
                      sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", list(OPERATORS))
def test_compact_reader_matches_the_generic_reader(tmp_path, name):
    """The CLI reads the operator json.loads reads, bit for bit; the compact
    reader takes exactly the payloads whose blocks all show the shift."""
    op, path = OPERATORS[name], tmp_path / "op.json"
    texts = [dumps_payload(op) + "\n"]
    if op.M < 256:  # the variants take seconds through the generic reader
        texts += [dumps_payload(_with_blocks(op, lambda b: b + 1e-3 * (1 + 1j))),
                  _as_ints(texts[0])]
    for text in texts:
        path.write_text(text)
        generic = _generic(text)
        _assert_same_operator(cli._read_operator(str(path)), generic)
        assert (read_operator_text(text) is None) == (_unshifted(generic) > 0)
        if not _unshifted(generic):
            _assert_same_operator(_compact(text), BlockOperator.from_json(
                distinct_read_operator_text(text)))


# -- adversarial texts: the compact reader declines or agrees ------------------

BASE = build_dtto(*PAIRS["blaschke"], SYMBOL, 8)
TEXT = dumps_payload(BASE)
OTHER_BLOCKS = json.dumps(_bumped(BASE, 0).to_json()["blocks"], sort_keys=True,
                          separators=(",", ":"))


def _with_cell(text: str, block: str, *cells: str) -> str:
    """The text with the first [re, im] cells of a block replaced by `cells`."""
    start = text.index(f'"{block}":[[[') + len(block) + 6
    end = start
    for _ in cells:
        end = text.index("]", end + 1)
    return text[:start] + "],[".join(cells) + text[end:]


def _short_row(text: str) -> str:
    start = text.index('"TCheck":[[') + len("TCheck") + 4
    return text[:start] + text[text.index("],", start) + 2:]


def _replaced(**fields) -> str:
    return json.dumps({**BASE.to_json(), **fields}, sort_keys=True, separators=(",", ":"))


ADVERSARIAL = {
    "blocks-twice-last": TEXT[:-1] + ',"blocks":' + OTHER_BLOCKS + "}",
    "blocks-twice-first": '{"blocks":' + OTHER_BLOCKS + "," + TEXT[1:],
    "escaped-blocks-key": TEXT[:-1] + ',"\\u0062locks":' + OTHER_BLOCKS + "}",
    "escaped-only-key": TEXT.replace('"blocks":', '"\\u0062locks":'),
    "trailing-data": TEXT + "\nx",
    "trailing-document": TEXT + "{}",
    "leading-space": " " + TEXT,
    "nan": _with_cell(TEXT, "TCheck", "NaN,0.0"),
    "infinity": _with_cell(TEXT, "That", "0.0,-Infinity"),
    "float-overflow": _with_cell(TEXT, "GammaHat", "1e400,0.0"),
    "integer-overflow": _with_cell(TEXT, "GammaCheck", "1" + "0" * 400 + ",0"),
    "true-leaf": _with_cell(TEXT, "TCheck", "true,0.0"),
    "string-leaf": _with_cell(TEXT, "TCheck", '"1",0.0'),
    "null-leaf": _with_cell(TEXT, "That", "0.0,null"),
    "three-item-pair": _with_cell(TEXT, "TCheck", "1.0,2.0,3.0"),
    "one-item-pair": _with_cell(TEXT, "TCheck", "1.0"),
    "uneven-pairs": _with_cell(TEXT, "TCheck", "1.0,2.0,3.0", "4.0"),
    "spaced-pair": _with_cell(TEXT, "TCheck", "1.0, 2.0"),
    "short-row": _short_row(TEXT),
    "float-depth": _replaced(M=8.0),
    "bool-depth": _replaced(M=True),
    "negative-depth": _replaced(M=-1),
    "bool-edge": _replaced(edge=True),
    "list-theta": _replaced(theta=[1]),
}


@pytest.mark.parametrize("name", list(ADVERSARIAL))
def test_adversarial_payloads_give_the_generic_outcome(tmp_path, capsys, monkeypatch, name):
    """The CLI with its compact reader gives the bytes and exit code of the
    CLI with the generic reader alone; the reader never raises on its own."""
    path = tmp_path / "op.json"
    path.write_text(ADVERSARIAL[name])
    runs = []
    for reader in (read_operator_text, lambda text: None):
        monkeypatch.setattr(cli, "read_operator_text", reader)
        for argv in (["check", str(path)], ["recover", str(path)]):
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
    assert runs[:2] == runs[2:]
    # only a payload whose blocks read cleanly reaches the typed readers
    if name not in ("bool-edge", "list-theta"):
        assert read_operator_text(ADVERSARIAL[name]) is None


def test_repeated_blocks_key_reads_the_last_one():
    for name in ("blocks-twice-last", "escaped-blocks-key"):
        text = ADVERSARIAL[name]
        assert read_operator_text(text) is None
        assert np.array_equal(_generic(text).that, _bumped(BASE, 0).that)


@pytest.mark.parametrize("text, n", [
    ("[[[1,2]]]", 2), ("[[[1,2],[3,4]],[[5,6]]]", 2), ("[[[1,2]],[[3,4],[5,6]]]", 2),
    ("[[[1,[2]]]]", 1), ('[[["1",2]]]', 1), ("[[[1,2]]] ", 1), ("[[[1,2],[3,4]]]", 1),
    ("[[[1,2,3],[4]]]", 2), ("[[[1,2]]]", 10 ** 9), ("[[[1e999,0]]]", 1),
    ("[[[" + "9" * 5000 + ",0]]]", 1), ("[[[NaN,0]]]", 1), ("[[[-0,0.0]]]x", 1),
    # the row shift holds on the text, but the new cell holds a bracket
    ("[[[1,2],[3,4]],[[5],[6],[1,2]]]", 2), ("[[[1,2],[3,4]],[[3,4],[5],[6]]]", 2),
    ("[[[1,2],[3,4]],[[[5,6],[1,2]]]", 2), ("[[[1,2],[3,4]],[[3,4],[5,6]]]]", 2),
    ("[[[1,2],[3,4]],[[5,6],[1,2]]]", 3),
    # Toeplitz by value, not by text
    ("[[[1,2],[3,4]],[[5,6],[1.0,2]]]", 2),
])
def test_block_reader_declines_what_it_does_not_parse(text, n):
    assert _read_block_text(text, n) is None


def test_block_reader_keeps_the_json_number_grammar():
    # -0 is the integer zero to json.loads, so it reads as +0.0
    a = _read_block_text("[[[-0,-0.0]]]", 1)
    assert not np.signbit(a.real[0, 0]) and np.signbit(a.imag[0, 0])
    b = _read_block_text("[[[1E2,2e-1],[3,4]],[[5,6],[1E2,2e-1]]]", 2)
    assert np.array_equal(b, [[100 + 0.2j, 3 + 4j], [5 + 6j, 100 + 0.2j]])


@pytest.mark.parametrize("text, block", [
    ("[[[1,2],[3,4],[5,6]],[[7,8],[1,2],[3,4]],[[9,0],[7,8],[1,2]]]",
     [[1 + 2j, 3 + 4j, 5 + 6j], [7 + 8j, 1 + 2j, 3 + 4j], [9, 7 + 8j, 1 + 2j]]),
    ("[[[1,2],[3,4],[5,6]],[[3,4],[5,6],[7,8]],[[5,6],[7,8],[9,0]]]",
     [[1 + 2j, 3 + 4j, 5 + 6j], [3 + 4j, 5 + 6j, 7 + 8j], [5 + 6j, 7 + 8j, 9]]),
], ids=["toeplitz", "hankel"])
def test_block_reader_gathers_the_sequence_of_the_text(text, block):
    assert np.array_equal(_read_block_text(text, len(block)), block)


def test_huge_claimed_depth_allocates_nothing_large(tmp_path, capsys):
    """A 13 x 13 payload that claims M = 10**6 exits 2 with the shape
    message, and the reader never allocates a block of the claimed size."""
    path = tmp_path / "op.json"
    D = build_dtto(monomial_inner(2), monomial_inner(2), SYMBOL, 12)
    path.write_text(json.dumps({**D.to_json(), "M": 10 ** 6}, sort_keys=True,
                               separators=(",", ":")))
    tracemalloc.start()
    try:
        code = main(["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: That has shape (13, 13), expected (1000001, 1000001)\n"
    assert peak < 50e6


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_payload_routes_hold_one_block_of_text_at_a_time(tmp_path):
    """At M = 256 the payload text is 5.1 MB and the four blocks 4.2 MB.
    The reader holds the sequences of the blocks it has read (views, 0.03
    MB), plus one block's text and rows; build holds the operator, plus
    one block's sequence text. Peaks measured: 6.4 and 5.5 MB; 7.9 MB when
    the reader gathered each block, and the routes that cut out all four
    block texts and concatenated the whole document peaked at 20.4 and
    24.8 MB."""
    theta, alpha = PAIRS["blaschke"]
    text = dumps_payload(OPERATORS["blaschke-M256"])
    assert _peak_mb(lambda: read_operator_text(text)) < 9.0
    argv = ["build", "dtto", "--theta", json.dumps(theta.to_json()),
            "--alpha", json.dumps(alpha.to_json()), "--symbol", json.dumps(SYMBOL.to_json()),
            "--M", "256", "--out", str(tmp_path / "op.json")]
    assert _peak_mb(lambda: main(argv)) < 7.0
    assert (tmp_path / "op.json").read_text() == text + "\n"
