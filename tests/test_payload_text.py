"""Operator payloads written and read per distinct number (the CLI's
compact route through payload.write_operator_text and
payload.read_operator_text) against json.dumps and json.loads of the whole
tree (tests/oracles.py)."""

import json
import tracemalloc

import numpy as np
import pytest

from msolab import cli
from msolab.cli import main
from msolab.inner import BlaschkeProduct, monomial_inner
from msolab.laurent import LaurentPolynomial
from msolab.operators import BlockOperator, build_dtto
from msolab.payload import _read_block_text, read_operator_text

from conftest import dense_noise_operator
from oracles import dumps_payload

PAIRS = {"monomial": (monomial_inner(2), monomial_inner(3)),
         "blaschke": (BlaschkeProduct([0.5 - 0.3j]), BlaschkeProduct([0.2 + 0.6j, -0.4]))}
SYMBOL = LaurentPolynomial.from_json(
    {"coeffs": [[-1, 2.0, 0.0], [0, 0.25, -1.0], [1, 1.0, 0.0], [2, -0.0, -0.5]]})
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


def _operators():
    """Built operators at every depth, both pairs; single-entry bumps; the
    dense-noise operator; special values."""
    out = {}
    for label, (theta, alpha) in PAIRS.items():
        built = {M: build_dtto(theta, alpha, SYMBOL, M) for M in (16, 64, 256)}
        # depths 0 and 1 are below every guard depth: corners of a build
        out.update({f"{label}-M{M}": _corner(built[16], M) for M in (0, 1)})
        out.update({f"{label}-M{M}": D for M, D in built.items()})
        out.update({f"{label}-bump{k}": _bumped(built[16], k) for k in range(4)})
    out["dense-noise"] = dense_noise_operator()
    out["special"] = _special(10)
    out["special-M0"] = _corner(_special(10), 0)
    return out


OPERATORS = _operators()


@pytest.mark.parametrize("name", list(OPERATORS))
def test_writer_matches_the_whole_tree_dumps(name):
    op = OPERATORS[name]
    assert cli._payload_text(op) == dumps_payload(op)


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
def test_compact_reader_matches_the_generic_reader(name):
    op = OPERATORS[name]
    texts = [dumps_payload(op) + "\n"]
    if op.M < 256:  # the variants take seconds through the generic reader
        texts += [dumps_payload(_with_blocks(op, lambda b: b + 1e-3 * (1 + 1j))),
                  _as_ints(texts[0])]
    for text in texts:
        assert read_operator_text(text) is not None
        _assert_same_operator(_compact(text), _generic(text))


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
])
def test_block_reader_declines_what_it_does_not_parse(text, n):
    assert _read_block_text(text, n) is None


def test_block_reader_keeps_the_json_number_grammar():
    # -0 is the integer zero to json.loads, so it reads as +0.0
    a = _read_block_text("[[[-0,-0.0]]]", 1)
    assert not np.signbit(a.real[0, 0]) and np.signbit(a.imag[0, 0])
    b = _read_block_text("[[[1E2,2e-1],[3,4]],[[1E2,2e-1],[3,4]]]", 2)
    assert np.array_equal(b, [[100 + 0.2j, 3 + 4j], [100 + 0.2j, 3 + 4j]])


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
