import copy
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msolab.cli import main
from msolab.inner import BlaschkeProduct, monomial_inner
from msolab.laurent import MAX_DEGREE, LaurentPolynomial
from msolab.operators import build_dtto, build_tto

Z2 = "z^2"
SHIFT_SYMBOL = '{"coeffs": [[1, 1, 0], [-1, 2, 0]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_tto_matrix(capsys):
    code, out, _ = run_cli(capsys, "build", "tto", "--theta", Z2,
                           "--symbol", "z")
    assert code == 0
    payload = json.loads(out)
    entries = payload["entries"]
    assert entries[0] == [[0.0, 0.0], [0.0, 0.0]]
    assert entries[1] == [[1.0, 0.0], [0.0, 0.0]]


def test_build_dtto_identity_blocks(capsys):
    code, out, _ = run_cli(capsys, "build", "dtto", "--theta", Z2,
                           "--symbol", '{"coeffs": [[0, 1, 0]]}', "--M", "6")
    assert code == 0
    payload = json.loads(out)
    that = np.array(payload["blocks"]["That"])[:, :, 0]
    np.testing.assert_allclose(that, np.eye(7))
    assert not np.any(np.array(payload["blocks"]["GammaHat"]))


def test_build_rejects_zero_outside_disk(capsys):
    code, _, err = run_cli(capsys, "build", "dtto",
                           "--theta", '{"zeros": [[1.5, 0]], "constant": [1, 0]}',
                           "--symbol", "z")
    assert code == 2
    assert "zero outside open disk" in err


def test_check_passes_on_built_operator(tmp_path, capsys):
    path = tmp_path / "op.json"
    code, _, _ = run_cli(capsys, "build", "dtto", "--theta", Z2,
                         "--symbol", SHIFT_SYMBOL, "--M", "10",
                         "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", str(path),
                           "--checks", "shift,blocks,adtto")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    names = {rep["condition"] for rep in report["reports"]}
    assert "shift-invariance" in names and "corner-consistency" in names


def test_check_detects_perturbation(tmp_path, capsys):
    path = tmp_path / "op.json"
    run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", SHIFT_SYMBOL,
            "--M", "10", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["blocks"]["That"][0][0] = [1.0, 0.0]  # theta (x) theta dyad
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", "adtto")
    assert code == 1
    report = json.loads(out)
    failing = [rep for rep in report["reports"] if not rep["pass"]]
    assert any(rep["condition"] == "that-toeplitz" and
               rep["defect"] == pytest.approx(1.0) for rep in failing)
    assert all(rep["witnesses"] for rep in failing)


def test_check_analytic_exit_code(tmp_path, capsys):
    path = tmp_path / "op.json"
    run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z^-1",
            "--M", "8", "--out", str(path))
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", "analytic")
    assert code == 1
    assert not json.loads(out)["analytic"]["analytic"]


def test_check_rejects_bad_payload(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"nope": 1}')
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "error" in err
    path.write_text("{not json")
    assert run_cli(capsys, "check", str(path))[0] == 2


def test_recover_round_trip(tmp_path, capsys):
    path = tmp_path / "op.json"
    run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", SHIFT_SYMBOL,
            "--M", "10", "--out", str(path))
    for method in ("zbar", "boundary"):
        code, out, _ = run_cli(capsys, "recover", str(path),
                               "--method", method)
        assert code == 0
        report = json.loads(out)
        assert report["residual"] <= 1e-11
        coeffs = {int(k): complex(re, im)
                  for k, re, im in report["symbol"]["coeffs"]}
        assert coeffs == {1: 1 + 0j, -1: 2 + 0j}


def test_recover_flags_noise(tmp_path, capsys):
    path = tmp_path / "op.json"
    run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
            "--M", "8", "--out", str(path))
    payload = json.loads(path.read_text())
    for row in payload["blocks"]["GammaHat"]:
        for cell in row:
            cell[0] += 0.3
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "recover", str(path))
    assert code == 1
    assert json.loads(out)["residual"] > 0.01


@pytest.mark.parametrize("block", ["That", "GammaCheck", "GammaHat", "TCheck"])
def test_single_entry_bump_fails_check_and_recover(tmp_path, capsys, block):
    path = tmp_path / "op.json"
    run_cli(capsys, "build", "dtto", "--theta", Z2, "--alpha", "z^3",
            "--symbol", SHIFT_SYMBOL, "--M", "16", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["blocks"][block][5][4][0] += 1e-3
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", "blocks,adtto")
    assert code == 1
    assert not json.loads(out)["pass"]
    code, out, _ = run_cli(capsys, "recover", str(path), "--method", "zbar")
    assert code == 1
    report = json.loads(out)
    assert report["residual"] > report["tolerance"]
    assert not report["pass"]


def test_suite_unknown_name_exits_two(capsys):
    assert run_cli(capsys, "suite", "everything")[0] == 2


def test_suite_fuzz_runs_and_passes(capsys):
    code, out, _ = run_cli(capsys, "suite", "fuzz", "--cases", "5",
                           "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and len(report["records"]) == 5


def test_suite_convergence_custom_symbol(capsys):
    code, out, _ = run_cli(capsys, "suite", "convergence",
                           "--symbol", '{"coeffs": [[1, 1, 0], [-1, 1, 0]]}')
    assert code == 0
    report = json.loads(out)
    values = report["criteria"][0]["singular_values"]
    assert values == sorted(values)
    assert values[-1] <= 2 + 1e-12


def test_suite_reports_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "suite", "fuzz", "--cases", "4",
                             "--seed", "11", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "msolab.cli", "build", "tto",
         "--theta", "z^2", "--symbol", "z"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"][1][0] == [1.0, 0.0]


# -- invalid input exits 2 with a one-line message ------------------------------

def assert_one_line_input_error(code, out, err):
    __tracebackhide__ = True
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("theta", [
    '{"zeros": [["nan", 0]]}',
    '{"zeros": [[0.2, Infinity]]}',
    '{"zeros": [[0.5, 0]], "constant": [1]}',
    '{"zeros": [[0.5, 0]], "constant": ["one", 0]}',
    '{"zeros": [[0.5, 0]], "constant": [NaN, 0]}',
], ids=["nan-zero", "inf-zero", "short-constant", "text-constant", "nan-constant"])
def test_build_rejects_bad_inner_function(capsys, theta):
    assert_one_line_input_error(*run_cli(capsys, "build", "dtto", "--theta", theta,
                                         "--symbol", "z"))


def test_build_rejects_expansion_degree_above_cap(capsys):
    theta = '{"zeros": [[0.999999, 0]], "allow_near_boundary": true}'
    code, out, err = run_cli(capsys, "build", "dtto", "--theta", theta,
                             "--symbol", "z")
    assert_one_line_input_error(code, out, err)
    assert "MAX_EXPANSION_DEGREE" in err and "Traceback" not in err


@pytest.mark.parametrize("symbol", [
    '{"coeffs": [[0, "nan", 0]]}',
    '{"coeffs": [[1, 1, -Infinity]]}',
    '{"coeffs": [[Infinity, 1, 0]]}',
    '{"coeffs": 3}',
    '{"coeffs": [[1.5, 1, 0]]}',
    '{"coeffs": [[1.0, 1, 0]]}',
    '{"coeffs": [[true, 1, 0]]}',
    '{"coeffs": [["2", 1, 0]]}',
], ids=["nan", "inf", "inf-degree", "not-a-list", "fractional-degree",
        "float-degree", "bool-degree", "string-degree"])
def test_build_rejects_bad_symbol(capsys, symbol):
    assert_one_line_input_error(*run_cli(capsys, "build", "dtto", "--theta", Z2,
                                         "--symbol", symbol))
    assert_one_line_input_error(*run_cli(capsys, "suite", "fuzz", "--cases", "1",
                                         "--symbol", symbol))


def test_check_rejects_non_finite_or_short_entries(tmp_path, capsys):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
                   "--M", "8", "--out", str(path))[0] == 0
    payload = json.loads(path.read_text())
    payload["blocks"]["TCheck"][2][3] = ["nan", 0.0]
    path.write_text(json.dumps(payload))
    assert_one_line_input_error(*run_cli(capsys, "check", str(path)))
    payload["blocks"]["TCheck"][2][3] = [1.0]
    path.write_text(json.dumps(payload))
    assert_one_line_input_error(*run_cli(capsys, "check", str(path)))
    path.write_text(json.dumps({"theta": {"zeros": [[0, 0]]}, "alpha": {"zeros": [[0, 0]]},
                                "entries": [[[1.0]]]}))
    assert_one_line_input_error(*run_cli(capsys, "check", str(path)))


@pytest.mark.parametrize("symbol", [
    f"z^{MAX_DEGREE + 1}",
    f"z^-{MAX_DEGREE + 1}",
    json.dumps({"coeffs": [[0, 1, 0], [MAX_DEGREE + 1, 1, 0]]}),
], ids=["shorthand", "negative-shorthand", "json"])
def test_build_rejects_symbol_degree_above_cap(capsys, symbol):
    code, out, err = run_cli(capsys, "build", "tto", "--theta", "z",
                             "--symbol", symbol)
    assert_one_line_input_error(code, out, err)
    assert "MAX_DEGREE" in err


@pytest.mark.parametrize("M", ["0", "-3", "1"])
def test_suite_fuzz_rejects_depth_below_guard(capsys, M):
    code, out, err = run_cli(capsys, "suite", "fuzz", "--cases", "1",
                             "--M", M, "--seed", "5")
    assert_one_line_input_error(code, out, err)
    assert "below the guard depth" in err


def test_suite_rejects_removed_workers_flag(capsys):
    code, _, err = run_cli(capsys, "suite", "fuzz", "--cases", "1",
                           "--workers", "2")
    assert code == 2 and "--workers" in err


@pytest.mark.parametrize("suite, flag, value", [
    ("acceptance", "--cases", "3"), ("acceptance", "--tol", "1e-3"),
    ("acceptance", "--M", "12"), ("acceptance", "--theta", Z2),
    ("acceptance", "--alpha", Z2), ("acceptance", "--symbol", "z"),
    ("convergence", "--cases", "3"), ("convergence", "--M", "12"),
    ("convergence", "--tol", "1e-3"),
])
def test_suite_rejects_flags_it_does_not_read(capsys, suite, flag, value):
    code, out, err = run_cli(capsys, "suite", suite, flag, value)
    assert_one_line_input_error(code, out, err)
    assert f"suite {suite} does not read {flag}" in err


def test_build_tto_rejects_depth_it_does_not_read(capsys):
    code, out, err = run_cli(capsys, "build", "tto", "--theta", Z2,
                             "--symbol", "z", "--M", "5")
    assert_one_line_input_error(code, out, err)
    assert "build tto does not read --M" in err


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_suite_fuzz_rejects_nonpositive_cases(capsys, cases):
    code, out, err = run_cli(capsys, "suite", "fuzz", "--cases", cases)
    assert_one_line_input_error(code, out, err)
    assert "cases must be positive" in err


def test_recover_below_guard_depth_names_it(tmp_path, capsys):
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    block = [[[0.0, 0.0]] * 3] * 3
    path = tmp_path / "op.json"
    path.write_text(json.dumps({
        "theta": {"zeros": zeros}, "alpha": {"zeros": zeros}, "M": 2,
        "blocks": {name: block for name in ("That", "GammaCheck", "GammaHat", "TCheck")}}))
    for method in ("zbar", "boundary"):
        code, out, err = run_cli(capsys, "recover", str(path), "--method", method)
        assert_one_line_input_error(code, out, err)
        assert "guard depth 6" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["non-utf8", "nested-100000"])
def test_check_rejects_unreadable_payload(tmp_path, capsys, content):
    path = tmp_path / "op.json"
    path.write_bytes(content)
    assert_one_line_input_error(*run_cli(capsys, "check", str(path)))


def test_output_path_that_cannot_be_written(tmp_path, capsys):
    out = tmp_path / "missing" / "op.json"
    assert_one_line_input_error(*run_cli(capsys, "build", "tto", "--theta", Z2,
                                         "--symbol", "z", "--out", str(out)))


def test_usage_errors_are_one_line(capsys):
    assert_one_line_input_error(*run_cli(capsys, "check", "--tol"))
    assert_one_line_input_error(*run_cli(capsys, "build", "tto", "--theta", Z2,
                                         "--symbol", "z", "--bad", "a\nb"))


_HUGE = 10 ** 400  # an integer JSON literal beyond the float range


@pytest.mark.parametrize("mutate", [
    lambda p: {**p, "M": float("inf")},
    lambda p: {**p, "blocks": {**p["blocks"], "That": [[[_HUGE, 0]]]}},
    lambda p: {**p, "theta": {"zeros": [[_HUGE, 0]]}},
    lambda p: {**p, "theta": {**p["theta"], "constant": [_HUGE, 0]}},
    lambda p: {"theta": p["theta"], "alpha": p["alpha"], "entries": [[[_HUGE, 0]]]},
], ids=["infinite-depth", "huge-entry", "huge-zero", "huge-constant", "huge-tto-entry"])
def test_check_rejects_numbers_beyond_float_range(tmp_path, capsys, mutate):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
                   "--M", "8", "--out", str(path))[0] == 0
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    assert_one_line_input_error(*run_cli(capsys, "check", str(path)))


@pytest.mark.parametrize("depth", [8.5, 8.0, True, "8"],
                         ids=["fractional-depth", "float-depth", "bool-depth",
                              "string-depth"])
@pytest.mark.parametrize("command", ["check", "recover"])
def test_payload_depth_must_be_an_integer(tmp_path, capsys, command, depth):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
                   "--M", "8", "--out", str(path))[0] == 0
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "M": depth}))
    code, out, err = run_cli(capsys, command, str(path))
    assert_one_line_input_error(code, out, err)
    assert "integer" in err


@pytest.mark.parametrize("command", ["check", "recover", "suite"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
                   "--M", "8", "--out", str(path))[0] == 0
    argv = ["suite", "fuzz", "--cases", "1"] if command == "suite" else [command, str(path)]
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert_one_line_input_error(code, out, err)
    assert "tolerance must be finite and positive" in err


# -- the exit-code contract on arbitrary argv and payloads -----------------------

PAYLOAD, BAD_OUT = object(), object()
_VALID_PAYLOADS = (
    build_dtto(monomial_inner(2), BlaschkeProduct([0.3]),
               LaurentPolynomial({1: 1.0, -1: 0.5j}), 6).to_json(),
    build_tto(monomial_inner(2), monomial_inner(3), LaurentPolynomial({-1: 1.0})).to_json(),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_token = st.text(max_size=6)


def _flag(flag, values):
    return st.one_of(values.map(lambda v: [flag, v]), st.just([]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


@st.composite
def _with_token(draw, grammar):
    """An argv from the grammar, one word in four replaced by an arbitrary
    token (the command word too)."""
    argv = draw(grammar)
    if draw(st.integers(0, 3)) == 3:
        argv[draw(st.integers(1, len(argv))) - 1] = draw(_token)
    return argv


_depth = st.integers(-3, 32).map(str)
_tol = st.sampled_from(["1e-3", "1e-12", "nan", "inf", "-1", "0"])
_inner = st.sampled_from(["z", "z^2", "z^3"]) | st.lists(
    st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)), min_size=1, max_size=3).map(
    lambda zeros: json.dumps({"zeros": zeros}))
_symbol = st.integers(-4, 4).map(lambda k: f"z^{k}") | st.lists(
    st.tuples(st.integers(-4, 4), st.floats(-2, 2), st.floats(-2, 2)), max_size=3).map(
    lambda coeffs: json.dumps({"coeffs": coeffs}))
_checks = st.lists(st.sampled_from(["shift", "blocks", "adtto", "analytic"]),
                   min_size=1, max_size=4).map(",".join)
_commands = _with_token(st.one_of(
    _argv(st.just(["build"]), st.sampled_from([["tto"], ["dtto"]]),
          _inner.map(lambda v: ["--theta", v]), _symbol.map(lambda v: ["--symbol", v]),
          _flag("--alpha", _inner), _flag("--M", _depth)),
    _argv(st.just(["check", PAYLOAD]), _flag("--checks", _checks), _flag("--tol", _tol)),
    _argv(st.just(["recover", PAYLOAD]),
          _flag("--method", st.sampled_from(["zbar", "boundary"])), _flag("--tol", _tol)),
    _argv(st.just(["suite", "fuzz"]),
          st.sampled_from(["1", "2", "0"]).map(lambda n: ["--cases", n]),
          _flag("--M", _depth), _flag("--seed", _depth), _flag("--theta", _inner),
          _flag("--symbol", _symbol), _flag("--tol", _tol))))


@st.composite
def _mutated(draw):
    """A valid payload with one top-level field replaced by arbitrary JSON,
    or the dtto payload with one block entry moved."""
    payload = copy.deepcopy(draw(st.sampled_from(_VALID_PAYLOADS)))
    if draw(st.booleans()):
        matrix = draw(st.sampled_from(list(payload["blocks"].values()))) \
            if "blocks" in payload else payload["entries"]
        cell = draw(st.sampled_from(draw(st.sampled_from(matrix))))
        cell[0] += draw(st.floats(0.01, 1))
    else:
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_json_values)
    return json.dumps(payload).encode()


_payloads = st.one_of(
    st.sampled_from(_VALID_PAYLOADS).map(lambda p: json.dumps(p).encode()),
    _mutated(),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=64))


@given(argv=_commands, out=st.sampled_from([[], [], [], ["--out", BAD_OUT]]),
       payload=_payloads)
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_keeps_exit_code_contract(tmp_path, monkeypatch, capsys, argv, out, payload):
    """Any argv from the command grammar (with arbitrary tokens mixed in) and
    any payload bytes: exit 0, 1 or 2, no exception, and exit 2 prints one
    error line."""
    # a token such as "--o" abbreviates --out, so stray outputs land here
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "payload.json"
    path.write_bytes(payload)
    where = {PAYLOAD: str(path), BAD_OUT: str(tmp_path / "missing" / "out.json")}
    code, _, err = run_cli(capsys, *[where.get(a, a) for a in argv + out])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
