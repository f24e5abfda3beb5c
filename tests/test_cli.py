import copy
import gc
import json
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msolab import characterize, cli
from msolab.cli import main
from msolab.inner import BlaschkeProduct, monomial_inner
from msolab.laurent import MAX_DEGREE, LaurentPolynomial
from msolab.operators import build_dtto, build_tto

from conftest import dense_noise_operator
from oracles import svd_rebuild_residual

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


def test_build_keeps_signed_zeros(capsys):
    """theta and alpha differ only in the sign of a zero's real part; the
    payload keeps each as given."""
    code, out, _ = run_cli(capsys, "build", "tto",
                           "--theta", '{"zeros": [[0.0, 0.5]]}',
                           "--alpha", '{"zeros": [[-0.0, 0.5]]}', "--symbol", "z")
    assert code == 0
    assert '"zeros": [[-0.0, 0.5]]' in json.dumps(json.loads(out)["alpha"])
    assert '"zeros": [[0.0, 0.5]]' in json.dumps(json.loads(out)["theta"])


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
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", "blocks,adtto")
    assert code == 1
    report = json.loads(out)
    failing = [rep for rep in report["reports"] if not rep["pass"]]
    assert any(rep["condition"] == "that-toeplitz" and
               rep["defect"] == pytest.approx(1.0) for rep in failing)
    assert all(rep["witnesses"] for rep in failing)
    # a witness witnesses: every listed entry exceeds its report's tolerance
    assert all(w[-1] > rep["tolerance"]
               for rep in report["reports"] for w in rep["witnesses"])


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


def test_recover_verdict_inside_the_bracket_is_the_svd_verdict(tmp_path, capsys,
                                                             rebuilds):
    D = dense_noise_operator()
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(D.to_json()))
    characterize.recover_symbol(D, "boundary")
    oracle = svd_rebuild_residual(D, rebuilds[-1])
    # the tol at the SVD value passes, the next float below fails; both lie
    # inside the norm bracket, so the CLI must compute that value
    for tol, verdict in ((oracle, 0), (np.nextafter(oracle, 0.0), 1)):
        code, out, _ = run_cli(capsys, "recover", str(path), "--method",
                               "boundary", "--tol", repr(float(tol)))
        assert code == verdict
        assert json.loads(out)["residual"] == oracle


@pytest.mark.parametrize("M", [16, 64, 256])
def test_recover_passes_on_built_blaschke_payloads(tmp_path, capsys, M):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", '{"zeros": [[0.5, -0.3]]}',
                   "--alpha", '{"zeros": [[0.2, 0.6], [-0.4, 0.0]]}',
                   "--symbol", SHIFT_SYMBOL, "--M", str(M),
                   "--out", str(path))[0] == 0
    for method in ("zbar", "boundary"):
        code, out, _ = run_cli(capsys, "recover", str(path), "--method", method)
        assert code == 0
        report = json.loads(out)
        assert report["residual"] <= report["tolerance"]


def test_near_boundary_payload_reads_back(tmp_path, capsys):
    """A theta with a zero past RHO_SOFT_LIMIT is built only on request; the
    payload keeps the request, so its own check and recover accept it."""
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto",
                   "--theta", '{"zeros": [[0.96, 0]], "allow_near_boundary": true}',
                   "--symbol", "z", "--M", "300", "--out", str(path))[0] == 0
    payload = json.loads(path.read_text())
    assert payload["theta"] == payload["alpha"] == {
        "allow_near_boundary": True, "constant": [1.0, 0.0], "zeros": [[0.96, 0.0]]}
    assert run_cli(capsys, "check", str(path))[0] == 0
    for method in ("zbar", "boundary"):
        assert run_cli(capsys, "recover", str(path), "--method", method)[0] == 0


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


# -- payload layout and the garbage collector ----------------------------------

BLASCHKE_CASE = ("--theta", '{"zeros": [[0.5, -0.3]]}',
                 "--alpha", '{"zeros": [[0.2, 0.6], [-0.4, 0.0]]}',
                 "--symbol", SHIFT_SYMBOL)


@pytest.mark.parametrize("argv", [("tto",), ("dtto", "--M", "16")])
def test_build_payload_is_one_compact_line(capsys, argv):
    code, out, _ = run_cli(capsys, "build", *argv, *BLASCHKE_CASE)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert payload == json.loads(json.dumps(payload, indent=2, sort_keys=True))


@pytest.mark.parametrize("M", [16, 64])
def test_indented_payloads_give_the_same_reports(tmp_path, capsys, M):
    """Check and recover read a compact payload and its indented re-dump (the
    layout build wrote before) to the same bytes and exit code. The one
    exception is the boundary residual: the compact payload is read as
    views, whose residual comes from window sums of the difference
    sequences, and the indented one as dense blocks, read in bands; the two
    sums are added in other orders and agree within 2 (dim + 4) ulps."""
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    assert run_cli(capsys, "build", "dtto", *BLASCHKE_CASE, "--M", str(M),
                   "--out", str(compact))[0] == 0
    indented.write_text(json.dumps(json.loads(compact.read_text()), indent=2,
                                   sort_keys=True) + "\n")
    codes = set()
    for argv in (("check", "--checks", "shift,blocks,adtto,analytic"),
                 ("recover", "--method", "zbar"), ("recover", "--method", "boundary")):
        runs = [run_cli(capsys, argv[0], str(path), *argv[1:])
                for path in (compact, indented)]
        if argv[-1] == "boundary":
            sequenced, banded = (json.loads(out) for _, out, _ in runs)
            a, b = sequenced.pop("residual"), banded.pop("residual")
            assert abs(a - b) <= 2 * (2 * M + 6) * np.finfo(float).eps * b
            assert (runs[0][0], sequenced) == (runs[1][0], banded)
        else:
            assert runs[0][:2] == runs[1][:2]
        codes.add(runs[0][0])
    # the analytic check fails on the zbar term of the symbol
    assert codes == {0, 1}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's collector state before main, restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (("build", "dtto", "--theta", Z2, "--symbol", "z^-1", "--M", "8"), 0),
    (("check", "OP", "--checks", "analytic"), 1),
    (("check", "JUNK"), 2),
    (("build", "dtto", "--theta", Z2, "--symbol", "{not json"), 2),
], ids=["build", "check-fails", "invalid-payload", "invalid-symbol"])
def test_main_restores_the_collector_state(tmp_path, capsys, collector, argv, code):
    op, junk = tmp_path / "op.json", tmp_path / "junk.json"
    was = gc.isenabled()
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z^-1",
                   "--M", "8", "--out", str(op))[0] == 0
    junk.write_text("{not json")
    assert gc.isenabled() is was
    files = {"OP": str(op), "JUNK": str(junk)}
    assert run_cli(capsys, *(files.get(a, a) for a in argv))[0] == code
    assert gc.isenabled() is collector


def test_payload_steps_run_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    seen, pieces = [], []

    def recording(fn):
        def call(*args, **kwargs):
            seen.append((fn.__name__, gc.isenabled()))
            return fn(*args, **kwargs)
        return call

    def streaming(fn):
        # the streamed writer does its work as each piece is taken
        def call(*args):
            seen.append((fn.__name__, gc.isenabled()))
            for piece in fn(*args):
                pieces.append(gc.isenabled())
                yield piece
        return call

    shim = types.SimpleNamespace(loads=recording(json.loads), dumps=recording(json.dumps))
    monkeypatch.setattr(cli, "json", shim)
    monkeypatch.setattr(cli, "read_operator_text", recording(cli.read_operator_text))
    monkeypatch.setattr(cli, "write_operator_text", streaming(cli.write_operator_text))
    path, indented = tmp_path / "op.json", tmp_path / "indented.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
                   "--M", "8", "--out", str(path))[0] == 0
    indented.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    assert seen == [("write_operator_text", False)]
    # every piece, block rows included, is made with the collector paused
    assert len(pieces) > 4 * 9 and not any(pieces)
    del seen[:]
    # the compact read, then the report
    assert run_cli(capsys, "check", str(path))[0] == 0
    assert seen == [("read_operator_text", False), ("dumps", False)]
    del seen[:]
    # any other layout: the compact reader declines, the generic read of the
    # whole tree, then the report
    assert run_cli(capsys, "check", str(indented))[0] == 0
    assert seen == [("read_operator_text", False), ("loads", False), ("dumps", False)]
    assert gc.isenabled()


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
    '{"zeros": [[0.97, 0]], "allow_near_boundary": "false"}',
    '{"zeros": [[0.5, 0]], "allow_near_boundary": [0]}',
    '{"zeros": [["0.3", false]]}',
    '{"zeros": [[0.5, 0]], "constant": [true, 0]}',
], ids=["nan-zero", "inf-zero", "short-constant", "text-constant", "nan-constant",
        "text-flag", "list-flag", "text-and-bool-zero", "bool-constant"])
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
    '{"coeffs": [[1, "1.5", 0]]}',
    '{"coeffs": [[1, true, 0]]}',
], ids=["nan", "inf", "inf-degree", "not-a-list", "fractional-degree",
        "float-degree", "bool-degree", "string-degree", "string-coefficient",
        "bool-coefficient"])
def test_build_rejects_bad_symbol(capsys, symbol):
    assert_one_line_input_error(*run_cli(capsys, "build", "dtto", "--theta", Z2,
                                         "--symbol", symbol))
    assert_one_line_input_error(*run_cli(capsys, "suite", "fuzz", "--cases", "1",
                                         "--symbol", symbol))


_MATRIX_KEYS = {"entries", "That", "GammaCheck", "GammaHat", "TCheck"}


def _field_paths(node, path=()):
    """Paths to every number outside the matrices of a payload, and to one
    entry of each matrix and to that entry's first number."""
    if path and path[-1] in _MATRIX_KEYS:
        return [path + (1, 0), path + (1, 0, 0)]
    if isinstance(node, dict):
        return [p for key in node for p in _field_paths(node[key], path + (key,))]
    if isinstance(node, list):
        return [p for i, item in enumerate(node) for p in _field_paths(item, path + (i,))]
    return [path]


def _replaced(payload, path, value):
    payload = copy.deepcopy(payload)
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    return payload


def _bad_fields(payload):
    """(path, value) pairs that make a valid payload invalid."""
    bad = [(where, value) for where in _field_paths(payload)
           for value in ("1", True, None, [], {})]
    bad += [(where, entry) for where in _field_paths(payload)
            if len(where) > 2 and where[-3] in _MATRIX_KEYS
            for entry in (["1e-300", "0", {"junk": 1}], ["1e-300", "0"],
                          [True, False])]
    if "edge" in payload:
        bad += [(("edge",), value) for value in ([1, {"x": 2}], "3", -1)]
    return bad


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
    # every number of both payload kinds, and one entry of every matrix,
    # replaced by a value of another JSON type
    accepted = []
    for payload in _VALID_PAYLOADS:
        path.write_text(json.dumps(payload))
        assert run_cli(capsys, "check", str(path), "--checks", "shift")[0] == 0
        for where, value in _bad_fields(payload):
            path.write_text(json.dumps(_replaced(payload, where, value)))
            code, out, err = run_cli(capsys, "check", str(path), "--checks", "shift")
            if code != 2 or out or not err.startswith("error: ") or err.count("\n") != 1:
                accepted.append((where, value, code, err))
    assert accepted == []


def test_check_reads_integer_re_and_im(tmp_path, capsys):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", SHIFT_SYMBOL,
                   "--M", "10", "--out", str(path))[0] == 0
    text = path.read_text()
    as_ints = json.loads(text, parse_float=lambda s: int(float(s))
                         if float(s).is_integer() else float(s))
    assert 1 in as_ints["blocks"]["That"][1][0]
    reports = []
    for payload in (json.loads(text), as_ints):
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "check", str(path),
                               "--checks", "shift,blocks,adtto")
        reports.append((code, out))
    assert reports[0] == reports[1] and reports[0][0] == 0


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


_BEYOND_FLOAT_RANGE = {
    "infinite-depth": lambda p: {**p, "M": float("inf")},
    "huge-entry": lambda p: {**p, "blocks": {**p["blocks"], "That": [[[_HUGE, 0]]]}},
    "huge-zero": lambda p: {**p, "theta": {"zeros": [[_HUGE, 0]]}},
    "huge-constant": lambda p: {**p, "theta": {**p["theta"], "constant": [_HUGE, 0]}},
    "huge-tto-entry": lambda p: {"theta": p["theta"], "alpha": p["alpha"],
                                 "entries": [[[_HUGE, 0]]]},
}


@pytest.mark.parametrize("mutate", list(_BEYOND_FLOAT_RANGE.values()),
                         ids=list(_BEYOND_FLOAT_RANGE))
def test_check_rejects_numbers_beyond_float_range(tmp_path, capsys, mutate):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", "z",
                   "--M", "8", "--out", str(path))[0] == 0
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    assert_one_line_input_error(*run_cli(capsys, "check", str(path)))


_BAD_DEPTHS = [8.5, 8.0, True, "8"]


@pytest.mark.parametrize("depth", _BAD_DEPTHS,
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


# nested fields each reader must check, beside every top-level key
_NESTED_FIELDS = (("theta", "zeros", 0), ("alpha", "constant"), ("blocks", "That"),
                  ("edge",), ("theta", "allow_near_boundary"))


@st.composite
def _mutated(draw):
    """A valid payload with one top-level or nested field replaced by
    arbitrary JSON, or the dtto payload with one block entry moved, as a
    tree."""
    payload = copy.deepcopy(draw(st.sampled_from(_VALID_PAYLOADS)))
    if draw(st.booleans()):
        matrix = draw(st.sampled_from(list(payload["blocks"].values()))) \
            if "blocks" in payload else payload["entries"]
        cell = draw(st.sampled_from(draw(st.sampled_from(matrix))))
        cell[0] += draw(st.floats(0.01, 1))
    else:
        fields = [(key,) for key in sorted(payload)] + [
            f for f in _NESTED_FIELDS if len(f) == 1 or f[0] in payload]
        payload = _replaced(payload, draw(st.sampled_from(fields)), draw(_json_values))
    return payload


_payload_trees = st.one_of(st.sampled_from(_VALID_PAYLOADS), _mutated(), _json_values)
_payloads = st.one_of(_payload_trees.map(lambda p: json.dumps(p).encode()),
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


# -- build's compact layout and json.dumps' default layout read alike ----------

def _outcomes(path, payload, argvs, capsys):
    """(exit code, stdout, stderr) of each command on the payload written
    compactly, as build writes it, and in json.dumps' default layout."""
    runs = []
    for layout in ({"sort_keys": True, "separators": (",", ":")}, {}):
        path.write_text(json.dumps(payload, **layout))
        runs.append([run_cli(capsys, *(str(path) if a is PAYLOAD else a for a in argv))
                     for argv in argvs])
    return runs


def test_malformed_payloads_read_alike_in_both_layouts(tmp_path, capsys):
    """The corpus of the rejection tests above: the same exit code and the
    same error line, whether the compact reader or json.loads sees it."""
    path = tmp_path / "op.json"
    valid = build_dtto(monomial_inner(2), monomial_inner(2),
                       LaurentPolynomial.from_json({"coeffs": [[1, 1.0, 0.0]]}), 8).to_json()
    corpus = [_replaced(p, where, value) for p in _VALID_PAYLOADS
              for where, value in _bad_fields(p)]
    corpus += [mutate(valid) for mutate in _BEYOND_FLOAT_RANGE.values()]
    corpus += [{**valid, "M": depth} for depth in _BAD_DEPTHS]
    corpus += [_VALID_PAYLOADS[0], valid]
    differing = []
    for k, payload in enumerate(corpus):
        compact, default = _outcomes(path, payload, [["check", PAYLOAD, "--checks", "shift"],
                                                     ["check", PAYLOAD],
                                                     ["recover", PAYLOAD]], capsys)
        # (True == 1 in Python, so the two valid payloads go by position)
        if compact != default or compact[0][0] != (0 if k >= len(corpus) - 2 else 2):
            differing.append((payload, compact, default))
    assert differing == []


@given(payload=_payload_trees)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_payload_trees_read_alike_in_both_layouts(tmp_path, capsys, payload):
    """The payloads of the exit-code contract test, compact and default."""
    compact, default = _outcomes(tmp_path / "op.json", payload,
                                 [["check", PAYLOAD, "--checks", "shift,adtto"],
                                  ["recover", PAYLOAD]], capsys)
    assert compact == default


def test_repeated_check_names_run_and_report_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "op.json"
    assert run_cli(capsys, "build", "dtto", "--theta", Z2, "--symbol", SHIFT_SYMBOL,
                   "--M", "10", "--out", str(path))[0] == 0
    calls = []
    for name in ("shift_invariance_defect", "check_adtto"):
        def counted(*args, _fn=getattr(characterize, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(characterize, name, counted)
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", "shift,shift,adtto,adtto")
    report = json.loads(out)
    assert code == 0 and report["checks"] == ["shift", "adtto"]
    assert calls == ["shift_invariance_defect", "check_adtto"]
    conditions = [rep["condition"] for rep in report["reports"]]
    assert len(conditions) == len(set(conditions)) == 5


@pytest.mark.parametrize("checks", ["blocks,adtto", "adtto,blocks", "shift,blocks,adtto,analytic"])
@pytest.mark.parametrize("source", ["built-compact", "built-indented", "noise-indented"])
def test_blocks_and_adtto_take_the_block_residuals_once(tmp_path, capsys, monkeypatch,
                                                        checks, source):
    """With blocks and adtto both selected, check runs the block conditions
    once and reports, to the bit, what the separate calls give: on the
    views of a compact payload and on the owned blocks of an indented one,
    exact and noisy."""
    name, layout = source.split("-")
    op = (build_dtto(BlaschkeProduct([0.5, -0.3j]), BlaschkeProduct([0.4 + 0.2j]),
                     LaurentPolynomial({-1: 1.0, 2: 0.5j}), 24)
          if name == "built" else dense_noise_operator())
    path = tmp_path / "op.json"
    path.write_text("".join(cli._payload_pieces(op)) if layout == "compact"
                    else json.dumps(op.to_json(), indent=1))
    read = cli._read_operator(str(path))
    assert all(not b.flags.writeable for b in read.blocks()) == (layout == "compact")
    separate = {"shift": lambda: [characterize.shift_invariance_defect(read)],
                "blocks": lambda: characterize.check_block_conditions(read),
                "adtto": lambda: characterize.check_adtto(read).reports,
                "analytic": lambda: []}
    want = [rep.to_json() for c in checks.split(",") for rep in separate[c]()]
    calls = []

    def counted(*args, _fn=characterize.check_block_conditions, **kwargs):
        calls.append(args[0])
        return _fn(*args, **kwargs)
    monkeypatch.setattr(characterize, "check_block_conditions", counted)
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", checks)
    assert json.dumps(json.loads(out)["reports"], sort_keys=True) == \
        json.dumps(want, sort_keys=True)
    assert len(calls) == 1
