import json
import subprocess
import sys

import numpy as np
import pytest

from msolab.cli import main
from msolab.laurent import MAX_DEGREE

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
], ids=["nan", "inf", "inf-degree", "not-a-list"])
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
