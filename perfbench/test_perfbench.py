"""Tests of the benchmark's own input generation and correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert cases.make_cases(11, 5) == cases.make_cases(11, 5)
    assert cases.make_cases(11, 5) != cases.make_cases(12, 5)
    stream = cases.CaseStream(11)
    assert [stream.next() for _ in range(5)] == cases.make_cases(11, 5)


def test_generated_cases_cover_both_check_outcomes():
    flags = {cases.is_analytic(c) for c in cases.make_cases(0, 40)}
    assert flags == {True, False}


def _add_one_to_tcheck(path):
    payload = json.loads(Path(path).read_text())
    payload["blocks"]["TCheck"][5][7][0] += 1.0
    Path(path).write_text(json.dumps(payload))


@pytest.mark.parametrize("tamper, failed", [(None, 0), (_add_one_to_tcheck, 3)])
def test_tcheck_perturbation_lands_in_failures(tmp_path, tamper, failed):
    runner = run.Runner(tmp_path, seed=5)
    case = cases.make_cases(5, 1)[0]
    run.Cli(runner).chain(case, 16, None, tamper=tamper)
    # build, check, recover zbar, recover boundary; the build itself succeeds
    assert runner.attempted == 4
    assert runner.failed == failed


def test_deep_gate_rejects_a_wrong_symbol():
    case = cases.make_cases(2, 1)[0]
    symbol = case["symbol"]
    row = {"M": 200, "reports_pass": True, "tolerance": 1e-10,
           "analytic": cases.is_analytic(case),
           "zbar": {"symbol": symbol, "residual": 0.0},
           "boundary": {"symbol": symbol, "residual": 0.0}}
    assert run._deep_ok(case, row)
    wrong = {"coeffs": [[k, re + 1e-6, im] for k, re, im in symbol["coeffs"]]}
    assert not run._deep_ok(case, dict(row, boundary={"symbol": wrong, "residual": 0.0}))
    assert not run._deep_ok(case, dict(row, analytic=not row["analytic"]))


def test_traced_command_writes_nested_spans(tmp_path):
    case = cases.make_cases(4, 1)[0]
    payload, spans = tmp_path / "op.json", tmp_path / "spans.json"
    runner = run.Runner(tmp_path, seed=4)
    code, _ = runner.spawn(["-m", "msolab.cli", "build", "dtto",
                            "--theta", json.dumps(case["theta"]),
                            "--alpha", json.dumps(case["alpha"]),
                            "--symbol", json.dumps(case["symbol"]),
                            "--M", "16", "--out", str(payload)])
    assert code == 0
    code, out = runner.spawn([str(HERE / "child.py"), "cli", str(spans), "--",
                              "recover", str(payload), "--method", "boundary"])
    assert code == 0 and json.loads(out)["pass"]
    traced = json.loads(spans.read_text())
    assert traced["missing"] == []
    by_name = {s[1]: s for s in traced["spans"]}
    root = by_name["cli.main"]
    recover = by_name["characterize.recover_symbol.boundary"]
    assert by_name["operators.build_dtto"][4] == recover[0]
    assert root[4] == -1 and root[2] <= recover[2] <= recover[3] <= root[3]
    assert traced["counters"]["laurent.multiply"][0] > 0
    layers = run.Layers()
    layers.add(traced, {"M": 16, "command": "recover"})
    assert layers.extra["cli.payload_io_s"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_names()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
