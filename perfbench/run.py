#!/usr/bin/env python3
"""msolab benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload {acceptance,cli,deep,all} --seed N
                             --seconds S --trace {0,1} [--out FILE]

Run from the repository root. The program is run from `src/` as checked out,
through its CLI (`acceptance`, `cli`) or through its public library calls in
a worker process (`deep`); every input is generated from --seed. Each
operation's output is checked, and a failed check counts in `failed`.

With --trace 0 the last line of standard output is the result object with
the end-to-end metrics. With --trace 1 the first half of the run is
untraced and the second half traced (see tracer.py); the result then holds
the per-layer metrics, per traced operation, plus the tracing overhead.
Why each workload exists is written in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import tracer  # noqa: E402
from child import DEEP_DEPTHS  # noqa: E402

CLI_DEPTHS = (16, 64, 256)
# One shift_invariance_defect call at M=256 takes about 96 s; its growth is
# read from the M=16 and M=64 layer numbers instead.
SHIFT_MAX_DEPTH = 64
# Every deep case uses fresh inner functions, and msolab's lru caches keep
# about 120 MB per M=400 case alive; a worker process runs this many cases
# and exits, which bounds its memory at a fixed sweep length.
DEEP_BATCH = 4
SETUP_REPEATS = 9
CHILD_TIMEOUT = 100.0
SUITE_BUDGETS = {"forward_and_roundtrip": 60.0, "nullspace_dimensions": 5.0,
                 "isometry_convergence": 30.0}
# Shapes carried over from benchmarks/bench_kernels.py.
CONVOLVE_SHAPES = ((9, 40), (9, 320), (64, 64), (320, 9), (520, 520))
INNER_SHIFTED_SIZES = (40, 320, 520)

END_TO_END = {"setup_s": "s", "op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Spawns the program, checks its outputs and tallies the verdicts."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def judge(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def spawn(self, argv: list[str]) -> tuple[int, str]:
        try:
            proc = subprocess.run([sys.executable, *argv], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            return -1, ""
        return proc.returncode, proc.stdout

    def msolab(self, args: list[str], layers: Layers | None, context: dict):
        """One CLI command; traced through child.py when `layers` is given."""
        if layers is None:
            return self.spawn(["-m", "msolab.cli", *args])
        spans = self.work / "spans.json"
        spawned = time.monotonic()
        code, out = self.spawn([str(HERE / "child.py"), "cli", str(spans), "--", *args])
        if spans.exists():
            payload = json.loads(spans.read_text())
            spans.unlink()
            layers.add(payload, dict(context, spawned=spawned))
        return code, out


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _parse(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


# -- workloads ---------------------------------------------------------------
#
# Each workload's batch() runs one or more operations and returns one record
# per operation: wall seconds, CPU seconds and named parts.

class Acceptance:
    """`msolab suite acceptance --seed S` with the shipped worker pool."""

    entry = "msolab.cli"

    def __init__(self, runner: Runner):
        self.r = runner
        self.first_report: str | None = None

    def batch(self, layers):
        c0, t0 = _children_cpu(), time.perf_counter()
        code, out = self.r.msolab(["suite", "acceptance", "--seed", str(self.r.seed)],
                                  layers, {})
        wall, cpu = time.perf_counter() - t0, _children_cpu() - c0
        if self.first_report is None and code == 0:
            self.first_report = out
        self.r.judge(code == 0 and _parse(out).get("pass") is True
                     and out == self.first_report, f"acceptance exit {code}")
        return [{"wall": wall, "cpu": cpu, "parts": {}}]


class Cli:
    """A four-command chain per depth on a fresh case, one process each."""

    entry = "msolab.cli"

    def __init__(self, runner: Runner):
        self.r = runner
        self.stream = cases.CaseStream(runner.seed)

    def chain(self, case: dict, M: int, layers, tamper=None) -> None:
        """`tamper(path)`, when given, edits the built payload before the
        checks run; the tests use it to show that a broken operator fails."""
        payload = str(self.r.work / f"op_{M}.json")
        checks = "shift,blocks,adtto,analytic" if M <= SHIFT_MAX_DEPTH else "blocks,adtto,analytic"
        ctx = {"M": M}
        code, _ = self.r.msolab(
            ["build", "dtto", "--theta", json.dumps(case["theta"]),
             "--alpha", json.dumps(case["alpha"]), "--symbol", json.dumps(case["symbol"]),
             "--M", str(M), "--out", payload], layers, dict(ctx, command="build"))
        self.r.judge(code == 0 and os.path.exists(payload), f"build M={M} exit {code}")
        if tamper is not None:
            tamper(payload)

        code, out = self.r.msolab(["check", payload, "--checks", checks], layers,
                                  dict(ctx, command="check"))
        self.r.judge(_check_ok(case, code, _parse(out)), f"check M={M} exit {code}")

        for method in ("zbar", "boundary"):
            code, out = self.r.msolab(["recover", payload, "--method", method], layers,
                                      dict(ctx, command="recover"))
            self.r.judge(code == 0 and _recover_ok(case, _parse(out)),
                         f"recover {method} M={M} exit {code}")
        if os.path.exists(payload):
            os.unlink(payload)

    def batch(self, layers):
        case = self.stream.next()
        c0, t0 = _children_cpu(), time.perf_counter()
        parts = {}
        for M in CLI_DEPTHS:
            start = time.perf_counter()
            self.chain(case, M, layers)
            parts[f"m{M}"] = time.perf_counter() - start
        return [{"wall": time.perf_counter() - t0, "cpu": _children_cpu() - c0,
                 "parts": parts}]


def _check_ok(case: dict, code: int, report: dict) -> bool:
    # the analytic verdict is false exactly when the symbol has negative-degree
    # terms, and then the check command rightly exits 1
    analytic = cases.is_analytic(case)
    reports = report.get("reports") or []
    return (code == (0 if analytic else 1) and bool(reports)
            and all(rep.get("pass") is True for rep in reports)
            and report.get("analytic", {}).get("analytic") is analytic)


def _recover_ok(case: dict, report: dict) -> bool:
    tol = report.get("tolerance")
    if report.get("pass") is not True or tol is None or "symbol" not in report:
        return False
    return report["residual"] <= tol and cases.symbol_error(case, report["symbol"]) <= tol


class Deep:
    """Library pipeline at M=200 and M=400 on fresh cases, in worker
    processes of DEEP_BATCH cases each; times are taken inside the worker."""

    entry = "msolab"

    def __init__(self, runner: Runner):
        self.r = runner
        self.stream = cases.CaseStream(runner.seed)

    def batch(self, layers):
        batch = [self.stream.next() for _ in range(DEEP_BATCH)]
        cases_path = self.r.work / "cases.json"
        results_path = self.r.work / "results.json"
        cases_path.write_text(json.dumps(batch))
        argv = [str(HERE / "child.py"), "deep", str(cases_path), str(results_path)]
        spans = self.r.work / "spans.json"
        if layers is not None:
            argv.append(str(spans))
        code, _ = self.r.spawn(argv)
        results = json.loads(results_path.read_text()) if results_path.exists() else []
        for path in (cases_path, results_path):
            if path.exists():
                path.unlink()
        if layers is not None and spans.exists():
            layers.add(json.loads(spans.read_text()), {"deep": True})
            spans.unlink()
        ops = []
        for i, case in enumerate(batch):
            rows = results[i * len(DEEP_DEPTHS):(i + 1) * len(DEEP_DEPTHS)]
            for M in DEEP_DEPTHS:
                row = next((row for row in rows if row.get("M") == M), {})
                self.r.judge(code == 0 and _deep_ok(case, row), f"deep M={M} exit {code}")
            if len(rows) == len(DEEP_DEPTHS):
                ops.append({"wall": sum(r["end"] - r["start"] for r in rows),
                            "cpu": sum(r["cpu_s"] for r in rows),
                            "parts": {f"m{r['M']}": r["end"] - r["start"] for r in rows}})
        return ops


def _deep_ok(case: dict, row: dict) -> bool:
    if "error" in row or "tolerance" not in row:
        return False
    tol = row["tolerance"]
    recovered = all(row[m]["residual"] <= tol
                    and cases.symbol_error(case, row[m]["symbol"]) <= tol
                    for m in ("zbar", "boundary"))
    return row["reports_pass"] and recovered and row["analytic"] is cases.is_analytic(case)


WORKLOADS = {"acceptance": Acceptance, "cli": Cli, "deep": Deep}


# -- per-layer aggregation ---------------------------------------------------

IO_SPANS = ("cli.json.loads", "cli.json.dumps",
            "operators.BlockOperator.to_json", "operators.BlockOperator.from_json")


class Layers:
    """Sums spans, counters and cache statistics over traced processes."""

    def __init__(self):
        self.spans: dict[str, list] = {}      # name -> [calls, total, self, cpu]
        self.counters: dict[str, list] = {}   # name -> [calls, total, flops, bytes]
        self.caches: dict[str, list] = {}     # layer -> [hits, misses]
        self.extra: dict[str, float] = {}
        self.process_starts: list[float] = []
        self.root_s = 0.0
        self.missing: set[str] = set()

    def _bump(self, key: str, value: float):
        self.extra[key] = self.extra.get(key, 0.0) + value

    def add(self, payload: dict, context: dict):
        self.missing.update(payload.get("missing") or ())
        spans = payload["spans"]
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for sid, name, t0, t1, parent, thread, cpu in spans:
            if parent in by_id:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        M = context.get("M")
        for sid, name, t0, t1, parent, thread, cpu in spans:
            dur = t1 - t0
            rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child_time.get(sid, 0.0)
            rec[3] += cpu
            if name in ("characterize.shift_invariance_defect",
                        "spaces.admissible_for_shift") and M is not None:
                self._bump(f"{name}.m{M}.total_s", dur)
            if name in IO_SPANS and not _has_ancestor(by_id, parent, IO_SPANS):
                self._bump("cli.payload_io_s", dur)
            if name == "cli.main":
                self.root_s += dur
                if context.get("command") == "check":
                    self._bump(f"cli.m{M}.check_s", dur)
            elif "deep" in context and parent == -1:
                self.root_s += dur
        for name, rec in payload["counters"].items():
            acc = self.counters.setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, v in enumerate(rec):
                acc[i] += v
        for layer, (hits, misses) in payload["caches"].items():
            acc = self.caches.setdefault(layer, [0, 0])
            acc[0] += hits
            acc[1] += misses
        if "ready" in payload and "spawned" in context:
            self.process_starts.append(payload["ready"] - context["spawned"])


def _has_ancestor(by_id: dict, parent: int, names) -> bool:
    while parent in by_id:
        span = by_id[parent]
        if span[1] in names:
            return True
        parent = span[4]
    return False


class LayerReport:
    """Per-operation views of one traced run's Layers."""

    def __init__(self, layers: Layers, traced: list, untraced: list, kernel_us: dict):
        self.layers, self.traced, self.untraced = layers, traced, untraced
        self.kernel_us = kernel_us
        self.n = max(len(traced), 1)

    def span(self, name: str, i: int) -> float:
        return self.layers.spans.get(name, [0, 0.0, 0.0, 0.0])[i] / self.n

    def counter(self, name: str, i: int) -> float:
        return self.layers.counters.get(name, [0, 0.0, 0.0, 0.0])[i] / self.n

    def extra(self, key: str) -> float:
        return self.layers.extra.get(key, 0.0) / self.n

    def cpu_over_wall(self, name: str) -> float:
        rec = self.layers.spans.get(name, [0, 0.0, 0.0, 0.0])
        return rec[3] / rec[1] if rec[1] else 0.0

    def headroom(self, name: str, budget: float) -> float:
        wall = self.span(name, 1)
        return 1.0 - wall / budget if wall else 0.0

    def flops_per_byte(self) -> float:
        nbytes = self.counter("kernels.convolve", 3)
        return self.counter("kernels.convolve", 2) / nbytes if nbytes else 0.0

    def hit_ratio(self, layer: str) -> float:
        hits, misses = self.layers.caches.get(layer, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    def process_start(self) -> float:
        starts = self.layers.process_starts
        return statistics.median(starts) if starts else 0.0

    def part(self, key: str) -> float:
        parts = [op["parts"][key] for op in self.untraced if key in op["parts"]]
        return statistics.median(parts) if parts else 0.0

    def overhead(self) -> float:
        plain = statistics.median(op["wall"] for op in self.untraced)
        return statistics.median(op["wall"] for op in self.traced) / plain - 1.0

    def coverage(self) -> float:
        return self.layers.root_s / sum(op["wall"] for op in self.traced)


def _layer_table() -> list:
    """(name, unit, better, value(report)) of every per-layer metric, in
    report order; BENCHMARK.json lists the same names."""
    rows = []
    for c in tracer.CRITERIA:
        rows += [(f"suites.{c}.wall_s", "s/op", "lower", lambda r, c=c: r.span(f"suites.{c}", 1)),
                 (f"suites.{c}.cpu_over_wall", "ratio", "lower",
                  lambda r, c=c: r.cpu_over_wall(f"suites.{c}"))]
    rows += [(f"suites.{c}.budget_headroom", "ratio", "higher",
              lambda r, c=c, b=b: r.headroom(f"suites.{c}", b)) for c, b in SUITE_BUDGETS.items()]
    for name in ("laurent.multiply", "bases.OrthonormalBasis.coords",
                 "bases.OrthonormalBasis.coords_and_defect",
                 "bases.OrthonormalBasis.reconstruct", "inner.expand", "inner.tm_basis"):
        rows += [(f"{name}.calls", "count/op", "lower", lambda r, n=name: r.counter(n, 0)),
                 (f"{name}.total_s", "s/op", "lower", lambda r, n=name: r.counter(n, 1))]
    for name in ("laurent.inner_product", "kernels.convolve", "kernels.inner_shifted"):
        rows.append((f"{name}.calls", "count/op", "lower", lambda r, n=name: r.counter(n, 0)))
    rows += [("kernels.convolve.flops_computed", "flop/op", "lower",
              lambda r: r.counter("kernels.convolve", 2)),
             ("kernels.convolve.bytes_computed", "B/op", "lower",
              lambda r: r.counter("kernels.convolve", 3)),
             ("kernels.convolve.flops_per_byte_computed", "flop/B", "higher",
              lambda r: r.flops_per_byte())]
    kernel_names = [f"kernels.convolve.{a}x{b}.us" for a, b in CONVOLVE_SHAPES]
    kernel_names += [f"kernels.inner_shifted.n{n}.us" for n in INNER_SHIFTED_SIZES]
    rows += [(k, "us", "lower", lambda r, k=k: r.kernel_us[k]) for k in kernel_names]
    rows += [(f"{layer}.cache_hit_ratio", "ratio", "higher", lambda r, x=layer: r.hit_ratio(x))
             for layer in tracer.CACHES]
    rows += [("operators.build_dtto.calls", "count/op", "lower",
              lambda r: r.span("operators.build_dtto", 0)),
             ("operators.build_dtto.self_s", "s/op", "lower",
              lambda r: r.span("operators.build_dtto", 2)),
             ("operators.build_dtto.total_s", "s/op", "lower",
              lambda r: r.span("operators.build_dtto", 1)),
             ("operators.build_tto.calls", "count/op", "lower",
              lambda r: r.span("operators.build_tto", 0))]
    for name in ("check_adtto", "check_block_conditions", "is_analytic_adtto"):
        base = f"characterize.{name}"
        rows += [(f"{base}.calls", "count/op", "lower", lambda r, b=base: r.span(b, 0)),
                 (f"{base}.self_s", "s/op", "lower", lambda r, b=base: r.span(b, 2))]
    for method in ("zbar", "boundary"):
        base = f"characterize.recover_symbol.{method}"
        rows += [(f"{base}.calls", "count/op", "lower", lambda r, b=base: r.span(b, 0)),
                 (f"{base}.self_s", "s/op", "lower", lambda r, b=base: r.span(b, 2)),
                 (f"{base}.total_s", "s/op", "lower", lambda r, b=base: r.span(b, 1))]
    for name in ("characterize.shift_invariance_defect", "spaces.admissible_for_shift"):
        rows += [(k, "s/op", "lower", lambda r, k=k: r.extra(k))
                 for k in (f"{name}.m{M}.total_s" for M in CLI_DEPTHS if M <= SHIFT_MAX_DEPTH)]
    for name in ("pair", "gen_M", "gen_shift_pair", "represent_functional",
                 "transitivity_probe"):
        base = f"annihilate.{name}"
        rows += [(f"{base}.calls", "count/op", "lower", lambda r, b=base: r.span(b, 0)),
                 (f"{base}.self_s", "s/op", "lower", lambda r, b=base: r.span(b, 2))]
    rows += [("cli.process_start_s", "s", "lower", lambda r: r.process_start()),
             ("cli.payload_io_s", "s/op", "lower", lambda r: r.extra("cli.payload_io_s")),
             ("cli.m64.check_s", "s/op", "lower", lambda r: r.extra("cli.m64.check_s"))]
    rows += [(f"cli.m{M}.chain_s", "s", "lower", lambda r, k=f"m{M}": r.part(k))
             for M in CLI_DEPTHS]
    rows += [(f"deep.m{M}.cases_per_s", "1/s", "higher",
              lambda r, k=f"m{M}": 1.0 / r.part(k) if r.part(k) else 0.0) for M in DEEP_DEPTHS]
    rows += [("trace.overhead_frac", "ratio", "lower", lambda r: r.overhead()),
             ("trace.span_coverage", "ratio", "higher", lambda r: r.coverage())]
    return rows


def per_layer_names() -> list[tuple[str, str, str]]:
    return [(name, unit, better) for name, unit, better, _ in _layer_table()]


def kernel_timings() -> dict:
    """Median microseconds per call of msolab's public band kernels at the
    shapes benchmarks/bench_kernels.py uses, whichever backend is active."""
    import numpy as np

    from msolab import kernels
    rng = np.random.default_rng(7)

    def coeffs(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def per_call_us(fn, *args, repeats):
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(repeats):
                fn(*args)
            rounds.append((time.perf_counter() - t0) / repeats * 1e6)
        return statistics.median(rounds)

    out = {}
    for a, b in CONVOLVE_SHAPES:
        out[f"kernels.convolve.{a}x{b}.us"] = per_call_us(
            kernels.convolve, coeffs(a), coeffs(b), repeats=max(50, 50000 // (a * b)))
    for n in INNER_SHIFTED_SIZES:
        out[f"kernels.inner_shifted.n{n}.us"] = per_call_us(
            kernels.inner_shifted, coeffs(n), coeffs(n + 16), 7, repeats=500)
    return out


# -- environment -------------------------------------------------------------

def environment() -> dict:
    """Where and with what the numbers were taken."""
    import numpy as np

    import msolab
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": threads or "library default",
            "msolab_have_compiled": getattr(msolab, "HAVE_COMPILED", "absent"),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


# -- running a workload ------------------------------------------------------

def setup_seconds(runner: Runner, entry: str) -> float:
    """Median time for a fresh interpreter to import the program's entry
    module: what every command pays before it does any work."""
    argv = ["-c", f"import {entry}"]
    runner.spawn(argv)  # writes bytecode caches on a fresh checkout
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _ = runner.spawn(argv)
        samples.append(time.perf_counter() - t0)
        runner.judge(code == 0, f"import {entry} exit {code}")
    return statistics.median(samples)


def run_ops(workload, layers, until: float) -> list:
    ops = []
    while not ops or time.perf_counter() < until:
        got = workload.batch(layers)
        if not got:
            break
        ops += got
    return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work, seed)
    workload = WORKLOADS[name](runner)
    setup = setup_seconds(runner, workload.entry)
    t0 = time.perf_counter()
    if not trace:
        ops = run_ops(workload, None, t0 + seconds)
        walls = [op["wall"] for op in ops]
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = {"setup_s": setup, "op_s": statistics.median(walls),
                   "cpu_s": statistics.median(op["cpu"] for op in ops),
                   "peak_rss_mb": peak}
        named = _named_metrics(name, ops, setup, peak, runner)
        result = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        untraced = run_ops(workload, None, t0 + seconds / 2)
        layers = Layers()
        traced = run_ops(workload, layers, t0 + seconds)
        report = LayerReport(layers, traced, untraced, kernel_timings())
        result = {metric: {"value": value(report), "unit": unit}
                  for metric, unit, _, value in _layer_table()}
        named = {"traced_ops": (len(traced), "count"), "untraced_ops": (len(untraced), "count"),
                 "fail_frac": (runner.failed / max(runner.attempted, 1), "share")}
        if layers.missing:
            print(f"note: entry points not found, reported as 0: {sorted(layers.missing)}")
        ops = traced
    return {"workload": name, "result": result, "named": named, "ops": len(ops),
            "attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures}


def _named_metrics(name: str, ops: list, setup: float, peak: float, runner: Runner) -> dict:
    """The workload's end-to-end figures under their user-facing names."""
    named = {"setup_s": (setup, "s"), "peak_rss_mb": (peak, "MB"),
             "fail_frac": (runner.failed / max(runner.attempted, 1), "share")}
    if name == "acceptance":
        named["acceptance_s"] = (statistics.median(op["wall"] for op in ops), "s")
    for M in CLI_DEPTHS if name == "cli" else ():
        named[f"cli_m{M}_s"] = (statistics.median(op["parts"][f"m{M}"] for op in ops), "s")
    for M in DEEP_DEPTHS if name == "deep" else ():
        named[f"deep_m{M}_cases_per_s"] = (
            1.0 / statistics.median(op["parts"][f"m{M}"] for op in ops), "1/s")
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "msolab" / "cli.py").is_file():
        print(f"error: msolab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        _remove_work(work)
    print(f"workload {args.workload}: seed {args.seed}, {rec['ops']} operations, "
          f"{rec['attempted']} checks, {rec['failed']} failed")
    for failure in rec["failures"]:
        print(f"  failed: {failure}")
    for key, (value, unit) in rec["named"].items():
        print(f"  {key} = {value:.6g} {unit}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": [rec]}, fh, indent=2)
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["result"]}))
    return 0


def run_all(args) -> int:
    """Every workload at one seed, each in its own process so that peak RSS
    and CPU time start from zero for each."""
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    records, results = [], {}
    try:
        for name in WORKLOADS:
            out = work / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out)],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            results[name] = json.loads(lines[-1])
            records.append(json.loads(out.read_text()))
    finally:
        _remove_work(work)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**records[0], "workloads": [r["workloads"][0] for r in records]},
                      fh, indent=2)
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed,
                      "metrics": {f"{name}.{k}": v for name, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return 0


def _remove_work(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run still uses it

if __name__ == "__main__":
    sys.exit(main())
