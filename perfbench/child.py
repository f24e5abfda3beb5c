"""Child-process entry for the benchmark.

    python3 perfbench/child.py cli SPANS -- <msolab CLI arguments>
    python3 perfbench/child.py deep CASES RESULTS [SPANS]

`cli` runs one msolab CLI command with the tracer installed and writes its
spans to SPANS when the command ends (untraced commands run `python3 -m
msolab.cli` directly). `deep` runs the library pipeline on each case in
CASES at every depth in DEEP_DEPTHS, writes the raw outcomes to RESULTS for
the parent to judge, and traces when SPANS is given.
"""

from __future__ import annotations

import json
import os
import sys
import time

DEEP_DEPTHS = (200, 400)

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]


def _traced():
    import tracer
    t = tracer.Tracer()
    missing = tracer.install(t)
    return t, missing


def run_cli(spans_path: str, argv: list[str]) -> int:
    import msolab.cli
    t, missing = _traced()
    ready = time.monotonic()
    code = 1
    try:
        code = t.span("cli.main", msolab.cli.main)(argv)
    finally:
        t.dump(spans_path, ready=ready, exit_code=code, missing=missing)
    return code


def _pipeline(case: dict, M: int) -> dict:
    # module attributes are looked up at call time so the tracer's wrappers run
    from msolab import characterize, inner, laurent, operators
    theta = inner.BlaschkeProduct.from_json(case["theta"])
    alpha = inner.BlaschkeProduct.from_json(case["alpha"])
    symbol = operators.SymbolFunction(laurent.LaurentPolynomial.from_json(case["symbol"]))
    D = operators.build_dtto(theta, alpha, symbol, M)
    adtto = characterize.check_adtto(D)
    blocks = characterize.check_block_conditions(D)
    s_zbar, r_zbar = characterize.recover_symbol(D, "zbar")
    s_boundary, r_boundary = characterize.recover_symbol(D, "boundary")
    analytic = characterize.is_analytic_adtto(D)
    return {"M": M,
            "reports_pass": bool(adtto.passed and all(r.passed for r in blocks)),
            "tolerance": characterize.default_tolerance(theta, alpha),
            "zbar": {"symbol": s_zbar.value.to_json(), "residual": r_zbar},
            "boundary": {"symbol": s_boundary.value.to_json(), "residual": r_boundary},
            "analytic": bool(analytic.analytic)}


def run_deep(cases_path: str, results_path: str, spans_path: str | None) -> int:
    import msolab  # noqa: F401
    t = missing = None
    if spans_path:
        t, missing = _traced()
    with open(cases_path) as fh:
        cases = json.load(fh)
    results = []
    try:
        for case in cases:
            for M in DEEP_DEPTHS:
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    out = _pipeline(case, M)
                except Exception as exc:  # judged as a failed case by the parent
                    out = {"M": M, "error": f"{type(exc).__name__}: {exc}"}
                out["start"], out["end"] = t0, time.perf_counter()
                out["cpu_s"] = time.process_time() - c0
                results.append(out)
    finally:
        with open(results_path, "w") as fh:
            json.dump(results, fh)
        if t is not None:
            t.dump(spans_path, missing=missing)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        if len(argv) < 3 or argv[2] != "--":
            raise SystemExit("usage: child.py cli SPANS -- ARGS...")
        return run_cli(argv[1], argv[3:])
    if mode == "deep":
        return run_deep(argv[1], argv[2], argv[3] if len(argv) > 3 else None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
