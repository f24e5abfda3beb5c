"""Batch command-line interface.

    msolab build {tto|dtto} --theta Z --alpha Z --symbol J [--M N] [--out F]
    msolab check INPUT [--checks shift,blocks,adtto,analytic] [--tol T]
    msolab recover INPUT [--method {zbar|boundary}] [--tol T]
    msolab suite {acceptance|fuzz|convergence} [--seed S] [--cases N] ...

All payloads are JSON; inner functions also accept the shorthand "z^m" and
symbols the shorthand "z^k" / "z^-k". `build` writes its operator payload
compactly on one line; `check`, `recover` and `suite` write their reports
indented. Any whitespace loads. Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 invalid input or configuration.

A block operator payload in build's compact layout is written and read
through its blocks' generating sequences (`payload.write_operator_text`,
`payload.read_operator_text`): each block is a Toeplitz or Hankel matrix
fixed by 2M + 1 numbers. `build` streams the payload to its file or to
stdout piece by piece, one block's text at a time, and `check` and
`recover` read the blocks in place from the text they loaded. Any other
layout, or any doubt about one, goes through json.loads and the typed
readers, which give the same operator and the same error messages.

Every command runs with BLAS on one thread (`kernels.one_blas_thread`).
Run as `python -m msolab.cli`, the module also sets OPENBLAS_NUM_THREADS=1
in its own process before numpy loads, so OpenBLAS never starts the worker
thread that would otherwise spin at import. The installed `msolab` script
imports this module (`msolab.cli:main`) and gets the runtime pin only; an
import as a library changes no environment variable and no thread count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

if __name__ == "__main__":
    # before the first import that loads numpy: OpenBLAS reads it only then
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import characterize, suites
from .errors import InputError, MsolabError
from .inner import BlaschkeProduct
from .kernels import one_blas_thread
from .laurent import LaurentPolynomial
from .operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                        build_dtto, build_tto, default_depth)
from .payload import (read_operator_text, read_typed, write_complex,
                      write_operator_text)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

# json.dumps layouts: an operator payload on one line through the C encoder
# (an indent selects the pure-Python one), a report indented for people
_PAYLOAD_LAYOUT = {"sort_keys": True, "separators": (",", ":")}
_REPORT_LAYOUT = {"sort_keys": True, "indent": 2}


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector over one bulk step on a payload.
    Its trees are acyclic lists of floats and strings, so a pass finds
    nothing in them; it would only re-walk their young lists. The caller's
    state is restored, also when the step raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _loads(text: str, context: str):
    try:
        with _collector_paused():
            return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the interpreter's digit limit;
        # RecursionError is nesting deeper than the decoder can follow
        raise InputError(f"{context}: {exc}") from exc


def _parse_symbol(text: str) -> LaurentPolynomial:
    text = text.strip()
    m = re.fullmatch(r"z(?:\^(-?\d+))?", text)
    if m:
        payload = {"coeffs": [[int(m.group(1) or 1), 1.0, 0.0]]}
    else:
        payload = _loads(text, f"cannot parse symbol {text!r}")
    return LaurentPolynomial.from_json(payload)


def _parse_inner(text: str) -> BlaschkeProduct:
    text = text.strip()
    return BlaschkeProduct.parse(_loads(text, f"cannot parse inner function {text!r}")
                                 if text.startswith("{") else text)


def _read_operator(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: undecodable bytes, or a NUL in the path
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    with _collector_paused():
        payload = read_operator_text(text)
    if payload is None:
        payload = _loads(text, f"invalid JSON in {path!r}")
    if "blocks" in read_typed(payload, dict, "operator payload"):
        return BlockOperator.from_json(payload)
    if "entries" in payload:
        return DenseComplexMatrix.from_json(payload)
    raise InputError("operator payload needs either 'blocks' or 'entries'")


def _payload_pieces(op):
    """json.dumps(op.to_json()) in the payload layout, as strings to write
    in order."""
    if isinstance(op, BlockOperator):
        return write_operator_text(op)
    return [json.dumps(op.to_json(), **_PAYLOAD_LAYOUT)]


def _emit(pieces, out: str | None):
    """Write the strings `pieces` in order to the file `out`, or to stdout."""
    if out:
        try:
            with open(out, "w") as f:
                f.writelines(pieces)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.writelines(pieces)


def _cmd_build(args) -> int:
    theta = _parse_inner(args.theta)
    alpha = _parse_inner(args.alpha) if args.alpha else theta
    symbol = SymbolFunction(_parse_symbol(args.symbol))
    if args.kind == "tto":
        if args.M is not None:
            raise InputError("build tto does not read --M")
        op = build_tto(theta, alpha, symbol)
    else:
        M = args.M
        if M is None:
            M = default_depth(theta, alpha, symbol.reach)
        op = build_dtto(theta, alpha, symbol, M)
    with _collector_paused():
        _emit(chain(_payload_pieces(op), ["\n"]), args.out)
    return EXIT_OK


def _emit_report(report: dict, out: str | None):
    with _collector_paused():
        text = json.dumps(report, **_REPORT_LAYOUT) + "\n"
    _emit([text], out)


_CHECK_NAMES = ("shift", "blocks", "adtto", "analytic")


def _cmd_check(args) -> int:
    op = _read_operator(args.input)
    # a repeated name runs and reports once, at its first place
    selected = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
    for name in selected:
        if name not in _CHECK_NAMES:
            raise InputError(f"unknown check {name!r}; expected subset of "
                             f"{_CHECK_NAMES}")
    if not selected:
        raise InputError("no checks selected")
    if not isinstance(op, BlockOperator) and set(selected) - {"shift"}:
        raise InputError("blocks/adtto/analytic checks require a dtto payload")
    tol = characterize.validated_tolerance(args.tol)
    reports = []
    extra = {}
    # with "blocks" selected, "adtto" takes its reports instead of its own
    blocks = (characterize.check_block_conditions(op, tol=tol)
              if "blocks" in selected else None)
    for name in selected:
        if name == "shift":
            reports.append(characterize.shift_invariance_defect(op, tol=tol))
        elif name == "blocks":
            reports.extend(blocks)
        elif name == "adtto":
            verdict = (characterize.check_adtto(op, tol=tol) if blocks is None
                       else characterize.adtto_verdict(op, blocks))
            reports.extend(verdict.reports)
        else:
            verdict = characterize.is_analytic_adtto(op, tol=tol)
            extra["analytic"] = {"analytic": verdict.analytic,
                                 "minus_norm": verdict.minus_norm,
                                 "witness": list(verdict.witness)
                                 if verdict.witness else None}
    report = {"checks": selected,
              "reports": [rep.to_json() for rep in reports]}
    report.update(extra)
    ok = all(rep.passed for rep in reports) and all(
        v.get("analytic", True) for v in extra.values())
    report["pass"] = bool(ok)
    _emit_report(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_recover(args) -> int:
    op = _read_operator(args.input)
    if not isinstance(op, BlockOperator):
        raise InputError("symbol recovery requires a dtto payload")
    tol = characterize.validated_tolerance(args.tol) or \
        characterize.default_tolerance(op.theta, op.alpha)
    symbol, residual = characterize.recover_symbol(op, args.method, tol=tol)
    report = {"method": args.method,
              "symbol": symbol.to_json(),
              "mean": write_complex(symbol.mean),
              "residual": residual,
              "tolerance": tol,
              "pass": residual <= tol}
    _emit_report(report, args.out)
    return EXIT_OK if residual <= tol else EXIT_CHECK_FAILED


def _cmd_suite(args) -> int:
    config = suites.SuiteConfig(
        theta=_parse_inner(args.theta) if args.theta else None,
        alpha=_parse_inner(args.alpha) if args.alpha else None,
        symbol=_parse_symbol(args.symbol) if args.symbol else None,
        M=args.M, tol=args.tol, seed=args.seed, cases=args.cases)
    started = time.monotonic()
    report = suites.run_suite(args.name, config)
    _emit_report(report, args.out)
    print(f"suite {args.name}: {time.monotonic() - started:.1f}s",
          file=sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are input errors: exit 2, one line."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="msolab",
        description="Truncated and dual truncated Toeplitz operators: "
                    "build, check, recover, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an operator and dump its JSON")
    p.add_argument("kind", choices=("tto", "dtto"))
    p.add_argument("--theta", required=True,
                   help="inner function: 'z^m' or Blaschke JSON")
    p.add_argument("--alpha", help="codomain inner function (default: theta)")
    p.add_argument("--symbol", required=True,
                   help="symbol: 'z^k' or {\"coeffs\": [[k,re,im],...]}")
    p.add_argument("--M", type=int, help="truncation depth (dtto only)")
    p.add_argument("--out", help="write the payload to a file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="run membership checks on an operator")
    p.add_argument("input", help="operator JSON file, or '-' for stdin")
    p.add_argument("--checks", default="adtto",
                   help="comma list from shift,blocks,adtto,analytic")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("recover", help="recover the symbol of a dtto")
    p.add_argument("input", help="operator JSON file, or '-' for stdin")
    p.add_argument("--method", choices=("zbar", "boundary"), default="zbar")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name", choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=suites.DEFAULT_SEED)
    p.add_argument("--cases", type=int)
    p.add_argument("--theta")
    p.add_argument("--alpha")
    p.add_argument("--symbol")
    p.add_argument("--M", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    with one_blas_thread():
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:
            # --help prints and exits 0
            return int(exc.code or 0)
        except MsolabError as exc:
            print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
            return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
