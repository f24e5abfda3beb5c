"""Seeded inputs for the benchmark and the checks that judge the outputs.

Inputs come from `random.Random(seed)` only, so the same seed gives the same
inputs on every machine and the program under test never picks them.
"""

from __future__ import annotations

import cmath
import random

ZERO_RADIUS = 0.7   # |zeros| <= 0.7 keeps every tolerance at 1e-8 or tighter
MAX_REACH = 4       # symbol coefficients live on [-4, 4]
MAX_DEGREE = 3      # inner functions have 1..3 zeros
ANALYTIC_SHARE = 0.5  # about half the symbols have no negative-degree terms


def _zeros(rng: random.Random) -> list[list[float]]:
    out = []
    for _ in range(rng.randint(1, MAX_DEGREE)):
        a = ZERO_RADIUS * rng.random() ** 0.5 * cmath.exp(2j * cmath.pi * rng.random())
        out.append([a.real, a.imag])
    return out


def make_case(rng: random.Random) -> dict:
    """One (theta, alpha, symbol) triple in the CLI's JSON encodings."""
    lo = 0 if rng.random() < ANALYTIC_SHARE else -rng.randint(1, MAX_REACH)
    hi = rng.randint(0, MAX_REACH)
    coeffs = [[k, rng.uniform(-1, 1), rng.uniform(-1, 1)] for k in range(lo, hi + 1)]
    return {"theta": {"zeros": _zeros(rng), "constant": [1.0, 0.0]},
            "alpha": {"zeros": _zeros(rng), "constant": [1.0, 0.0]},
            "symbol": {"coeffs": coeffs}}


class CaseStream:
    """The seed's endless sequence of cases."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def next(self) -> dict:
        return make_case(self._rng)


def make_cases(seed: int, count: int) -> list[dict]:
    stream = CaseStream(seed)
    return [stream.next() for _ in range(count)]


def is_analytic(case: dict) -> bool:
    return all(k >= 0 for k, _, _ in case["symbol"]["coeffs"])


def symbol_error(case: dict, recovered: dict) -> float:
    """Largest coefficient difference between a recovered symbol (JSON
    encoding) and the generated one."""
    want = {k: complex(re, im) for k, re, im in case["symbol"]["coeffs"]}
    got = {k: complex(re, im) for k, re, im in recovered["coeffs"]}
    return max(abs(want.get(k, 0j) - got.get(k, 0j)) for k in want.keys() | got.keys())
