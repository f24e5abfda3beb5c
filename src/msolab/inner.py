"""Finite Blaschke products: construction, expansion, model-space bases.

Only finite Blaschke products are accepted as inner functions, so every
model space is finite-dimensional and every operator identity downstream
becomes a finite linear-algebra statement. Zeros with modulus above 0.95
need an explicit opt-in because the expansion degree required for a given
tail cap grows like log(eps)/log(rho).

The only approximation in the package is where the power series of a
product is cut off, and `expand` is the one rule that decides it: every
expansion reaches the degree its caller needs and at least the degree
whose geometric tail bound meets DEFAULT_TAIL_CAP.
"""

from __future__ import annotations

import cmath
import functools
import math
import re

import numpy as np

from .bases import OrthonormalBasis
from .errors import InputError
from .laurent import MAX_DEGREE, LaurentPolynomial
from .payload import read_complex, read_typed, write_complex

DEFAULT_TAIL_CAP = 1e-13
RHO_SOFT_LIMIT = 0.95
# margin added to the tail-derived expansion degree; keeps roundoff in the
# discarded range even when zeros cluster
_DEGREE_MARGIN = 8
# Largest expansion degree an inner function may need at the default tail
# cap. A zero of modulus 0.999 needs 36,832 coefficients and is accepted;
# one of modulus 0.9999 needs 391,429, and 0.999999 would need 43,749,104
# (about 700 MB per expansion array), so payloads stay bounded.
MAX_EXPANSION_DEGREE = 1 << 16


class BlaschkeProduct:
    """c * prod (z - a_i)/(1 - conj(a_i) z) with all |a_i| < 1 and |c| = 1.

    Zero order is preserved (it fixes the Takenaka-Malmquist basis order and
    hence every matrix downstream). Instances are immutable and hashable.
    `cap_degree` is the smallest expansion degree whose tail bound meets
    DEFAULT_TAIL_CAP.
    """

    __slots__ = ("zeros", "constant", "allow_near_boundary", "cap_degree", "_key")

    def __init__(self, zeros, constant: complex = 1.0, *,
                 allow_near_boundary: bool = False):
        zeros = tuple(complex(a) for a in zeros)
        if len(zeros) == 0:
            raise InputError("constant inner function: at least one zero required")
        _check_degree(len(zeros))
        for a in zeros:
            if not cmath.isfinite(a):
                raise InputError(f"non-finite zero: {a}")
            if abs(a) >= 1.0:
                raise InputError(f"zero outside open disk: {a}")
            if abs(a) > RHO_SOFT_LIMIT and not allow_near_boundary:
                raise InputError(
                    f"zero {a} has modulus > {RHO_SOFT_LIMIT}; pass "
                    "allow_near_boundary=True to accept the expansion cost")
        constant = complex(constant)
        if not abs(abs(constant) - 1.0) <= 1e-14:  # also rejects nan
            raise InputError(f"constant must be unimodular, got |c|={abs(constant)}")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "allow_near_boundary", allow_near_boundary)
        # equality by bit pattern: -0.0 and 0.0 are distinct zeros, so the
        # caches never hand back a product that encodes differently
        object.__setattr__(self, "_key",
                           np.array([*zeros, constant], dtype=np.complex128).tobytes())
        rho, degree = self.rho, self.degree
        if rho > 0.0:
            n = degree + math.ceil(math.log(DEFAULT_TAIL_CAP * (1.0 - rho) / degree)
                                   / math.log(rho))
            degree = max(n, degree) + _DEGREE_MARGIN
        object.__setattr__(self, "cap_degree", degree)
        if degree > MAX_EXPANSION_DEGREE:
            raise InputError(
                f"zeros up to modulus {self.rho} need expansion degree {degree}, "
                f"above the cap MAX_EXPANSION_DEGREE={MAX_EXPANSION_DEGREE}")

    def __setattr__(self, name, value):
        raise AttributeError("BlaschkeProduct is immutable")

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def rho(self) -> float:
        return max(abs(a) for a in self.zeros)

    def is_monomial(self) -> bool:
        return all(a == 0 for a in self.zeros) and self.constant == 1.0

    def evaluate(self, zeta: complex) -> complex:
        """Exact rational evaluation."""
        value = self.constant
        for a in self.zeros:
            value *= (zeta - a) / (1.0 - a.conjugate() * zeta)
        return value

    def tail_bound_at(self, n: int) -> float:
        """Geometric bound on the L2 mass of the expansion beyond degree n."""
        rho = self.rho
        if rho == 0.0:
            return 0.0
        d = self.degree
        return d * rho ** max(n - d + 1, 0) / (1.0 - rho)

    def __eq__(self, other):
        return isinstance(other, BlaschkeProduct) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.is_monomial():
            return f"BlaschkeProduct(z^{self.degree})"
        return f"BlaschkeProduct(zeros={list(self.zeros)}, constant={self.constant})"

    def short_name(self) -> str:
        if self.is_monomial():
            return f"z^{self.degree}"
        return f"blaschke[{self.degree}]"

    # -- encoding ----------------------------------------------------------

    def to_json(self) -> dict:
        """The zeros and the constant; `allow_near_boundary` only when true,
        so a payload read back accepts the zeros it was built from."""
        out = {"zeros": [write_complex(a) for a in self.zeros],
               "constant": write_complex(self.constant)}
        if self.allow_near_boundary:
            out["allow_near_boundary"] = True
        return out

    @classmethod
    def from_json(cls, obj) -> "BlaschkeProduct":
        obj = read_typed(obj, dict, "inner function")
        zeros = read_typed(obj.get("zeros"), list, "'zeros'")
        return cls([read_complex(a, "zero") for a in zeros],
                   read_complex(obj.get("constant", [1.0, 0.0]), "constant"),
                   allow_near_boundary=read_typed(obj.get("allow_near_boundary", False),
                                                  bool, "allow_near_boundary"))

    @classmethod
    def parse(cls, spec) -> "BlaschkeProduct":
        """Accept the JSON encoding or the shorthand 'z^m'."""
        if isinstance(spec, BlaschkeProduct):
            return spec
        if isinstance(spec, dict):
            return cls.from_json(spec)
        if isinstance(spec, str):
            m = re.fullmatch(r"z(?:\^(\d+))?", spec.strip())
            if m:
                degree = int(m.group(1) or 1)
                _check_degree(degree)
                return cls([0.0] * degree)
            raise InputError(f"cannot parse inner function spec {spec!r}")
        raise InputError(f"cannot parse inner function spec {spec!r}")


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise InputError(f"{degree} zeros exceed the cap MAX_DEGREE={MAX_DEGREE}")


def monomial_inner(m: int) -> BlaschkeProduct:
    """z^m as a Blaschke product."""
    return BlaschkeProduct([0.0] * m)


@functools.lru_cache(maxsize=256)
def _expand_cached(B: BlaschkeProduct, n: int) -> LaurentPolynomial:
    # series of one factor (z-a)/(1-conj(a) z): b_0 = -a,
    # b_k = conj(a)^(k-1) (1-|a|^2) for k >= 1
    acc = np.array([B.constant], dtype=np.complex128)
    for a in B.zeros:
        factor = np.zeros(n + 1, dtype=np.complex128)
        factor[0] = -a
        if n >= 1:
            factor[1:] = (1.0 - abs(a) ** 2) * (a.conjugate() ** np.arange(n))
        acc = np.convolve(acc, factor)[:n + 1]
    return LaurentPolynomial._from_dense(0, acc)


def expansion_degree(B: BlaschkeProduct, reach: int) -> int:
    """The degree `expand(B, reach)` expands to: reach, or more where the
    geometric tail bound needs it to meet DEFAULT_TAIL_CAP."""
    return max(int(reach), B.cap_degree)


def expand(B: BlaschkeProduct, reach: int = 0) -> LaurentPolynomial:
    """Power-series coefficients c_0..c_n of B with band [0, n], for
    n = expansion_degree(B, reach): every coefficient up to degree reach,
    and a discarded tail of L2 mass at most B.tail_bound_at(n) <=
    DEFAULT_TAIL_CAP."""
    return _expand_cached(B, expansion_degree(B, reach))


def tm_basis(B: BlaschkeProduct) -> OrthonormalBasis:
    """Takenaka-Malmquist orthonormal basis of the model space of B at the
    default tail cap. Vector order follows the zero order; no re-sorting,
    so matrices are reproducible across runs."""
    return _tm_basis_wrapped(B)


@functools.lru_cache(maxsize=128)
def _tm_basis_wrapped(B: BlaschkeProduct) -> OrthonormalBasis:
    # e_k = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z-a_j)/(1-conj(a_j) z)
    n = expansion_degree(B, 0)
    kernel_parts = []
    running = np.array([1.0 + 0j])
    for k, a in enumerate(B.zeros):
        ac = a.conjugate()
        cauchy = ac ** np.arange(n + 1)  # 1/(1 - conj(a) z)
        vec = np.convolve(running, cauchy)[:n + 1] * math.sqrt(1.0 - abs(a) ** 2)
        kernel_parts.append(vec)
        factor = np.zeros(n + 1, dtype=np.complex128)
        factor[0] = -a
        factor[1:] = (1.0 - abs(a) ** 2) * (ac ** np.arange(n))
        running = np.convolve(running, factor)[:n + 1]
    V = np.vstack([np.pad(v, (0, n + 1 - len(v))) for v in kernel_parts])
    # one re-orthonormalization pass against the numerically computed Gram
    G = V @ V.conj().T
    L = np.linalg.cholesky(G)
    V = np.linalg.solve(L, V)
    return OrthonormalBasis(f"K({B.short_name()})",
                            (LaurentPolynomial._from_dense(0, v) for v in V),
                            kind="model", inner=B)
