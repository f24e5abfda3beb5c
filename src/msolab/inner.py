"""Finite Blaschke products: construction, expansion, model-space bases.

Only finite Blaschke products are accepted as inner functions, so every
model space is finite-dimensional and every operator identity downstream
becomes a finite linear-algebra statement. Zeros with modulus above 0.95
need an explicit opt-in because the expansion degree required for a given
tail cap grows like log(eps)/log(rho).

The only approximation in the package is where the power series of a
product is cut off, and `expand` is the one rule that decides it: an
expansion reaches the degree its caller needs, at least `cap_degree`
(where the geometric tail bound meets DEFAULT_TAIL_CAP) and at most
`floor_degree` (where the tail's L2 mass is below TAIL_FLOOR). Past the
floor a coefficient of a product f * B moves by at most ||f||_2 TAIL_FLOOR
(Cauchy-Schwarz), 13 orders below ulp(1), so a longer expansion only adds
arithmetic on values below roundoff, many of them subnormal.
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
# L2 mass of a tail that no coefficient of a product can feel: the tail cap
# scaled by the unit roundoff of a float
TAIL_FLOOR = float(np.finfo(np.float64).eps) * DEFAULT_TAIL_CAP
RHO_SOFT_LIMIT = 0.95
# margin added to the degree where the geometric tail bound is met; the
# bound leaves out the polynomial factor of clustered zeros (tail_bound_at)
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
    DEFAULT_TAIL_CAP, and `floor_degree` a degree past which the tail's L2
    mass is at most TAIL_FLOOR, never below `cap_degree`; both equal the
    degree for a monomial, whose expansion is exact.
    """

    __slots__ = ("zeros", "constant", "allow_near_boundary", "cap_degree",
                 "floor_degree", "_key")

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
        degree = _geometric_degree(self, DEFAULT_TAIL_CAP)
        if degree > MAX_EXPANSION_DEGREE:
            raise InputError(
                f"zeros up to modulus {self.rho} need expansion degree {degree}, "
                f"above the cap MAX_EXPANSION_DEGREE={MAX_EXPANSION_DEGREE}")
        object.__setattr__(self, "cap_degree", degree)
        object.__setattr__(self, "floor_degree",
                           max(_geometric_degree(self, TAIL_FLOOR),
                               _parseval_degree(self, TAIL_FLOOR)))

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
        """Geometric bound on the L2 mass of the expansion beyond degree n.

        It holds at the decay rate of distinct zeros; zeros that repeat or
        cluster add a polynomial factor that it does not carry, so
        `floor_degree` also takes the Parseval bound of `_parseval_degree`."""
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


def _geometric_degree(B: BlaschkeProduct, bound: float) -> int:
    """The smallest n with B.tail_bound_at(n) <= bound, plus _DEGREE_MARGIN;
    the degree itself for a monomial."""
    rho, degree = B.rho, B.degree
    if rho == 0.0:
        return degree
    n = degree + math.ceil(math.log(bound * (1.0 - rho) / degree) / math.log(rho))
    return max(n, degree) + _DEGREE_MARGIN


def _parseval_degree(B: BlaschkeProduct, bound: float) -> int:
    """A degree n past which the tail of B has L2 mass at most bound, for any
    zeros, repeated ones included.

    On the circle |z| = R with 1 < R < 1/rho each factor has modulus at most
    (R + |a|)/(1 - |a| R), so by Parseval the tail past n has L2 mass at
    most R^-(n+1) prod (R + |a|)/(1 - |a| R). R = rho^(s-1) with s =
    deg B / -log(bound) sits near the radius that minimises that bound for
    the n it gives. Logarithms keep every zero modulus, subnormal ones
    included, in range."""
    moduli = [abs(a) for a in B.zeros]
    rho, degree = B.rho, B.degree
    if rho == 0.0:
        return degree
    s = min(0.5, degree / -math.log(bound))
    log_r = (s - 1.0) * math.log(rho)
    # log((R + m)/(1 - m R)) = log R + log1p(m / R) - log1p(-m R), with
    # m / R = m rho^(1-s) and m R = (m / rho) rho^s: no power of R is formed
    below, above = rho ** (1.0 - s), rho ** s
    log_p = degree * log_r + sum(math.log1p(m * below) - math.log1p(-(m / rho) * above)
                                 for m in moduli)
    return max(math.ceil((log_p - math.log(bound)) / log_r) - 1, degree)


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
    """The degree `expand(B, reach)` expands to: reach, raised to
    B.cap_degree where the geometric tail bound needs it to meet
    DEFAULT_TAIL_CAP, and cut to B.floor_degree, past which the tail is
    below TAIL_FLOOR."""
    return min(max(int(reach), B.cap_degree), B.floor_degree)


def expand(B: BlaschkeProduct, reach: int = 0) -> LaurentPolynomial:
    """Power-series coefficients c_0..c_n of B with band [0, n], for
    n = expansion_degree(B, reach): every coefficient up to degree
    min(reach, B.floor_degree). The discarded tail has L2 mass at most
    B.tail_bound_at(n) <= DEFAULT_TAIL_CAP where the zeros do not cluster,
    and at most TAIL_FLOOR for any zeros where the reach passes the floor:
    there a coefficient of a product f * expand(B, reach) differs from the
    one with the series taken to degree reach by at most ||f||_2
    TAIL_FLOOR."""
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
