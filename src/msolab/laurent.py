"""Banded Laurent arithmetic on the unit circle.

A value is a finite Fourier expansion sum_k c_k z^k held densely over its
band [lo, hi]; bands may be asymmetric and are trimmed to the outermost
nonzero coefficients. The inner product is the coefficient pairing
sum_k c_k(f) conj(c_k(g)), i.e. the normalized-measure integral of f g-bar
in Parseval form. Instances are immutable and all operations are pure.

Arithmetic here is exact on the band. The one approximation, where the
power series of an inner function is cut off, is decided and bounded in
msolab.inner (`expand` and `BlaschkeProduct.tail_bound_at`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import kernels
from .errors import InputError
from .payload import read_complex, read_int, read_typed

_ZERO = np.zeros(0, dtype=np.complex128)

# Largest degree accepted at a parse boundary: the number of zeros of an
# inner function, and |k| for every coefficient of a function payload (so a
# parsed band is at most 2 * MAX_DEGREE + 1 wide). It sits above the symbol
# reach and inner degrees any section of depth <= operators.MAX_DEPTH can
# use, and keeps a payload from asking for an unbounded dense allocation.
MAX_DEGREE = 2048


class LaurentPolynomial:
    __slots__ = ("_lo", "_data")

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        if coeffs:
            lo = min(coeffs)
            hi = max(coeffs)
            data = np.zeros(hi - lo + 1, dtype=np.complex128)
            for k, c in coeffs.items():
                data[k - lo] = c
        else:
            lo, data = 0, _ZERO
        lo, data = _trim(lo, data)
        self._lo = lo
        self._data = data

    @classmethod
    def _from_dense(cls, lo: int, data: np.ndarray) -> "LaurentPolynomial":
        p = cls.__new__(cls)
        lo, data = _trim(lo, np.ascontiguousarray(data, dtype=np.complex128))
        p._lo = lo
        p._data = data
        return p

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1.0})

    @classmethod
    def monomial(cls, degree: int, coefficient: complex = 1.0) -> "LaurentPolynomial":
        return cls({degree: coefficient})

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, complex]:
        """Sparse degree -> coefficient view (zeros inside the band omitted)."""
        return {self._lo + i: complex(c)
                for i, c in enumerate(self._data) if c != 0}

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._lo + len(self._data) - 1

    @property
    def band(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def coeff(self, k: int) -> complex:
        i = k - self._lo
        if 0 <= i < len(self._data):
            return complex(self._data[i])
        return 0j

    def is_zero(self) -> bool:
        return len(self._data) == 0

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._data) ** 2))

    def norm(self) -> float:
        return self.norm_sq() ** 0.5

    def sup_on_band(self) -> float:
        return float(np.max(np.abs(self._data))) if len(self._data) else 0.0

    def evaluate(self, zeta: complex) -> complex:
        """Value at a point of the circle (or anywhere the series makes sense)."""
        acc = 0j
        for i, c in enumerate(self._data):
            acc += c * zeta ** (self._lo + i)
        return complex(acc)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients over [lo, hi] as a contiguous array."""
        out = np.zeros(hi - lo + 1, dtype=np.complex128)
        src0 = max(self.lo, lo)
        src1 = min(self.hi, hi)
        if src0 <= src1:
            out[src0 - lo:src1 - lo + 1] = self._data[src0 - self._lo:src1 - self._lo + 1]
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        data = self.dense(lo, hi)
        data += other.dense(lo, hi)
        return LaurentPolynomial._from_dense(lo, data)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._from_dense(self._lo, -self._data)

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: complex) -> "LaurentPolynomial":
        return LaurentPolynomial._from_dense(self._lo, self._data * c)

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiplication by the monomial z^k."""
        return LaurentPolynomial._from_dense(self._lo + k, self._data)

    # -- encoding -----------------------------------------------------------

    def to_json(self) -> dict:
        """[k, re, im] for every nonzero coefficient, by degree."""
        nz = np.flatnonzero(self._data)
        pairs = self._data[nz].view(np.float64).reshape(-1, 2).tolist()
        return {"coeffs": [[k, *c] for k, c in zip((nz + self._lo).tolist(), pairs)]}

    @classmethod
    def from_json(cls, obj) -> "LaurentPolynomial":
        items = read_typed(read_typed(obj, dict, "function").get("coeffs"), list,
                           "'coeffs'")
        coeffs: dict[int, complex] = {}
        for item in items:
            if not isinstance(item, list) or len(item) != 3:
                raise InputError(f"coefficient entry {item!r} is not [k, re, im]")
            k = read_int(item[0], "coefficient degree")
            c = read_complex(item[1:], f"coefficient of degree {k}")
            if abs(k) > MAX_DEGREE:
                raise InputError(f"coefficient degree {k} beyond the cap "
                                 f"MAX_DEGREE={MAX_DEGREE}")
            # a degree starts from its first value, so a signed zero keeps its sign
            coeffs[k] = coeffs[k] + c if k in coeffs else c
        return cls(coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPolynomial(0)"
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in sorted(self.coeffs.items()))
        return f"LaurentPolynomial({{{terms}}})"


def _trim(lo: int, data: np.ndarray) -> tuple[int, np.ndarray]:
    if len(data) and data[0] != 0 and data[-1] != 0:
        return lo, data
    nz = np.nonzero(data)[0]
    if len(nz) == 0:
        return 0, _ZERO
    a, b = nz[0], nz[-1]
    return lo + int(a), data[a:b + 1]


# -- module-level operations -------------------------------------------------

def multiply(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """Coefficient convolution; realizes pointwise multiplication on the circle."""
    if f.is_zero() or g.is_zero():
        return LaurentPolynomial._from_dense(0, _ZERO)
    if len(f._data) == 1:
        return LaurentPolynomial._from_dense(f.lo + g.lo, f._data[0] * g._data)
    if len(g._data) == 1:
        return LaurentPolynomial._from_dense(f.lo + g.lo, g._data[0] * f._data)
    return LaurentPolynomial._from_dense(f.lo + g.lo,
                                         kernels.convolve(f._data, g._data))


def inner_product(f: LaurentPolynomial, g: LaurentPolynomial) -> complex:
    """Sesquilinear pairing sum_k c_k(f) conj(c_k(g))."""
    if f.is_zero() or g.is_zero():
        return 0j
    return kernels.inner_shifted(f._data, g._data, f.lo - g.lo)


def project_band(f: LaurentPolynomial, lo: int | None, hi: int | None) -> LaurentPolynomial:
    """Zero all coefficients outside [lo, hi]; None means unbounded."""
    if lo is not None and hi is not None and lo > hi:
        raise InputError(f"empty band [{lo}, {hi}]")
    a = f.lo if lo is None else max(f.lo, lo)
    b = f.hi if hi is None else min(f.hi, hi)
    if a > b or f.is_zero():
        return LaurentPolynomial._from_dense(0, _ZERO)
    return LaurentPolynomial._from_dense(a, f._data[a - f.lo:b - f.lo + 1].copy())


def plus_part(f: LaurentPolynomial) -> LaurentPolynomial:
    """Projection onto nonnegative degrees (the analytic half)."""
    return project_band(f, 0, None)


def minus_part(f: LaurentPolynomial) -> LaurentPolynomial:
    """Projection onto strictly negative degrees."""
    return project_band(f, None, -1)


def involution_J(f: LaurentPolynomial) -> LaurentPolynomial:
    """The antilinear involution with coefficient rule (Jf)_j = conj(c_{-j-1}).

    Pointwise this is z-bar times the complex conjugate of the value; it swaps
    the analytic and antianalytic halves isometrically.
    """
    if f.is_zero():
        return f
    return LaurentPolynomial._from_dense(-f.hi - 1, np.conjugate(f._data[::-1]))


def conj_function(f: LaurentPolynomial) -> LaurentPolynomial:
    """Complex conjugate of the boundary value: (f-bar)_k = conj(c_{-k})."""
    if f.is_zero():
        return f
    return LaurentPolynomial._from_dense(-f.hi, np.conjugate(f._data[::-1]))


zero = LaurentPolynomial.zero
one = LaurentPolynomial.one
monomial = LaurentPolynomial.monomial
