"""Operator matrices: compressions of multiplication operators to model
spaces and to the complements of model spaces.

A `DenseComplexMatrix` is the compression to model spaces (domain/codomain
Takenaka-Malmquist bases). A `BlockOperator` holds the four compressions of
an operator between complement sections in the fixed basis order of
spaces.basis_Kperp:

    [ That        GammaCheck ]   thetaH2@M -> alphaH2@M | Hminus@M -> alphaH2@M
    [ GammaHat    TCheck     ]   thetaH2@M -> Hminus@M  | Hminus@M -> Hminus@M

Each block is a Toeplitz or Hankel matrix in one coefficient sequence. With
th, al the truncated expansions behind the sections (spaces.section_expansion)
and 0 <= i, j <= M:

    That[i, j]       = coefficient i - j       of phi * th * conj(al)
    GammaCheck[i, j] = coefficient i + j + 1   of phi * conj(al)
    GammaHat[i, j]   = coefficient -(i + j + 1) of phi * th
    TCheck[i, j]     = coefficient j - i       of phi

so `build_dtto` forms three products and gathers at `block_degrees`. Entries
are exact pairings (up to expansion tails), so truncation shows up only
structurally: identities involving products of blocks are reliable on
interior indices, at distance >= (symbol reach + deg theta + deg alpha) from
the truncation edge. Builders tag the symbol reach as `edge`; it is
provenance metadata that travels with the payload, and no check reads it.
"""

from __future__ import annotations

import numpy as np

from .bases import OrthonormalBasis
from .errors import DimensionError, InputError
from .inner import BlaschkeProduct, tm_basis
from .laurent import (LaurentPolynomial, conj_function, minus_part, multiply,
                      plus_part)
from .spaces import basis_Kperp, section_expansion

# Largest truncation depth M of a complement section. Deeper sections were
# never needed (the deepest suite depth is 256, the deep benchmark runs 400),
# and at this cap one block is 1025 x 1025 complex (17 MB), the assembled
# operator 68 MB.
MAX_DEPTH = 1024


class SymbolFunction:
    """A trigonometric-polynomial symbol with its analytic/antianalytic split.

    value = plus + minus, where plus has band in [0, inf) (the mean
    coefficient lives there) and minus in (-inf, -1].
    """

    __slots__ = ("value", "plus", "minus")

    def __init__(self, value: LaurentPolynomial):
        self.value = value
        self.plus = plus_part(value)
        self.minus = minus_part(value)

    @classmethod
    def parse(cls, obj) -> "SymbolFunction":
        if isinstance(obj, SymbolFunction):
            return obj
        if isinstance(obj, LaurentPolynomial):
            return cls(obj)
        if isinstance(obj, dict):
            return cls(LaurentPolynomial.from_json(obj))
        raise InputError(f"cannot parse symbol {obj!r}")

    @property
    def mean(self) -> complex:
        return self.value.coeff(0)

    @property
    def reach(self) -> int:
        """Largest |degree| carrying a coefficient; 0 for constants."""
        if self.value.is_zero():
            return 0
        return max(self.value.hi, -self.value.lo, 0)

    def to_json(self) -> dict:
        return self.value.to_json()

    def __repr__(self):
        return f"SymbolFunction({self.value!r})"


class DenseComplexMatrix:
    """Matrix of an operator between two labeled orthonormal bases."""

    __slots__ = ("entries", "domain", "codomain")

    def __init__(self, entries: np.ndarray, domain: OrthonormalBasis,
                 codomain: OrthonormalBasis):
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (codomain.dim, domain.dim):
            raise DimensionError(
                f"entries {entries.shape} do not match bases "
                f"({codomain.dim}, {domain.dim})")
        self.entries = entries
        self.domain = domain
        self.codomain = codomain

    @property
    def shape(self):
        return self.entries.shape

    def adjoint(self) -> "DenseComplexMatrix":
        return DenseComplexMatrix(self.entries.conj().T, self.codomain, self.domain)

    def to_json(self) -> dict:
        out = {"entries": _matrix_to_json(self.entries)}
        if self.domain.inner is not None:
            out["theta"] = self.domain.inner.to_json()
        if self.codomain.inner is not None:
            out["alpha"] = self.codomain.inner.to_json()
        return out

    def __repr__(self):
        return (f"DenseComplexMatrix({self.codomain.label!r} x "
                f"{self.domain.label!r}, shape={self.entries.shape})")


class BlockOperator:
    """The four compressions of an operator between complement sections.

    `edge` is provenance metadata: the symbol reach a builder used, None
    for operators of unknown provenance (e.g. loaded from JSON without the
    optional key). No check reads it.
    """

    __slots__ = ("that", "gamma_check", "gamma_hat", "t_check",
                 "theta", "alpha", "M", "edge")

    def __init__(self, that, gamma_check, gamma_hat, t_check,
                 theta: BlaschkeProduct, alpha: BlaschkeProduct, M: int,
                 edge: int | None = None):
        n = M + 1
        self.that = np.asarray(that, dtype=np.complex128)
        self.gamma_check = np.asarray(gamma_check, dtype=np.complex128)
        self.gamma_hat = np.asarray(gamma_hat, dtype=np.complex128)
        self.t_check = np.asarray(t_check, dtype=np.complex128)
        for name, block in (("That", self.that), ("GammaCheck", self.gamma_check),
                            ("GammaHat", self.gamma_hat), ("TCheck", self.t_check)):
            if block.shape != (n, n):
                raise DimensionError(f"{name} has shape {block.shape}, expected {(n, n)}")
        self.theta = theta
        self.alpha = alpha
        self.M = int(M)
        self.edge = edge

    @property
    def dim(self) -> int:
        return 2 * (self.M + 1)

    def domain_basis(self) -> OrthonormalBasis:
        return basis_Kperp(self.theta, self.M)

    def codomain_basis(self) -> OrthonormalBasis:
        return basis_Kperp(self.alpha, self.M, name="alpha")

    def assemble(self) -> np.ndarray:
        top = np.hstack([self.that, self.gamma_check])
        bottom = np.hstack([self.gamma_hat, self.t_check])
        return np.vstack([top, bottom])

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(
            that=self.that.conj().T,
            gamma_check=self.gamma_hat.conj().T,
            gamma_hat=self.gamma_check.conj().T,
            t_check=self.t_check.conj().T,
            theta=self.alpha, alpha=self.theta, M=self.M, edge=self.edge)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.dim,):
            raise DimensionError(f"vector of length {x.shape} for dimension {self.dim}")
        head, tail = x[:self.M + 1], x[self.M + 1:]
        return np.concatenate([self.that @ head + self.gamma_check @ tail,
                               self.gamma_hat @ head + self.t_check @ tail])

    def to_json(self) -> dict:
        out = {
            "theta": self.theta.to_json(),
            "alpha": self.alpha.to_json(),
            "M": self.M,
            "blocks": {
                "That": _matrix_to_json(self.that),
                "GammaCheck": _matrix_to_json(self.gamma_check),
                "GammaHat": _matrix_to_json(self.gamma_hat),
                "TCheck": _matrix_to_json(self.t_check),
            },
        }
        if self.edge is not None:
            out["edge"] = self.edge
        return out

    @classmethod
    def from_json(cls, obj) -> "BlockOperator":
        try:
            theta = BlaschkeProduct.from_json(obj["theta"])
            alpha = BlaschkeProduct.from_json(obj["alpha"])
            M = obj["M"]
            if isinstance(M, bool) or not isinstance(M, int):
                raise InputError(f"depth M must be an integer, got {M!r}")
            blocks = obj["blocks"]
            return cls(that=_matrix_from_json(blocks["That"]),
                       gamma_check=_matrix_from_json(blocks["GammaCheck"]),
                       gamma_hat=_matrix_from_json(blocks["GammaHat"]),
                       t_check=_matrix_from_json(blocks["TCheck"]),
                       theta=theta, alpha=alpha, M=M,
                       edge=obj.get("edge"))
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"malformed block operator payload: {exc}") from exc

    def __repr__(self):
        return (f"BlockOperator(theta={self.theta.short_name()}, "
                f"alpha={self.alpha.short_name()}, M={self.M})")


def _matrix_to_json(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def _matrix_from_json(rows) -> np.ndarray:
    a = np.array([[complex(float(v[0]), float(v[1])) for v in row]
                  for row in rows], dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise InputError("non-finite matrix entry in payload")
    return a


def _pairing_matrix(images, codomain: OrthonormalBasis) -> np.ndarray:
    """Entries <image_j, c_i> stacked into a (dim codomain, len images) matrix."""
    polys = list(images) + list(codomain.vectors)
    lo = min((p.lo for p in polys if not p.is_zero()), default=0)
    hi = max((p.hi for p in polys if not p.is_zero()), default=0)
    A = np.vstack([p.dense(lo, hi) for p in images])
    C = codomain.stacked(lo, hi)
    return C.conj() @ A.T


def build_tto(theta: BlaschkeProduct, alpha: BlaschkeProduct,
              phi) -> DenseComplexMatrix:
    """Compression of multiplication by phi from K(theta) to K(alpha)."""
    phi = SymbolFunction.parse(phi)
    dom = tm_basis(theta)
    cod = tm_basis(alpha)
    images = [multiply(phi.value, e) for e in dom.vectors]
    return DenseComplexMatrix(_pairing_matrix(images, cod), dom, cod)


def build_dtto(theta: BlaschkeProduct, alpha: BlaschkeProduct, phi,
               M: int) -> BlockOperator:
    """Compression of multiplication by phi between complement sections.

    Requires M >= reach(phi) + deg theta + deg alpha + 2 so that at least a
    few interior indices survive the truncation edge.
    """
    phi = SymbolFunction.parse(phi)
    if M > MAX_DEPTH:
        raise InputError(f"M={M} above the depth cap MAX_DEPTH={MAX_DEPTH}")
    guard = phi.reach + theta.degree + alpha.degree + 2
    if M < guard:
        raise InputError(f"M={M} below the guard depth {guard} for this symbol")
    phi_th = multiply(phi.value, section_expansion(theta, M))
    al_bar = conj_function(section_expansion(alpha, M))
    sequences = (multiply(phi_th, al_bar), multiply(phi.value, al_bar),
                 phi_th, phi.value)
    return BlockOperator(*(coefficient_matrix(p, degrees) for p, degrees
                           in zip(sequences, block_degrees(M))),
                         theta=theta, alpha=alpha, M=M, edge=phi.reach)


def block_degrees(M: int) -> tuple[np.ndarray, ...]:
    """The degree each entry (i, j) of a depth-M block reads, in block order
    That, GammaCheck, GammaHat, TCheck: i - j, i + j + 1, -(i + j + 1) and
    j - i. Entries of one block that share a degree share their value in
    every compressed multiplication operator."""
    i, j = np.ogrid[:M + 1, :M + 1]
    return i - j, i + j + 1, -(i + j + 1), j - i


def coefficient_matrix(p: LaurentPolynomial, degrees: np.ndarray) -> np.ndarray:
    """Coefficients of p at an integer array of degrees (a Toeplitz matrix
    for degrees i - j, a Hankel matrix for degrees +-(i + j + 1))."""
    lo = int(np.min(degrees))
    return p.dense(lo, int(np.max(degrees)))[degrees - lo]


def split_blocks(full: np.ndarray, theta: BlaschkeProduct,
                 alpha: BlaschkeProduct, M: int,
                 edge: int | None = None) -> BlockOperator:
    """Cut a full matrix on the Kperp sections into its four blocks."""
    full = np.asarray(full, dtype=np.complex128)
    n = M + 1
    if full.shape != (2 * n, 2 * n):
        raise DimensionError(f"full matrix {full.shape} does not match M={M}")
    return BlockOperator(that=full[:n, :n], gamma_check=full[:n, n:],
                         gamma_hat=full[n:, :n], t_check=full[n:, n:],
                         theta=theta, alpha=alpha, M=M, edge=edge)


def apply(op, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product in the operator's domain coordinates."""
    if isinstance(op, BlockOperator):
        return op.apply(x)
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (op.entries.shape[1],):
        raise DimensionError(
            f"vector of length {x.shape} for domain dimension {op.entries.shape[1]}")
    return op.entries @ x
