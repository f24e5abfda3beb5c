"""Operator matrices: compressions of multiplication operators to model
spaces and to the complements of model spaces.

A `DenseComplexMatrix` is the compression to model spaces (domain/codomain
Takenaka-Malmquist bases). A `BlockOperator` holds the four compressions of
an operator between complement sections in the fixed basis order of
spaces.basis_Kperp:

    [ That        GammaCheck ]   theta*H2 -> alpha*H2 | H2minus -> alpha*H2
    [ GammaHat    TCheck     ]   theta*H2 -> H2minus  | H2minus -> H2minus

Each block is a Toeplitz or Hankel matrix in one coefficient sequence. With
th, al the truncated expansions behind the sections (spaces.section_expansion)
and 0 <= i, j <= M:

    That[i, j]       = coefficient i - j       of phi * th * conj(al)
    GammaCheck[i, j] = coefficient i + j + 1   of phi * conj(al)
    GammaHat[i, j]   = coefficient -(i + j + 1) of phi * th
    TCheck[i, j]     = coefficient j - i       of phi

so `build_dtto` forms three products and keeps each block as a read-only
strided view of the 2M+1 coefficients it reads (`block_views`): no index
array is built, and a block is copied only when a caller reads it by name
(see `BlockOperator`). Entries
are exact pairings (up to expansion tails), so truncation shows up only
structurally: identities involving products of blocks are reliable on
interior indices, at distance >= (symbol reach + deg theta + deg alpha) from
the truncation edge. Builders record the symbol reach as `edge`, a
non-negative integer of provenance that payloads carry and no check reads.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .bases import OrthonormalBasis
from .errors import DimensionError, InputError
from .inner import BlaschkeProduct, tm_basis
from .laurent import (LaurentPolynomial, conj_function, minus_part, multiply,
                      plus_part)
from .payload import (BLOCK_NAMES, read_int, read_matrix, read_typed,
                      write_matrix)
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
    """Matrix of an operator from K(theta) to K(alpha) in the cached
    Takenaka-Malmquist bases tm_basis(theta) and tm_basis(alpha)."""

    __slots__ = ("entries", "theta", "alpha")

    def __init__(self, entries: np.ndarray, theta: BlaschkeProduct,
                 alpha: BlaschkeProduct):
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (alpha.degree, theta.degree):
            raise DimensionError(
                f"entries {entries.shape} do not match the degrees "
                f"({alpha.degree}, {theta.degree})")
        self.entries = entries
        self.theta = theta
        self.alpha = alpha

    def domain_basis(self) -> OrthonormalBasis:
        return tm_basis(self.theta)

    def codomain_basis(self) -> OrthonormalBasis:
        return tm_basis(self.alpha)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x or a batch of columns of domain coordinates."""
        return self.entries @ x

    def to_json(self) -> dict:
        return {"entries": write_matrix(self.entries),
                "theta": self.theta.to_json(), "alpha": self.alpha.to_json()}

    @classmethod
    def from_json(cls, obj) -> "DenseComplexMatrix":
        obj = read_typed(obj, dict, "matrix payload")
        return cls(read_matrix(obj.get("entries"), "entries"),
                   BlaschkeProduct.from_json(obj.get("theta")),
                   BlaschkeProduct.from_json(obj.get("alpha")))

    def __repr__(self):
        return (f"DenseComplexMatrix(theta={self.theta.short_name()}, "
                f"alpha={self.alpha.short_name()})")


class BlockOperator:
    """The four compressions of an operator between complement sections.

    `edge` is provenance metadata: the symbol reach a builder used, None
    for operators of unknown provenance (e.g. loaded from JSON without the
    optional key). No check reads it. Construction rejects a block with a
    non-finite entry; blocks mutated afterwards are the caller's to keep
    finite.

    A read-only block, such as a `block_views` view from `build_dtto` or a
    strided view from `payload.read_operator_text`, is held as given until
    it is first read by name (`that`, `gamma_check`, `gamma_hat`,
    `t_check`). That read copies it into an owned, C-contiguous, writable
    array, which replaces it, so a write through the attribute is seen by
    every later check, product and payload. That first read takes no lock:
    two threads making it at once may each copy, and a write into the
    losing copy is lost. `blocks()` hands out the four blocks as held,
    copying nothing: the checks read them through it.
    """

    __slots__ = ("_blocks", "_viewed", "theta", "alpha", "M", "edge")

    def __init__(self, that, gamma_check, gamma_hat, t_check,
                 theta: BlaschkeProduct, alpha: BlaschkeProduct, M: int,
                 edge: int | None = None):
        n = M + 1
        blocks = [np.asarray(block, dtype=np.complex128)
                  for block in (that, gamma_check, gamma_hat, t_check)]
        for name, block in zip(BLOCK_NAMES, blocks):
            if block.shape != (n, n):
                raise DimensionError(f"{name} has shape {block.shape}, expected {(n, n)}")
            if not np.isfinite(block).all():
                raise InputError(f"{name} has a non-finite entry")
        self._blocks, self._viewed = blocks, [not b.flags.writeable for b in blocks]
        self.theta = theta
        self.alpha = alpha
        self.M = int(M)
        self.edge = edge

    @classmethod
    def _of_views(cls, views, theta: BlaschkeProduct, alpha: BlaschkeProduct,
                  M: int, edge: int) -> "BlockOperator":
        """build_dtto's operator over its four finite block views."""
        op = cls.__new__(cls)
        op._blocks, op._viewed = list(views), [True] * 4
        op.theta, op.alpha, op.M, op.edge = theta, alpha, int(M), edge
        return op

    def _named(k):
        def read(self) -> np.ndarray:
            # a read-only block is copied once, C-contiguous: `apply` on a
            # strided view would leave the BLAS path and change the bits
            if self._viewed[k]:
                self._blocks[k] = np.array(self._blocks[k], order="C")
                self._viewed[k] = False
            return self._blocks[k]

        def write(self, block):
            self._blocks[k], self._viewed[k] = block, False
        return property(read, write)

    that = _named(0)
    gamma_check = _named(1)
    gamma_hat = _named(2)
    t_check = _named(3)
    del _named

    def blocks(self) -> tuple[np.ndarray, ...]:
        """The four blocks in block order as held, views included; read
        them only."""
        return tuple(self._blocks)

    @property
    def dim(self) -> int:
        return 2 * (self.M + 1)

    def domain_basis(self) -> OrthonormalBasis:
        return basis_Kperp(self.theta, self.M)

    def codomain_basis(self) -> OrthonormalBasis:
        return basis_Kperp(self.alpha, self.M)

    def assemble(self) -> np.ndarray:
        top = np.hstack([self.that, self.gamma_check])
        bottom = np.hstack([self.gamma_hat, self.t_check])
        return np.vstack([top, bottom])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """D x, blockwise, for a vector x (dim,) or a batch of columns (dim, k)."""
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise DimensionError(f"input of shape {x.shape} for dimension {self.dim}")
        head, tail = x[:self.M + 1], x[self.M + 1:]
        return np.concatenate([self.that @ head + self.gamma_check @ tail,
                               self.gamma_hat @ head + self.t_check @ tail])

    def to_json(self) -> dict:
        return self.to_json_with(write_matrix)

    def to_json_with(self, write) -> dict:
        """The payload with `write(block)` as each block's value:
        payload.write_operator_text passes the identity and formats each
        block as it streams the text."""
        out = {
            "theta": self.theta.to_json(),
            "alpha": self.alpha.to_json(),
            "M": self.M,
            "blocks": {name: write(block) for name, block in zip(
                BLOCK_NAMES, (self.that, self.gamma_check, self.gamma_hat,
                               self.t_check))},
        }
        if self.edge is not None:
            out["edge"] = self.edge
        return out

    @classmethod
    def from_json(cls, obj) -> "BlockOperator":
        obj = read_typed(obj, dict, "block operator payload")
        blocks = read_typed(obj.get("blocks"), dict, "'blocks'")
        if "edge" in obj and read_int(obj["edge"], "edge") < 0:
            raise InputError(f"edge must be non-negative, got {obj['edge']}")
        return cls(*(read_matrix(blocks.get(name), name) for name in BLOCK_NAMES),
                   theta=BlaschkeProduct.from_json(obj.get("theta")),
                   alpha=BlaschkeProduct.from_json(obj.get("alpha")),
                   M=read_int(obj.get("M"), "depth M"), edge=obj.get("edge"))

    def __repr__(self):
        return (f"BlockOperator(theta={self.theta.short_name()}, "
                f"alpha={self.alpha.short_name()}, M={self.M})")


def build_tto(theta: BlaschkeProduct, alpha: BlaschkeProduct,
              phi) -> DenseComplexMatrix:
    """Compression of multiplication by phi from K(theta) to K(alpha):
    column j holds the codomain coordinates of phi * e_j."""
    phi = SymbolFunction.parse(phi)
    images = [multiply(phi.value, e) for e in tm_basis(theta).vectors]
    return DenseComplexMatrix(tm_basis(alpha).coords_and_defects(images)[0].T,
                              theta, alpha)


def guard_depth(theta: BlaschkeProduct, alpha: BlaschkeProduct,
                reach: int) -> int:
    """reach + deg theta + deg alpha + 2: the smallest section depth that
    leaves a few indices inside the truncation edge."""
    return reach + theta.degree + alpha.degree + 2


def default_depth(theta: BlaschkeProduct, alpha: BlaschkeProduct,
                  reach: int) -> int:
    """reach + deg theta + deg alpha + 6: the depth when none is given."""
    return guard_depth(theta, alpha, reach) + 4


def build_dtto(theta: BlaschkeProduct, alpha: BlaschkeProduct, phi,
               M: int) -> BlockOperator:
    """Compression of multiplication by phi between complement sections.

    Requires M >= guard_depth(theta, alpha, reach(phi)).
    """
    phi = SymbolFunction.parse(phi)
    if M > MAX_DEPTH:
        raise InputError(f"M={M} above the depth cap MAX_DEPTH={MAX_DEPTH}")
    guard = guard_depth(theta, alpha, phi.reach)
    if M < guard:
        raise InputError(f"M={M} below the guard depth {guard} for this symbol")
    phi_th = multiply(phi.value, section_expansion(theta, M))
    al_bar = conj_function(section_expansion(alpha, M))
    sequences = (multiply(phi_th, al_bar), multiply(phi.value, al_bar),
                 phi_th, phi.value)
    views = tuple(block_views(M, sequences))
    # a view reads every one of the 2M+1 coefficients under it, so they are
    # finite exactly when the block is
    for name, view in zip(BLOCK_NAMES, views):
        if not np.isfinite(view.base).all():
            raise InputError(f"{name} has a non-finite entry")
    return BlockOperator._of_views(views, theta, alpha, M, phi.reach)


# entry (i, j) of each block reads degree d0 + di * i + dj * j of its
# sequence, in block order That, GammaCheck, GammaHat, TCheck
_BLOCK_DEGREES = ((0, 1, -1), (1, 1, 1), (-1, -1, -1), (0, -1, 1))


def block_views(M: int, sequences) -> Iterator[np.ndarray]:
    """Each sequence as a depth-M block in block order, a read-only
    (M+1, M+1) view into the 2M+1 coefficients the block reads: That and
    TCheck are Toeplitz views of degrees -M..M, GammaCheck a Hankel view of
    1..2M+1 and GammaHat one of -2M-1..-1. Fewer sequences give the leading
    blocks. Entries of one block that share a degree share their value in
    every compressed multiplication operator."""
    for p, (d0, di, dj) in zip(sequences, _BLOCK_DEGREES):
        lo = d0 + M * (min(di, 0) + min(dj, 0))
        seq = p.dense(lo, lo + 2 * M)
        s = seq.itemsize
        view = np.ndarray((M + 1, M + 1), np.complex128, buffer=seq,
                          offset=(d0 - lo) * s, strides=(di * s, dj * s))
        view.flags.writeable = False
        yield view


def strided_sequence(block: np.ndarray, toeplitz: bool) -> np.ndarray | None:
    """The 2n - 1 values of an n x n block laid out in memory as a Toeplitz
    matrix, strides (a, -a), or as a Hankel one, strides (a, a): cell
    (i, j) is value n-1+j-i of a Toeplitz block and value i+j of a Hankel
    one. None for any other layout: its cells that share a diagonal need
    not share memory. A 1 x 1 block has both layouts, whatever its
    strides."""
    rows, cols = block.strides
    if len(block) > 1 and rows != (-cols if toeplitz else cols):
        return None
    return np.concatenate([block[::-1, 0], block[0, 1:]] if toeplitz
                          else [block[0], block[1:, -1]])


def split_blocks(full: np.ndarray, theta: BlaschkeProduct,
                 alpha: BlaschkeProduct, M: int) -> BlockOperator:
    """Cut a full matrix on the Kperp sections into its four blocks, of
    unknown provenance (no `edge`)."""
    full = np.asarray(full, dtype=np.complex128)
    n = M + 1
    if full.shape != (2 * n, 2 * n):
        raise DimensionError(f"full matrix {full.shape} does not match M={M}")
    return BlockOperator(that=full[:n, :n], gamma_check=full[:n, n:],
                         gamma_hat=full[n:, :n], t_check=full[n:, n:],
                         theta=theta, alpha=alpha, M=M)
