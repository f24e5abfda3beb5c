"""Labeled orthonormal bases of the subspaces the operators act between.

Bases of the truncated complement sections (kinds "thetaH2", "Hminus" and
"model_perp") never stack their vector polynomials. With th the
truncated expansion of the inner function, a section of depth M has the
vectors th*z^k (k = 0..M) and zbar^k (k = 1..M+1), so

* the head coordinates of f are the coefficients 0..M of f*conj(th),
* the tail coordinates of f are its coefficients at degrees -1..-(M+1),
* reconstruction is th*(head polynomial) plus the tail monomials.

Coordinates are taken in batches (`coords_and_defects`; `coords` is the
batch of one): the polynomials are stacked into one dense coefficient
array, and its head coordinates are one product with the Toeplitz matrix of
conj(th), built from th alone. Model-space and admissible bases keep the
dense path over a stacked matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError
from .laurent import LaurentPolynomial

_HEAD_KINDS = ("thetaH2", "model_perp")
_TAIL_KINDS = ("Hminus", "model_perp")


def _row_norms(F: np.ndarray) -> np.ndarray:
    # one pass over the real view, no conjugated temporary
    R = F.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", R, R))


class OrthonormalBasis:
    """An ordered orthonormal family spanning one of the canonical subspaces.

    `kind` drives the logic ("model", "thetaH2", "Hminus", "model_perp",
    "admissible"); `label` is the human-readable tag used verbatim in JSON
    reports. `inner` is the Blaschke product the space is attached to (None
    for Hminus), `depth` the truncation M where applicable, `expansion` the
    truncated expansion th behind the theta*z^k vectors of a section.
    """

    def __init__(self, label: str, vectors, *, kind: str, inner=None,
                 depth: int | None = None,
                 expansion: LaurentPolynomial | None = None):
        self.label = label
        self.vectors = tuple(vectors)
        self.kind = kind
        self.inner = inner
        self.depth = depth
        self.expansion = expansion

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

    def band(self) -> tuple[int, int]:
        lo = min(v.lo for v in self.vectors)
        hi = max(v.hi for v in self.vectors)
        return lo, hi

    def stacked(self, lo: int | None = None, hi: int | None = None) -> np.ndarray:
        """Dense matrix with one basis vector per row over a common band."""
        if lo is None or hi is None:
            blo, bhi = self.band()
            lo = blo if lo is None else lo
            hi = bhi if hi is None else hi
        out = np.zeros((len(self.vectors), hi - lo + 1), dtype=np.complex128)
        for i, v in enumerate(self.vectors):
            out[i] = v.dense(lo, hi)
        return out

    def _stack(self):
        # dense matrix (and its conjugate) over the basis band, built once
        cached = getattr(self, "_stack_cache", None)
        if cached is None:
            lo, hi = self.band()
            V = self.stacked(lo, hi)
            cached = (lo, hi, V, V.conj(),
                      np.array([v.tail_bound for v in self.vectors]))
            self._stack_cache = cached
        return cached

    def gram(self) -> np.ndarray:
        V = self.stacked()
        return V @ V.conj().T

    def gram_defect(self) -> float:
        g = self.gram()
        return float(np.max(np.abs(g - np.eye(len(self.vectors))))) if len(self.vectors) else 0.0

    # -- coefficient slices of the complement sections -----------------------

    def _is_section(self) -> bool:
        return self.kind in _HEAD_KINDS or self.kind in _TAIL_KINDS

    def _section_band(self) -> tuple[int, int]:
        n = self.depth + 1
        th = self.expansion
        lo = -n if self.kind in _TAIL_KINDS else th.lo
        hi = th.hi + n - 1 if self.kind in _HEAD_KINDS else -1
        return lo, hi

    def _section_dense(self, x: np.ndarray) -> tuple[int, np.ndarray]:
        """(lo, coefficients) of sum_k x_k v_k over the section band."""
        n = self.depth + 1
        th = self.expansion
        lo, hi = self._section_band()
        data = np.zeros(hi - lo + 1, dtype=np.complex128)
        if self.kind in _HEAD_KINDS:
            data[th.lo - lo:] = np.convolve(th._data, x[:n])
        if self.kind in _TAIL_KINDS:
            data[:n] = x[-n:][::-1]
        return lo, data

    def _head_correlation(self) -> np.ndarray:
        """The Toeplitz matrix H[m, j] = conj(th_(m - j)), m < len(th) + M,
        j <= M: rows over [th.lo, th.hi + M] times H are the head
        coordinates, and head coordinates times H^H rebuild th*(head)."""
        n = self.depth + 1
        pad = np.zeros(n - 1, dtype=np.complex128)
        c = np.concatenate([pad, self.expansion._data.conj(), pad])
        return np.ascontiguousarray(sliding_window_view(c, n)[:, ::-1])

    # -- coordinate maps ---------------------------------------------------------

    def coords(self, f: LaurentPolynomial) -> np.ndarray:
        """Coefficient vector of the orthogonal projection of f onto the span:
        the batch of one of `coords_and_defects`."""
        return self.coords_and_defects([f])[0][0]

    def reconstruct(self, x) -> LaurentPolynomial:
        x = np.asarray(x, dtype=np.complex128)
        if len(x) != len(self.vectors):
            raise DimensionError(
                f"{len(x)} coordinates for a {len(self.vectors)}-dim basis")
        if not self.vectors:
            return LaurentPolynomial.zero()
        if self._is_section():
            lo, data = self._section_dense(x)
            tail_bound = 0.0
            if self.kind in _HEAD_KINDS:
                tail_bound = self.expansion.tail_bound * float(
                    np.sum(np.abs(x[:self.depth + 1])))
            return LaurentPolynomial._from_dense(lo, data, tail_bound)
        lo, _, V, _, tails = self._stack()
        return LaurentPolynomial._from_dense(lo, x @ V,
                                             float(np.abs(x) @ tails))

    def coords_and_defects(self, polys):
        """Coordinates, membership defects and norms of a batch of polynomials.

        The polynomials are stacked into one dense coefficient array over the
        union of their bands and the basis band. Row r of the coordinates is
        the projection of polys[r] onto the span, defects[r] the norm of
        polys[r] minus its rebuild from them, norms[r] the norm of polys[r].
        """
        polys = list(polys)
        if not self.vectors:
            blo, bhi = 0, -1
        elif self._is_section():
            blo, bhi = self._section_band()
        else:
            blo, bhi, V, Vc, _ = self._stack()
        live = [p for p in polys if not p.is_zero()]
        lo = min([blo] + [p.lo for p in live])
        hi = max([bhi] + [p.hi for p in live])
        F = np.zeros((len(polys), hi - lo + 1), dtype=np.complex128)
        for row, p in zip(F, polys):
            row[p.lo - lo:p.hi - lo + 1] = p._data
        norms = _row_norms(F)
        # F becomes the residual: each coordinate block subtracts its rebuild,
        # which on the tail is the slice itself
        if not self.vectors:
            X = np.zeros((len(polys), 0), dtype=np.complex128)
        elif self._is_section():
            n = self.depth + 1
            parts = []
            if self.kind in _HEAD_KINDS:
                th = self.expansion
                H = self._head_correlation()
                head = F[:, th.lo - lo:th.hi + n - lo]
                parts.append(head @ H)
                head -= parts[-1] @ H.conj().T
            if self.kind in _TAIL_KINDS:
                tail = F[:, -n - lo:-lo]
                parts.append(tail[:, ::-1].copy())
                tail[:] = 0
            X = np.hstack(parts)
        else:
            seg = F[:, blo - lo:bhi - lo + 1]
            X = seg @ Vc.T
            seg -= X @ V
        return X, _row_norms(F), norms

    def coords_and_defect(self, f: LaurentPolynomial):
        """Projection coordinates together with the norm of the residual
        component outside the span: the batch of one."""
        X, defects, _ = self.coords_and_defects([f])
        return X[0], float(defects[0])

    def membership_defect(self, f: LaurentPolynomial) -> float:
        """Norm of the component of f outside the span."""
        return self.coords_and_defect(f)[1]

    def __repr__(self) -> str:
        return f"OrthonormalBasis({self.label!r}, dim={self.dim})"
