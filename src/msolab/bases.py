"""Labeled orthonormal bases of the subspaces the operators act between.

Bases of the truncated complement sections (kinds "thetaH2", "Hminus" and
"model_perp") never form a dense matrix of their vectors. With th the
truncated expansion of the inner function, a section of depth M has the
vectors th*z^k (k = 0..M) and zbar^k (k = 1..M+1), so

* the head coordinates of f are the coefficients 0..M of f*conj(th),
* the tail coordinates of f are its coefficients at degrees -1..-(M+1),
* reconstruction is th*(head polynomial) plus the tail monomials.

Model-space and admissible bases keep the dense path over a stacked matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .laurent import LaurentPolynomial

_HEAD_KINDS = ("thetaH2", "model_perp")
_TAIL_KINDS = ("Hminus", "model_perp")


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

    def _section_coords(self, f: LaurentPolynomial) -> np.ndarray:
        M = self.depth
        th = self.expansion
        parts = []
        if self.kind in _HEAD_KINDS:
            parts.append(np.correlate(f.dense(th.lo, th.hi + M), th._data,
                                      "valid"))
        if self.kind in _TAIL_KINDS:
            parts.append(f.dense(-(M + 1), -1)[::-1])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def _section_dense(self, x: np.ndarray) -> tuple[int, np.ndarray]:
        """(lo, coefficients) of sum_k x_k v_k over the section band."""
        n = self.depth + 1
        th = self.expansion
        head, tail = self.kind in _HEAD_KINDS, self.kind in _TAIL_KINDS
        lo = -n if tail else th.lo
        hi = th.hi + n - 1 if head else -1
        data = np.zeros(hi - lo + 1, dtype=np.complex128)
        if head:
            data[th.lo - lo:] = np.convolve(th._data, x[:n])
        if tail:
            data[:n] = x[-n:][::-1]
        return lo, data

    # -- coordinate maps ---------------------------------------------------------

    def coords(self, f: LaurentPolynomial) -> np.ndarray:
        """Coefficient vector of the orthogonal projection of f onto the span."""
        if not self.vectors:
            return np.zeros(0, dtype=np.complex128)
        if self._is_section():
            return self._section_coords(f)
        lo, hi, _, Vc, _ = self._stack()
        return Vc @ f.dense(lo, hi)

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

    def coords_and_defect(self, f: LaurentPolynomial):
        """Projection coordinates together with the norm of the residual
        component outside the span."""
        if not self.vectors:
            return np.zeros(0, dtype=np.complex128), f.norm()
        if self._is_section():
            x = self._section_coords(f)
            start, data = self._section_dense(x)
            stop = start + len(data) - 1
            lo, hi = (start, stop) if f.is_zero() else \
                (min(start, f.lo), max(stop, f.hi))
            residual = f.dense(lo, hi)
            residual[start - lo:stop - lo + 1] -= data
            return x, float(np.linalg.norm(residual))
        lo, hi, V, Vc, _ = self._stack()
        fv = f.dense(lo, hi)
        x = Vc @ fv
        res_sq = float(np.sum(np.abs(fv - x @ V) ** 2))
        # mass of f strictly outside the basis band, summed directly
        if not f.is_zero():
            if f.lo < lo:
                seg = f._data[:min(lo - f.lo, len(f._data))]
                res_sq += float(np.sum(np.abs(seg) ** 2))
            if f.hi > hi:
                start = max(0, hi + 1 - f.lo)
                res_sq += float(np.sum(np.abs(f._data[start:]) ** 2))
        return x, res_sq ** 0.5

    def membership_defect(self, f: LaurentPolynomial) -> float:
        """Norm of the component of f outside the span."""
        return self.coords_and_defect(f)[1]

    def __repr__(self) -> str:
        return f"OrthonormalBasis({self.label!r}, dim={self.dim})"
