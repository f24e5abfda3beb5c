"""Projections and bases tied to a model space and its orthogonal complement.

The ambient decomposition is L2 = K(theta) + theta*H2 + H2minus, realized on
banded expansions. All subspace projections route through one primitive:
P_{theta H2} f = theta * P+(conj(theta) f). The one finite section basis
is the depth-M section of the complement theta*H2 + H2minus (basis_Kperp),
in the fixed vector order

    theta*z^k for k = 0..M,  then  zbar^k for k = 1..M+1,

and that order defines every block matrix in the package. Coordinates in
the section are coefficient slices: with th = section_expansion(theta, M),
the theta*H2 coordinates of f are the coefficients 0..M of f*conj(th) and
the H2minus coordinates are the coefficients of f at degrees -1..-(M+1)
(see msolab.bases).
"""

from __future__ import annotations

import functools

import numpy as np

from .bases import OrthonormalBasis
from .errors import InputError
from .inner import BlaschkeProduct, expand
from .laurent import (LaurentPolynomial, conj_function, inner_product,
                      minus_part, multiply, plus_part)

SUBSPACES = ("model", "thetaH2", "model_perp")

# kernel detection threshold of the shift-invariance systems
# (characterize.solve_shift_invariant_space, suites criterion 4): an order of
# magnitude above the roundoff in their coefficients, well below genuine
# singular values for rho <= 0.95
SHIFT_KERNEL_TOL = 1e-10


def project(theta: BlaschkeProduct, subspace: str,
            f: LaurentPolynomial) -> LaurentPolynomial:
    """Orthogonal projection of f onto the named subspace attached to theta."""
    if subspace not in SUBSPACES:
        raise InputError(f"unknown subspace {subspace!r}; expected one of {SUBSPACES}")
    th = _expansion_for(theta, f)
    on_theta_h2 = multiply(th, plus_part(multiply(conj_function(th), f)))
    if subspace == "thetaH2":
        return on_theta_h2
    if subspace == "model":
        return plus_part(f) - on_theta_h2
    return minus_part(f) + on_theta_h2  # model_perp


def conjugation_C(theta: BlaschkeProduct, f: LaurentPolynomial) -> LaurentPolynomial:
    """The antilinear involution f -> theta * zbar * conj(f).

    Isometric with reversed pairing order; preserves the model space and
    swaps theta*H2 with H2minus.
    """
    th = _expansion_for(theta, f)
    return multiply(th, conj_function(f).shift(-1))


def _expansion_for(theta: BlaschkeProduct, f: LaurentPolynomial) -> LaurentPolynomial:
    """The expansion of theta that projects or conjugates f: it reaches past
    the band of f on both sides, so the coefficients of the result are
    exact up to the tail `expand` leaves."""
    return expand(theta, max(f.hi, -f.lo) + theta.degree + 2)


def section_expansion(theta: BlaschkeProduct, M: int) -> LaurentPolynomial:
    """The truncated expansion th behind the depth-M theta*H2 section: it
    reaches past the section itself, or stops at theta.floor_degree where
    that comes first, so a coefficient of a product f * th read on the
    section moves by at most ||f||_2 TAIL_FLOOR (msolab.inner)."""
    return expand(theta, M + theta.degree + 2)


@functools.lru_cache(maxsize=256)
def _tail_monomials(M: int) -> tuple[LaurentPolynomial, ...]:
    """zbar^k for k = 1..M+1: the H2minus part of every depth-M section,
    built once per depth."""
    return tuple(LaurentPolynomial.monomial(-k) for k in range(1, M + 2))


@functools.lru_cache(maxsize=256)
def basis_Kperp(theta: BlaschkeProduct, M: int) -> OrthonormalBasis:
    """Finite section of the complement of the model space: theta z^k for
    k = 0..M, then zbar^k for k = 1..M+1 (this order is load-bearing).
    Orthonormal since |theta| = 1 on the circle."""
    if M < 0:
        raise InputError("truncation depth must be nonnegative")
    th = section_expansion(theta, M)
    head = tuple(th.shift(k) for k in range(M + 1))
    return OrthonormalBasis(f"Kperp({theta.short_name()})@{M}",
                            head + _tail_monomials(M), kind="model_perp",
                            inner=theta, depth=M, expansion=th)


def section_shift_index(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the shift moves the admissible vectors of a depth-M section.

    The shift is an index shift on the section, theta z^k -> theta z^(k+1)
    and zbar^k -> zbar^(k-1), so z*v[keep[p]] = v[moved[p]] exactly. The
    two vectors the shift pushes out are not kept: theta z^M (z*theta z^M
    leaves the truncation) and zbar (z*zbar = 1 has the nonzero model-space
    part 1 - conj(theta(0)) theta).
    """
    k = np.arange(M)
    return np.r_[k, k + M + 2], np.r_[k + 1, k + M + 1]


def compressed_shift(V: OrthonormalBasis) -> tuple[np.ndarray, np.ndarray]:
    """The compressed shift S_theta on a model basis V and the coordinates
    of its admissible vectors.

    S[i, j] = <z e_j, e_i>, so S x holds the coordinates of P_model(z f) for
    f = sum_j x_j e_j. For f in K(theta), z f leaves K(theta) only along
    theta, by <z f, theta> = c^H x with c_j = <theta, z e_j>. The columns
    of X are an orthonormal basis of {x : c^H x = 0}, the coordinates of
    the f with z f in K(theta); S X holds the coordinates of their z f.
    """
    S = V.coords_and_defects(e.shift(1) for e in V)[0].T
    th = expand(V.inner)
    c = np.array([inner_product(th, e.shift(1)) for e in V])
    _, _, Vh = np.linalg.svd(c.conj()[None, :])
    return S, Vh[1:].conj().T


def admissible_for_shift(V: OrthonormalBasis) -> OrthonormalBasis:
    """Orthonormal basis of {f in span V : z*f stays in the ambient space}.

    On the depth-M sections these are the section's own vectors, in section
    order, at the indices `section_shift_index` keeps; on a model space they
    are rebuilt from the admissible coordinates of `compressed_shift`.
    """
    label = f"admissible[{V.label}]"
    if V.kind == "model_perp":
        keep, _ = section_shift_index(V.depth)
        return OrthonormalBasis(label, [V.vectors[i] for i in keep],
                                kind="admissible", inner=V.inner, depth=V.depth)
    if V.kind != "model":
        raise InputError(f"unsupported basis kind {V.kind!r}")
    _, X = compressed_shift(V)
    return OrthonormalBasis(label, [V.reconstruct(x) for x in X.T],
                            kind="admissible", inner=V.inner, depth=V.depth)
