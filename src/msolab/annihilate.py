"""Trace-class pairing and the rank-one/rank-two annihilator calculus.

A finite-rank operator t = sum_n f_n (x) g_n acts against an operator T
through the pairing <T, t> = sum_n <T f_n, g_n>. The generator families
produced here (the shifted-dyad differences and the six two-dyad families)
pair to zero against every compressed-multiplication operator; a block
operator violating one of the four membership conditions shows a nonzero
pairing against the matching family. Pairings are evaluated in section
coordinates, so the dyad vectors must lie in the section span (checked via
the membership defect).

Two rank-one tools complete the calculus: the transitivity probe, the
product f * conj(g) whose visible coefficient shows that f (x) g annihilates
no model-space compression (criterion 6), and the rank-one representer of
a moment functional (criterion 8).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bases import OrthonormalBasis
from .errors import AdmissibilityError, DimensionError, InputError
from .inner import BlaschkeProduct, expand
from .laurent import LaurentPolynomial, conj_function, multiply
from .operators import BlockOperator, DenseComplexMatrix
from .spaces import project

MEMBERSHIP_TOL = 1e-8
# relative bound on the part of z*f outside the space for a shift-admissible f
ADMISSIBILITY_TOL = 1e-10
# a probe product with a coefficient above this is certified nonzero
PROBE_FLOOR = 1e-12


class FiniteRankOperator:
    """A list of dyads (f, g) representing sum f_i (x) g_i; f_i live in the
    domain of the operators to be paired against, g_i in the codomain."""

    __slots__ = ("dyads",)

    def __init__(self, dyads):
        self.dyads = tuple((f, g) for f, g in dyads)

    def __repr__(self):
        return f"FiniteRankOperator(rank<={len(self.dyads)})"


def _bases(T) -> tuple[OrthonormalBasis, OrthonormalBasis]:
    if not isinstance(T, (BlockOperator, DenseComplexMatrix)):
        raise InputError("pairing expects a BlockOperator or DenseComplexMatrix")
    return T.domain_basis(), T.codomain_basis()


def _distinct(polys) -> tuple[list, np.ndarray]:
    """The distinct polynomials of `polys` in order of first appearance,
    keyed on band start and coefficient bytes, and the index of each
    polynomial of `polys` among them."""
    first = {}
    owner = [first.setdefault((p.lo, p._data.tobytes()), (len(first), p))[0]
             for p in polys]
    return [p for _, p in first.values()], np.array(owner, dtype=np.intp)


def _dyad_coords(dom, cod, dyads) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates X (domain side) and Y (codomain side) of the dyad
    vectors, in dyad order, from one coordinate pass per side over the
    distinct vectors. Raises when a dyad vector fails to lie in the
    matching section span (its mass would silently be dropped otherwise),
    naming the first such dyad."""
    fs, ix = _distinct(f for f, _ in dyads)
    gs, iy = _distinct(g for _, g in dyads)
    X, dx, nx = dom.coords_and_defects(fs)
    Y, dy, ny = cod.coords_and_defects(gs)
    bad_x = (dx > MEMBERSHIP_TOL * np.maximum(1.0, nx))[ix]
    bad_y = (dy > MEMBERSHIP_TOL * np.maximum(1.0, ny))[iy]
    if bad_x.any() or bad_y.any():
        r = int(np.argmax(bad_x | bad_y))
        side, basis, defect = ("f", dom, dx[ix[r]]) if bad_x[r] else ("g", cod, dy[iy[r]])
        raise DimensionError(
            f"dyad vector {side} leaves the {basis.label} span by {defect:.2e}")
    return X[ix], Y[iy]


def _family_sums(AX, Y, counts) -> np.ndarray:
    """sum_n <A x_n, y_n> over consecutive runs of counts[j] dyads, each
    summed in dyad order, from the image rows AX."""
    owner = np.repeat(np.arange(len(counts)), counts)
    out = np.zeros(len(counts), dtype=np.complex128)
    np.add.at(out, owner, np.einsum("ri,ri->r", Y.conj(), AX))
    return out


def pair_many(T, families) -> np.ndarray:
    """Trace pairings sum_n <T f_n, g_n> of a list of finite-rank operators.

    The distinct dyad vectors of all families go through one coordinate
    pass per side. Their coordinates, gathered back in dyad order, go
    through one product with the operator, blockwise on a BlockOperator:
    over the distinct ones alone, BLAS would take the trailing columns of
    a batch through another kernel, and images would move in the last
    bits. The dyads of each family are then summed in order. Raises when a
    dyad vector fails to lie in the matching section span.
    """
    families = list(families)
    X, Y = _dyad_coords(*_bases(T), [fg for t in families for fg in t.dyads])
    return _family_sums(T.apply(X.T).T, Y, [len(t.dyads) for t in families])


def pair(T, t: FiniteRankOperator) -> complex:
    """Trace pairing sum_n <T f_n, g_n> in the operator's coordinates: the
    batch of one of `pair_many`."""
    return complex(pair_many(T, [t])[0])


def pair_each(operators, t: FiniteRankOperator) -> np.ndarray:
    """Trace pairings <T_j, t> of one finite-rank operator against operators
    on the same domain and codomain bases (the same basis objects, as the
    basis caches hand out for one theta, alpha and depth). The dyad
    coordinates and their membership check are computed once; entry j
    equals pair(T_j, t) exactly. `operators` may be a generator, so that
    only one operator is held at a time."""
    out, bases = [], None
    for T in operators:
        dom, cod = _bases(T)
        if bases is None:
            bases = dom, cod
            X, Y = _dyad_coords(dom, cod, t.dyads)
        elif dom is not bases[0] or cod is not bases[1]:
            raise InputError("pair_each expects operators on the same bases")
        out.append(_family_sums(T.apply(X.T).T, Y, [len(t.dyads)])[0])
    return np.array(out, dtype=np.complex128)


def gen_shift_pair(f: LaurentPolynomial, g: LaurentPolynomial, *,
                   domain: OrthonormalBasis | None = None,
                   codomain: OrthonormalBasis | None = None) -> FiniteRankOperator:
    """The two-dyad operator z f (x) z g - f (x) g.

    f and g must be shift-admissible in their spaces. With explicit bases the
    residual of z*vector outside the ambient space is checked; without them
    the orthogonality to zbar is checked, which is the admissibility
    criterion in the complement sections. Either check allows
    ADMISSIBILITY_TOL relative to max(1, norm). A basis whose kind names
    none of the three subspaces of spaces.SUBSPACES (an admissible basis,
    say) raises InputError.
    """
    for name, vec, basis in (("f", f, domain), ("g", g, codomain)):
        if basis is not None:
            zv = vec.shift(1)
            res = (zv - project(basis.inner, basis.kind, zv)).norm()
            if res > ADMISSIBILITY_TOL * max(1.0, vec.norm()):
                raise AdmissibilityError(
                    f"{name} is not shift-admissible: residual {res:.2e}")
        elif abs(vec.coeff(-1)) > ADMISSIBILITY_TOL * max(1.0, vec.norm()):
            raise AdmissibilityError(
                f"{name} is not orthogonal to zbar "
                f"(coefficient {vec.coeff(-1):.2e})")
    return FiniteRankOperator([(f.shift(1), g.shift(1)), (-f, g)])


def gen_M(theta: BlaschkeProduct, alpha: BlaschkeProduct, h: LaurentPolynomial,
          g: LaurentPolynomial) -> tuple[FiniteRankOperator, ...]:
    """The six two-dyad families tied to the four membership conditions, in
    order: family 1 <-> the That sandwich, 2 <-> the TCheck coupling, 3/4
    <-> the two Hankel intertwinings, 5/6 <-> the two corner identities.

    h and g are analytic polynomials (families 5 and 6 use only g). All six
    share one expansion of theta and alpha and the products
    theta*alpha, theta*h, alpha*g, theta*alpha*h and theta*alpha*g.
    """
    for name, vec in (("h", h), ("g", g)):
        if not vec.is_zero() and vec.lo < 0:
            raise InputError(f"{name} must be an analytic polynomial")
    th = expand(theta)
    al = expand(alpha)
    th_al = multiply(th, al)
    th_h, al_g = multiply(th, h), multiply(al, g)
    th_al_h, th_al_g = multiply(th_al, h), multiply(th_al, g)
    zbar_hbar = conj_function(h).shift(-1)
    zbar_gbar = conj_function(g).shift(-1)
    return (
        FiniteRankOperator([(th_h, al_g), (-th_h.shift(1), al_g.shift(1))]),
        FiniteRankOperator([(th_al_h, th_al_g), (-zbar_gbar, zbar_hbar)]),
        FiniteRankOperator([(th_h.shift(1), zbar_gbar),
                            (-th_h, zbar_gbar.shift(-1))]),
        FiniteRankOperator([(zbar_hbar, al_g.shift(1)),
                            (-zbar_hbar.shift(-1), al_g)]),
        FiniteRankOperator([(th, zbar_gbar), (-th_al_g.shift(1), al)]),
        FiniteRankOperator([(th, th_al_g.shift(1)), (-zbar_gbar, al)]),
    )


class ProbeResult(NamedTuple):
    product: LaurentPolynomial
    nonzero: bool


def transitivity_probe(f: LaurentPolynomial, g: LaurentPolynomial) -> ProbeResult:
    """The product f * conj(g) and whether it certifies that f (x) g cannot
    annihilate the compressed-multiplication class (some coefficient above
    PROBE_FLOOR means it cannot)."""
    if f.is_zero() or g.is_zero():
        raise InputError("transitivity probe requires nonzero vectors")
    product = multiply(f, conj_function(g))
    return ProbeResult(product, product.sup_on_band() > PROBE_FLOOR)


def represent_functional(density: LaurentPolynomial, theta: BlaschkeProduct,
                         alpha: BlaschkeProduct) -> FiniteRankOperator:
    """A rank-one operator t with <D_psi, t> = integral of psi * density for
    every polynomial symbol psi: shift the density analytic, then wrap both
    legs in theta*alpha."""
    if density.is_zero():
        return FiniteRankOperator([])
    n = max(0, -density.lo)
    h1 = density.shift(n)
    th = expand(theta)
    al = expand(alpha)
    wrap = multiply(th, al)
    return FiniteRankOperator([(multiply(wrap, h1), wrap.shift(n))])
