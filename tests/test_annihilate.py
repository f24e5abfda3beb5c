import numpy as np
import pytest

from msolab.annihilate import (FiniteRankOperator, gen_M, gen_shift_pair,
                               pair, pair_each, represent_functional,
                               transitivity_probe)
from msolab.errors import AdmissibilityError, DimensionError, InputError
from msolab.inner import BlaschkeProduct, monomial_inner, tm_basis
from msolab.laurent import LaurentPolynomial, monomial, one
from msolab.operators import build_dtto, build_tto
from msolab.spaces import admissible_for_shift, basis_Kperp

from conftest import random_poly

Z2 = monomial_inner(2)


# -- pairing -----------------------------------------------------------------

def test_pair_identity_returns_inner_product(rng):
    basis = basis_Kperp(Z2, 6)
    D = build_dtto(Z2, Z2, one(), 6)
    f = basis.reconstruct(np.array([rng.complex_box() for _ in range(basis.dim)]))
    g = basis.reconstruct(np.array([rng.complex_box() for _ in range(basis.dim)]))
    from msolab.laurent import inner_product
    assert pair(D, FiniteRankOperator([(f, g)])) == pytest.approx(
        inner_product(f, g), abs=1e-12)


def test_pair_hand_example():
    D = build_dtto(Z2, Z2, monomial(1), 8)
    assert pair(D, FiniteRankOperator([(monomial(2), monomial(3))])) == \
        pytest.approx(1.0)


def test_pair_family_five_hand_example():
    D = build_dtto(Z2, Z2, monomial(-3), 9)
    t = gen_M(Z2, Z2, one(), one())[4]
    assert pair(D, t) == pytest.approx(0.0, abs=1e-13)


def test_pair_rejects_vectors_outside_section():
    # theta = alpha: both sides are one basis with one label, so the error
    # names the side
    D = build_dtto(Z2, Z2, one(), 6)
    assert D.domain_basis() is D.codomain_basis()
    with pytest.raises(DimensionError, match=r"vector f leaves the Kperp\(z\^2\)@6 span"):
        pair(D, FiniteRankOperator([(monomial(0), monomial(2))]))  # 1 in K_theta
    with pytest.raises(DimensionError, match=r"vector g leaves the Kperp\(z\^2\)@6 span"):
        pair(D, FiniteRankOperator([(monomial(2), monomial(40))]))  # beyond M


def test_pair_on_model_space_operator():
    A = build_tto(Z2, Z2, monomial(1))
    t = FiniteRankOperator([(one(), monomial(1))])
    # <A 1, z> = <z, z> = 1
    assert pair(A, t) == pytest.approx(1.0)


# -- the shifted-dyad family ---------------------------------------------------

def test_shift_pair_layout():
    t = gen_shift_pair(monomial(2), monomial(3))
    (f1, g1), (f2, g2) = t.dyads
    assert f1.coeffs == {3: (1 + 0j)} and g1.coeffs == {4: (1 + 0j)}
    assert f2.coeffs == {2: (-1 + 0j)} and g2.coeffs == {3: (1 + 0j)}


def test_shift_pair_annihilates_dtto(rng):
    phi = random_poly(rng, -2, 2)
    D = build_dtto(Z2, Z2, phi, 9)
    dom, cod = D.domain_basis(), D.codomain_basis()
    for f_idx, g_idx in ((0, 0), (2, 1), (11, 12), (12, 15)):
        t = gen_shift_pair(dom.vectors[f_idx], cod.vectors[g_idx],
                           domain=dom, codomain=cod)
        assert abs(pair(D, t)) <= 1e-12


def test_shift_pair_annihilates_tto(rng):
    b = BlaschkeProduct([0.4, -0.2j, 0.3])
    basis = tm_basis(b)
    adm = admissible_for_shift(basis)
    phi = random_poly(rng, -2, 2)
    A = build_tto(b, b, phi)
    for f in adm:
        for g in adm:
            t = gen_shift_pair(f, g, domain=basis, codomain=basis)
            assert abs(pair(A, t)) <= 1e-11


def test_shift_pair_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        gen_shift_pair(monomial(-1), monomial(2))
    basis = tm_basis(Z2)
    with pytest.raises(AdmissibilityError):
        # z is the top layer of the model space of z^2: z*z leaves it
        gen_shift_pair(monomial(1), one(), domain=basis, codomain=basis)


def test_shift_pair_rejects_admissible_kind_basis():
    adm = admissible_for_shift(basis_Kperp(Z2, 3))
    with pytest.raises(InputError, match="unknown subspace 'admissible'"):
        gen_shift_pair(adm[0], adm[1], domain=adm)
    with pytest.raises(InputError, match="unknown subspace 'admissible'"):
        gen_shift_pair(adm[0], adm[1], codomain=adm)


# -- the six families -----------------------------------------------------------

def test_family_formulas_monomial_case():
    families = gen_M(Z2, Z2, one(), one())
    assert [[(f.coeffs, g.coeffs) for f, g in t.dyads] for t in families] == [
        [({2: 1}, {2: 1}), ({3: -1}, {3: 1})],
        [({4: 1}, {4: 1}), ({-1: -1}, {-1: 1})],
        [({3: 1}, {-1: 1}), ({2: -1}, {-2: 1})],
        [({-1: 1}, {3: 1}), ({-2: -1}, {2: 1})],
        [({2: 1}, {-1: 1}), ({5: -1}, {2: 1})],
        [({2: 1}, {5: 1}), ({-1: -1}, {2: 1})]]


def test_family_swap_in_second_family(rng):
    h = LaurentPolynomial({0: 1, 1: 2})
    g = LaurentPolynomial({0: 3})
    t = gen_M(Z2, Z2, h, g)[1]
    (f1, g1), (f2, g2) = t.dyads
    # second dyad is zbar*conj(g) (x) zbar*conj(h): the arguments swap sides
    assert f2.coeffs == {-1: (-3 + 0j)}
    assert g2.coeffs == {-1: (1 + 0j), -2: (2 + 0j)}


def test_families_annihilate_builds(rng):
    for trial in range(3):
        b1 = BlaschkeProduct([rng.complex_disk(0.5)])
        b2 = BlaschkeProduct([rng.complex_disk(0.5), rng.complex_disk(0.5)])
        phi = random_poly(rng, -2, 2)
        M = 2 + 1 + 2 + 60
        D = build_dtto(b1, b2, phi, M)
        worst = max(abs(pair(D, t)) for p in range(2) for q in range(2)
                    for t in gen_M(b1, b2, monomial(p), monomial(q)))
        assert worst <= 1e-11


def test_family_validation():
    with pytest.raises(InputError, match="h must be an analytic"):
        gen_M(Z2, Z2, monomial(-1), one())
    with pytest.raises(InputError, match="g must be an analytic"):
        gen_M(Z2, Z2, one(), LaurentPolynomial({-2: 1.0, 0: 1.0}))


# -- transitivity probe ------------------------------------------------------------

def test_probe_examples():
    f = LaurentPolynomial({0: 1, 1: 1})
    g = LaurentPolynomial({0: 1, 1: -1})
    probe = transitivity_probe(f, g)
    assert probe.nonzero
    assert probe.product.coeffs == {1: (1 + 0j), -1: (-1 + 0j)}
    assert transitivity_probe(one(), monomial(1)).nonzero
    with pytest.raises(InputError):
        transitivity_probe(LaurentPolynomial(), one())


def test_probe_never_finds_rank_one_annihilator(rng):
    b1 = BlaschkeProduct([0.5, 0.2 - 0.4j])
    b2 = BlaschkeProduct([0.6j])
    bt, ba = tm_basis(b1), tm_basis(b2)
    for _ in range(25):
        f = bt.reconstruct(np.array([rng.complex_box() for _ in range(bt.dim)]))
        g = ba.reconstruct(np.array([rng.complex_box() for _ in range(ba.dim)]))
        assert transitivity_probe(f, g).nonzero


# -- representer ------------------------------------------------------------------

def test_representer_hand_examples():
    t = represent_functional(monomial(-1), Z2, Z2)
    assert [(f.coeffs, g.coeffs) for f, g in t.dyads] == [
        ({4: (1 + 0j)}, {5: (1 + 0j)})]
    t0 = represent_functional(one(), Z2, Z2)
    assert [(f.coeffs, g.coeffs) for f, g in t0.dyads] == [
        ({4: (1 + 0j)}, {4: (1 + 0j)})]
    assert represent_functional(LaurentPolynomial(), Z2, Z2).rank_bound == 0


def test_representer_reproduces_moments(rng):
    density = random_poly(rng, -4, 4)
    t = represent_functional(density, Z2, Z2)
    for k in range(-4, 5):
        D = build_dtto(Z2, Z2, monomial(k), 16)
        assert pair(D, t) == pytest.approx(density.coeff(-k), abs=1e-12)


@pytest.mark.parametrize("theta, alpha", [
    (Z2, monomial_inner(3)),
    (BlaschkeProduct([0.3 + 0.2j]), BlaschkeProduct([-0.4j, 0.25])),
], ids=["monomial", "blaschke"])
def test_pair_each_equals_pair_per_operator(rng, theta, alpha):
    """Criterion 8's one coordinate pass per density gives each operator's
    `pair` value bit for bit, for the rank-one representer and for a
    two-dyad family."""
    M = theta.degree + alpha.degree + 4 + 55
    ops = [build_dtto(theta, alpha, monomial(k), M) for k in range(-4, 5)]
    for t in (represent_functional(random_poly(rng, -4, 4), theta, alpha),
              gen_M(theta, alpha, one(), monomial(1))[1]):
        assert list(pair_each(ops, t)) == [pair(D, t) for D in ops]


def test_pair_each_checks_bases_and_membership():
    ops = [build_dtto(Z2, Z2, monomial(k), 8) for k in (-1, 1)]
    assert pair_each([], FiniteRankOperator([])).shape == (0,)
    with pytest.raises(InputError, match="same bases"):
        pair_each(ops + [build_dtto(Z2, Z2, one(), 9)],
                  FiniteRankOperator([(monomial(2), monomial(3))]))
    with pytest.raises(DimensionError, match=r"vector g leaves the Kperp\(z\^2\)@8 span"):
        pair_each(ops, FiniteRankOperator([(monomial(2), monomial(40))]))
