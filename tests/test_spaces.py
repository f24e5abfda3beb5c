import numpy as np
import pytest

from msolab.errors import InputError
from msolab.inner import BlaschkeProduct, expand, monomial_inner, tm_basis
from msolab.laurent import (LaurentPolynomial, conj_function, inner_product,
                            minus_part, monomial, multiply, one, plus_part)
from msolab.spaces import (admissible_for_shift, basis_Kperp, compressed_shift,
                           conjugation_C, project)

from conftest import assert_poly_close, random_poly
from oracles import gram_defect, membership_defect

Z2 = monomial_inner(2)


# -- projections ---------------------------------------------------------------

def test_fourier_split_for_monomial_inner():
    f = LaurentPolynomial({0: 1, 1: 1, 2: 1})
    assert project(Z2, "model", f).coeffs == {0: (1 + 0j), 1: (1 + 0j)}
    assert project(Z2, "thetaH2", f).coeffs == {2: (1 + 0j)}


def test_model_projection_single_zero():
    b = BlaschkeProduct([0.5])
    p = project(b, "model", one())
    for k in range(6):
        assert p.coeff(k) == pytest.approx(0.75 * 0.5 ** k, abs=1e-13)
    assert_poly_close(project(b, "model", p), p, 1e-12)


def test_projections_resolve_identity(rng):
    b = BlaschkeProduct([0.4, -0.3j])
    f = random_poly(rng, -5, 5)
    total = (project(b, "model", f) + project(b, "thetaH2", f)
             + minus_part(f))
    assert_poly_close(total, f, 1e-11)


def test_projection_ranges_orthogonal(rng):
    b = BlaschkeProduct([0.4, -0.3j])
    f, g = random_poly(rng), random_poly(rng)
    pairs = [(project(b, "model", f), project(b, "thetaH2", g)),
             (project(b, "model", f), minus_part(g)),
             (project(b, "thetaH2", f), minus_part(g))]
    for u, v in pairs:
        assert abs(inner_product(u, v)) <= 1e-11


def test_model_perp_projection(rng):
    b = BlaschkeProduct([0.4, -0.3j])
    f = random_poly(rng)
    assert_poly_close(project(b, "model_perp", f),
                      f - project(b, "model", f), 1e-11)


def test_unknown_subspace_rejected():
    with pytest.raises(InputError):
        project(Z2, "everything", one())


# -- conjugation ----------------------------------------------------------------

def test_conjugation_monomial_formula():
    assert conjugation_C(Z2, one()).coeffs == {1: (1 + 0j)}
    assert conjugation_C(Z2, monomial(1)).coeffs == {0: (1 + 0j)}
    assert conjugation_C(Z2, monomial(3)).coeffs == {-2: (1 + 0j)}


def test_conjugation_involution_and_isometry(rng):
    b = BlaschkeProduct([0.5, 0.2 - 0.1j])
    f, g = random_poly(rng), random_poly(rng)
    assert_poly_close(conjugation_C(b, conjugation_C(b, f)), f, 1e-11)
    assert inner_product(conjugation_C(b, f), conjugation_C(b, g)) == \
        pytest.approx(inner_product(g, f), abs=1e-11)


def test_conjugation_intertwines_multiplication(rng):
    b = BlaschkeProduct([0.5, 0.2 - 0.1j])
    phi = random_poly(rng, -4, 4)
    f = random_poly(rng, -4, 4)
    lhs = conjugation_C(b, multiply(phi, conjugation_C(b, f)))
    assert_poly_close(lhs, multiply(conj_function(phi), f),
                      1e-11 * max(1.0, phi.norm() * f.norm()))


def test_conjugation_swaps_subspaces(rng):
    b = BlaschkeProduct([0.5, 0.2 - 0.1j])
    theta = expand(b)
    h = random_poly(rng, 0, 4)
    image = conjugation_C(b, multiply(theta, h))
    assert (image - minus_part(image)).norm() <= 1e-11 * max(1, h.norm())
    hm = multiply(monomial(-1), conj_function(h))
    image = conjugation_C(b, hm)
    assert (image - project(b, "thetaH2", image)).norm() <= \
        1e-11 * max(1, h.norm())
    fk = project(b, "model", random_poly(rng))
    imk = conjugation_C(b, fk)
    assert (imk - project(b, "model", imk)).norm() <= 1e-11


# -- section bases ----------------------------------------------------------------

def test_kperp_basis_order_and_labels():
    basis = basis_Kperp(Z2, 1)
    assert [v.coeffs for v in basis] == [
        {2: (1 + 0j)}, {3: (1 + 0j)}, {-1: (1 + 0j)}, {-2: (1 + 0j)}]
    assert basis.label == "Kperp(z^2)@1"
    assert basis_Kperp(BlaschkeProduct([0.5, 0.2j]), 4).label == "Kperp(blaschke[2])@4"
    assert tm_basis(Z2).label == "K(z^2)"


def test_kperp_gram_identity():
    basis = basis_Kperp(BlaschkeProduct([0.5, 0.0]), 8)
    assert gram_defect(basis) <= 1e-11


def test_coords_round_trip(rng):
    basis = basis_Kperp(BlaschkeProduct([0.3]), 6)
    x = np.array([rng.complex_box() for _ in range(basis.dim)])
    f = basis.reconstruct(x)
    np.testing.assert_allclose(basis.coords(f), x, atol=1e-12)
    assert membership_defect(basis, f) <= 1e-12
    assert membership_defect(basis, f + monomial(50)) == pytest.approx(1, abs=1e-12)


# -- admissible subspaces ---------------------------------------------------------

def test_admissible_complement_section():
    adm = admissible_for_shift(basis_Kperp(Z2, 1))
    got = {frozenset(v.coeffs) for v in adm}
    assert got == {frozenset({2}), frozenset({-2})}


def test_empty_admissible_section_has_the_empty_band():
    # at M = 0 the shift pushes out both section vectors, theta and zbar
    adm = admissible_for_shift(basis_Kperp(Z2, 0))
    assert adm.dim == 0
    assert adm.band() == (0, -1)
    assert adm.stacked().shape == (0, 0)
    assert gram_defect(adm) == 0.0
    X, defects, norms = adm.coords_and_defects([monomial(3), LaurentPolynomial()])
    assert X.shape == (2, 0)
    np.testing.assert_array_equal(defects, norms)
    assert adm.reconstruct([]).is_zero()


def test_admissible_model_space_monomial():
    adm = admissible_for_shift(tm_basis(monomial_inner(3)))
    assert adm.dim == 2
    spanned = sorted(k for v in adm for k in v.coeffs)
    assert set(spanned) <= {0, 1}


def test_admissible_model_space_blaschke():
    b = BlaschkeProduct([0.5, 0.0])
    adm = admissible_for_shift(tm_basis(b))
    assert adm.dim == 1
    v = adm[0]
    # z*v stays inside the model space
    zv = v.shift(1)
    assert (zv - project(b, "model", zv)).norm() <= 1e-10
    # and v is orthogonal to the backward shift of theta
    s_star_theta = plus_part(expand(b).shift(-1))
    assert abs(inner_product(v, s_star_theta)) <= 1e-10


@pytest.mark.parametrize("theta", [
    Z2, monomial_inner(3), BlaschkeProduct([0.5, -0.3j, 0.2 + 0.1j]),
    BlaschkeProduct([0.9, 0.4j])], ids=["z^2", "z^3", "blaschke", "zero at 0.9"])
def test_compressed_shift_defect_identity(theta):
    """z f = S_theta f + <z f, theta> theta on K(theta): with c the
    coordinates of S*theta = P+(zbar theta), c_j = <theta, z e_j>, the
    shift is isometric, S^H S + c c^H = I, |c|^2 = 1 - |theta(0)|^2, and X
    is an orthonormal basis of the m - 1 coordinates orthogonal to c."""
    V = tm_basis(theta)
    m = V.dim
    S, X = compressed_shift(V)
    c = V.coords(plus_part(expand(theta).shift(-1)))
    eye = np.eye(m)
    assert S.shape == (m, m) and X.shape == (m, m - 1)
    assert np.max(np.abs(S.conj().T @ S + np.outer(c, c.conj()) - eye)) <= 1e-13
    assert np.vdot(c, c).real == pytest.approx(1 - abs(theta.evaluate(0)) ** 2, abs=1e-13)
    assert np.max(np.abs(X.conj().T @ X - eye[:m - 1, :m - 1])) <= 1e-13
    assert np.max(np.abs(c.conj() @ X), initial=0.0) <= 1e-13
    # each admissible vector stays in K(theta) under z, with coordinates S X
    for x, sx in zip(X.T, (S @ X).T):
        zf = V.reconstruct(x).shift(1)
        assert (zf - V.reconstruct(sx)).norm() <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_admissible_dimensions_model(m):
    assert admissible_for_shift(tm_basis(monomial_inner(m))).dim == m - 1


@pytest.mark.parametrize("M", [1, 3, 6])
def test_admissible_dimensions_complement(M):
    # matches theta*H2 (+) zbar^2 * conj(H2) intersected with the section
    adm = admissible_for_shift(basis_Kperp(Z2, M))
    assert adm.dim == 2 * M
    for v in adm:
        assert abs(v.coeff(-1)) <= 1e-10  # orthogonal to zbar
        zv = v.shift(1)
        assert (zv - project(Z2, "model_perp", zv)).norm() <= 1e-10


def test_admissible_blaschke_complement_orthogonal_to_zbar(rng):
    b = BlaschkeProduct([0.4 + 0.2j])
    adm = admissible_for_shift(basis_Kperp(b, 5))
    assert adm.dim == 10
    for v in adm:
        assert abs(v.coeff(-1)) <= 1e-10
