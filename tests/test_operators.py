import numpy as np
import pytest

from msolab.errors import DimensionError, InputError
from msolab.inner import BlaschkeProduct, expand, monomial_inner
from msolab.laurent import (LaurentPolynomial, conj_function, involution_J,
                            minus_part, monomial, multiply, one, plus_part)
from msolab.operators import (MAX_DEPTH, BlockOperator, SymbolFunction, apply,
                              build_dtto, build_tto, split_blocks)
from msolab.spaces import project

from conftest import assert_poly_close, random_poly
from oracles import conjugation_corner_maps, poly_apply

Z1, Z2, Z3 = monomial_inner(1), monomial_inner(2), monomial_inner(3)


def random_symbol(rng, reach=3):
    return random_poly(rng, -reach, reach)


# -- symbol type ----------------------------------------------------------------

def test_symbol_split():
    s = SymbolFunction(LaurentPolynomial({-2: 1j, 0: 2, 3: 1}))
    assert s.minus.coeffs == {-2: 1j}
    assert s.plus.coeffs == {0: (2 + 0j), 3: (1 + 0j)}
    assert s.mean == 2
    assert s.reach == 3
    assert_poly_close(s.plus + s.minus, s.value, 0)


# -- compressions to model spaces -------------------------------------------------

def test_tto_identity_symbol():
    np.testing.assert_allclose(build_tto(Z2, Z2, one()).entries, np.eye(2))


def test_tto_shift_symbol():
    np.testing.assert_allclose(build_tto(Z2, Z2, monomial(1)).entries,
                               [[0, 0], [1, 0]])


def test_tto_inclusion_column():
    np.testing.assert_allclose(build_tto(Z1, Z2, one()).entries, [[1], [0]])


def test_tto_adjoint_swaps_symbol(rng):
    b1 = BlaschkeProduct([0.5, -0.2j])
    b2 = BlaschkeProduct([0.3 + 0.1j])
    phi = random_symbol(rng)
    A = build_tto(b1, b2, phi)
    B = build_tto(b2, b1, conj_function(phi))
    np.testing.assert_allclose(A.entries.conj().T, B.entries, atol=1e-11)


# -- compressions to complement sections ------------------------------------------

def test_dtto_identity_blocks():
    D = build_dtto(Z2, Z2, one(), 6)
    n = 7
    np.testing.assert_allclose(D.that, np.eye(n), atol=1e-14)
    np.testing.assert_allclose(D.t_check, np.eye(n), atol=1e-14)
    np.testing.assert_allclose(D.gamma_hat, 0, atol=1e-14)
    np.testing.assert_allclose(D.gamma_check, 0, atol=1e-14)


def test_dtto_zbar_actions():
    D = build_dtto(Z2, Z2, monomial(-1), 8)
    assert_poly_close(poly_apply(D, monomial(2)), LaurentPolynomial(), 1e-13)
    assert_poly_close(poly_apply(D, monomial(-1)), monomial(-2), 1e-13)
    assert np.max(np.abs(D.gamma_check)) <= 1e-14


def test_dtto_guard_depth():
    with pytest.raises(InputError, match="guard"):
        build_dtto(Z2, Z2, monomial(1), 4)


def test_dtto_depth_cap():
    with pytest.raises(InputError, match="depth cap"):
        build_dtto(monomial_inner(1), monomial_inner(1), one(), MAX_DEPTH + 1)


def test_dtto_adjoint_is_conjugate_symbol(rng):
    b1 = BlaschkeProduct([0.5, -0.2j])
    b2 = BlaschkeProduct([0.3])
    phi = random_symbol(rng)
    D = build_dtto(b1, b2, phi, 10)
    Dstar = build_dtto(b2, b1, conj_function(phi), 10)
    np.testing.assert_allclose(D.adjoint().assemble(), Dstar.assemble(),
                               atol=1e-11)


def test_apply_matches_matrix_columns():
    D = build_tto(Z2, Z2, monomial(1))
    np.testing.assert_allclose(apply(D, np.array([1, 0])), [0, 1])
    B = build_dtto(Z2, Z2, monomial(-1), 8)
    x = np.zeros(18)
    x[9] = 1  # zbar slot
    out = B.apply(x)
    assert out[10] == pytest.approx(1)  # zbar^2 slot
    with pytest.raises(DimensionError):
        apply(D, np.zeros(5))


def test_split_and_assemble_round_trip(rng):
    D = build_dtto(Z2, Z3, random_symbol(rng), 10)
    again = split_blocks(D.assemble(), Z2, Z3, 10)
    np.testing.assert_allclose(again.assemble(), D.assemble())


def test_split_blocks_of_dyads():
    # theta (x) theta sits in the top-left corner; zbar (x) theta in the
    # bottom-left one
    M = 4
    n = M + 1
    full = np.zeros((2 * n, 2 * n), dtype=complex)
    full[0, 0] = 1
    B = split_blocks(full, Z2, Z2, M)
    assert B.that[0, 0] == 1 and np.count_nonzero(B.that) == 1
    assert not B.gamma_hat.any() and not B.gamma_check.any()
    full = np.zeros((2 * n, 2 * n), dtype=complex)
    full[n, 0] = 1
    B = split_blocks(full, Z2, Z2, M)
    assert B.gamma_hat[0, 0] == 1 and np.count_nonzero(B.gamma_hat) == 1
    assert not B.that.any()


# -- entrywise structure for monomial inner functions ------------------------------

def test_monomial_block_entries_follow_symbol(rng):
    m, n = 2, 3
    phi = random_symbol(rng, 4)
    M = 4 + m + n + 2
    D = build_dtto(monomial_inner(m), monomial_inner(n), phi, M)
    for i in range(M + 1):
        for j in range(M + 1):
            assert D.that[i, j] == pytest.approx(phi.coeff(i - j + n - m),
                                                 abs=1e-13)
            assert D.t_check[i, j] == pytest.approx(phi.coeff(j - i),
                                                    abs=1e-13)
            assert D.gamma_hat[i, j] == pytest.approx(
                phi.coeff(-(i + j) - m - 1), abs=1e-13)
            assert D.gamma_check[i, j] == pytest.approx(
                phi.coeff(i + j + n + 1), abs=1e-13)


def test_shift_blocks_match_generic_builder():
    # multiplication by z moves theta z^k to theta z^(k+1) and zbar^(k+1)
    # to zbar^k, whatever theta; zbar moves them the other way
    b = BlaschkeProduct([0.5, 0.3])
    for power in (1, -1):
        D = build_dtto(b, b, monomial(power), 8)
        np.testing.assert_allclose(D.that, np.eye(9, k=-power), atol=1e-12)
        np.testing.assert_allclose(D.t_check, np.eye(9, k=power), atol=1e-12)
    # analytic symbols kill the lower corner, antianalytic ones the upper
    assert np.max(np.abs(build_dtto(b, b, monomial(1), 8).gamma_hat)) <= 1e-12
    assert np.max(np.abs(build_dtto(b, b, monomial(-1), 8).gamma_check)) <= 1e-12


# -- matrix columns against function-level projections -----------------------------

def test_block_columns_equal_projections_monomial(rng):
    phi = random_symbol(rng, 3)
    M = 3 + 2 + 3 + 2
    D = build_dtto(Z2, Z3, phi, M)
    theta = expand(Z2)
    cod_head = D.codomain_basis()
    for k in range(3):
        image = multiply(phi, theta.shift(k))
        col = np.concatenate([D.that[:, k], D.gamma_hat[:, k]])
        expected = np.concatenate([
            [project(Z3, "thetaH2", image).coeff(i + 3) for i in range(M + 1)],
            [minus_part(image).coeff(-(i + 1)) for i in range(M + 1)]])
        np.testing.assert_allclose(col, expected, atol=1e-12)


def test_block_columns_equal_projections_blaschke_interior():
    # away from the truncation edge the columns agree with the exact
    # projections even for genuine Blaschke products
    b1, b2 = BlaschkeProduct([0.4]), BlaschkeProduct([0.3 + 0.2j])
    phi = LaurentPolynomial({-1: 2, 1: 1j})
    M = 60
    D = build_dtto(b1, b2, phi, M)
    theta, alpha = expand(b1), expand(b2)
    for k in range(2):
        image = multiply(phi, theta.shift(k))
        that_col = D.codomain_basis().reconstruct(
            np.concatenate([D.that[:, k], np.zeros(M + 1)]))
        exact = project(b2, "thetaH2", image)
        assert (that_col - exact).norm() <= 1e-11
        gh_col = D.codomain_basis().reconstruct(
            np.concatenate([np.zeros(M + 1), D.gamma_hat[:, k]]))
        assert (gh_col - minus_part(image)).norm() <= 1e-12


# -- the antilinear corner maps ----------------------------------------------------

def test_corner_maps_monomial_entries():
    W1, W2 = conjugation_corner_maps(Z2, Z3, 6)
    # W1: theta z^k -> P-(alpha zbar^(k+1)): for alpha = z^3 the image is
    # z^(2-k), antianalytic only for k >= 3
    for k in range(7):
        for i in range(7):
            expected = 1.0 if (k - i == 3) else 0.0
            assert W1[i, k] == pytest.approx(expected, abs=1e-13)
    # W2: zbar^(j+1) -> theta alpha z^j in the alphaH2 section
    for j in range(7):
        for i in range(7):
            expected = 1.0 if (i - j == 2) else 0.0
            assert W2[i, j] == pytest.approx(expected, abs=1e-13)


def test_corner_sandwich_reproduces_tcheck_monomial(rng):
    phi = random_symbol(rng, 2)
    M = 2 + 2 + 3 + 3
    D = build_dtto(Z2, Z3, phi, M)
    W1, W2 = conjugation_corner_maps(Z2, Z3, M)
    sandwich = W1 @ D.that.T @ np.conjugate(W2)
    m = M - (2 + 2 + 3)
    np.testing.assert_allclose(sandwich[:m + 1, :m + 1],
                               D.t_check[:m + 1, :m + 1], atol=1e-12)


# -- encoding ----------------------------------------------------------------------

def test_block_operator_json_round_trip(rng):
    D = build_dtto(BlaschkeProduct([0.4, -0.1j]), Z2, random_symbol(rng), 9)
    payload = D.to_json()
    assert set(payload) == {"theta", "alpha", "M", "blocks", "edge"}
    assert set(payload["blocks"]) == {"That", "GammaCheck", "GammaHat", "TCheck"}
    again = BlockOperator.from_json(payload)
    np.testing.assert_allclose(again.assemble(), D.assemble())
    assert again.edge == D.edge
    # spec-shaped payloads without the optional edge key load fine
    del payload["edge"]
    assert BlockOperator.from_json(payload).edge is None


def test_block_operator_json_rejects_malformed():
    with pytest.raises(InputError):
        BlockOperator.from_json({"theta": {"zeros": [[0, 0]]}})
