import numpy as np
import pytest

from msolab import characterize
from msolab.characterize import (check_adtto, check_block_conditions,
                                 default_tolerance, distance_to_span,
                                 is_analytic_adtto, recover_symbol,
                                 shift_invariance_defect,
                                 solve_shift_invariant_space)
from msolab.errors import InputError
from msolab.inner import BlaschkeProduct, monomial_inner
from msolab.laurent import LaurentPolynomial, monomial, one
from msolab.operators import (BlockOperator, DenseComplexMatrix, build_dtto,
                              build_tto)
from msolab.spaces import compressed_shift

from conftest import assert_poly_close, random_poly

Z2, Z3 = monomial_inner(2), monomial_inner(3)


def with_blocks(D, **kw):
    blocks = {"that": D.that, "gamma_check": D.gamma_check,
              "gamma_hat": D.gamma_hat, "t_check": D.t_check}
    blocks.update(kw)
    return BlockOperator(blocks["that"], blocks["gamma_check"],
                         blocks["gamma_hat"], blocks["t_check"],
                         D.theta, D.alpha, D.M, edge=D.edge)


def bump(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


# -- shift invariance ---------------------------------------------------------

def test_tto_is_shift_invariant():
    A = build_tto(Z2, Z2, monomial(1))
    rep = shift_invariance_defect(A)
    assert rep.passed and rep.defect <= 1e-13


def test_rank_one_dyad_not_shift_invariant():
    A = DenseComplexMatrix(np.array([[1, 0], [0, 0]]), Z2, Z2)
    rep = shift_invariance_defect(A)
    assert rep.defect == pytest.approx(1.0)
    assert not rep.passed and rep.witnesses


def test_model_shift_defect_reads_no_choice_of_admissible_basis(monkeypatch, rng):
    """Rotating the orthonormal admissible coordinates of compressed_shift
    by a unitary changes neither the defect nor its witnesses."""
    theta = BlaschkeProduct([0.5, -0.3j, 0.1])
    alpha = BlaschkeProduct([0.4 + 0.2j, -0.6])
    A = build_tto(theta, alpha, random_poly(rng, -2, 2))
    noise = np.array([[rng.complex_box() for _ in range(3)] for _ in range(2)])
    op = DenseComplexMatrix(A.entries + 1e-2 * noise, theta, alpha)
    before = shift_invariance_defect(op, tol=1e-4)

    def rotated(V):
        S, X = compressed_shift(V)
        k = X.shape[1]
        Z = np.array([[rng.complex_box() for _ in range(k)] for _ in range(k)])
        return S, X @ np.linalg.qr(Z)[0]

    monkeypatch.setattr(characterize, "compressed_shift", rotated)
    after = shift_invariance_defect(op, tol=1e-4)
    assert not before.passed and before.witnesses
    assert abs(after.defect - before.defect) <= 1e-15
    assert [w[:2] for w in after.witnesses] == [w[:2] for w in before.witnesses]


def test_dtto_is_shift_invariant():
    D = build_dtto(Z2, Z3, LaurentPolynomial({1: 1, -1: 1}), 8)
    rep = shift_invariance_defect(D)
    assert rep.defect <= 1e-12


def test_blaschke_dtto_is_shift_invariant(rng):
    b1 = BlaschkeProduct([0.5, -0.2j])
    b2 = BlaschkeProduct([0.35])
    D = build_dtto(b1, b2, random_poly(rng, -2, 2), 9)
    rep = shift_invariance_defect(D)
    assert rep.defect <= 1e-11


# -- the shift-invariance nullspace ---------------------------------------------

@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 4), (4, 4)])
def test_nullspace_dimension_model(m, n):
    sol = solve_shift_invariant_space(monomial_inner(m), monomial_inner(n))
    assert sol.dimension == m + n - 1


def test_nullspace_is_spanned_by_monomial_compressions():
    sol = solve_shift_invariant_space(Z2, Z2)
    family = [build_tto(Z2, Z2, monomial(k)) for k in (-1, 0, 1)]
    assert max(distance_to_span(op, family) for op in sol.operators) <= 1e-10


def test_nullspace_dimension_blaschke():
    b1 = BlaschkeProduct([0.5, -0.3])
    b2 = BlaschkeProduct([0.2 + 0.2j])
    sol = solve_shift_invariant_space(b1, b2)
    assert sol.dimension == b1.degree + b2.degree - 1


def test_solve_reads_its_space_from_the_depth():
    # the model spaces only, z^3 -> z^2 (dimension m + n - 1); there is no
    # depth and no operator-space option
    model = solve_shift_invariant_space(monomial_inner(3), Z2)
    assert model.dimension == 4 and model.singular_values.size > 0
    assert all(isinstance(op, DenseComplexMatrix) for op in model.operators)
    with pytest.raises(TypeError):
        solve_shift_invariant_space(Z2, Z2, 5)


# -- blockwise conditions ---------------------------------------------------------

def test_block_conditions_pass_on_genuine(rng):
    D = build_dtto(Z2, Z3, LaurentPolynomial({2: 1, -1: 3}), 10)
    assert all(rep.passed for rep in check_block_conditions(D))
    b = BlaschkeProduct([0.6, 0.1j])
    D2 = build_dtto(b, b, random_poly(rng, -2, 2), 9)
    assert all(rep.defect <= 1e-11 for rep in check_block_conditions(D2))


def test_block_conditions_catch_random_that(rng):
    D = build_dtto(Z2, Z3, LaurentPolynomial({2: 1, -1: 3}), 10)
    noise = np.array([[rng.complex_box() for _ in range(11)]
                      for _ in range(11)])
    reports = check_block_conditions(with_blocks(D, that=noise))
    assert reports[0].defect > 0.1
    assert all(rep.passed for rep in reports[1:])


def test_block_conditions_zeroed_corner_stays_structural():
    # a zeroed corner is still Hankel-structured: the blockwise checks stay
    # silent and only the full membership test objects
    phi = LaurentPolynomial({-3: 1, 1: 2})
    D = build_dtto(Z2, Z2, phi, 10)
    crippled = with_blocks(D, gamma_hat=np.zeros((11, 11)))
    assert all(rep.passed for rep in check_block_conditions(crippled))
    verdict = check_adtto(crippled)
    assert not verdict.passed
    assert not verdict.reports[3].passed


# -- full membership --------------------------------------------------------------

def test_membership_passes_on_genuine():
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 10)
    verdict = check_adtto(D)
    assert verdict.passed
    assert all(rep.defect <= 1e-12 for rep in verdict.reports)


def test_membership_condition_map():
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 10)
    n = D.M + 1
    # top-left corner dyad: breaks the Toeplitz sandwich
    rep = check_adtto(with_blocks(D, that=D.that + bump(n, 0, 0))).reports
    assert rep[0].defect == pytest.approx(1.0) and not rep[0].passed
    assert rep[2].passed and rep[3].passed
    # bottom-right corner dyad: breaks the coupling only
    rep = check_adtto(with_blocks(D, t_check=D.t_check + bump(n, 0, 0))).reports
    assert rep[0].passed and not rep[1].passed
    assert rep[2].passed and rep[3].passed
    # interior corner-block dyad: breaks the intertwining only
    rep = check_adtto(with_blocks(D, gamma_hat=D.gamma_hat + bump(n, 1, 1))).reports
    assert rep[0].passed and rep[1].passed
    assert not rep[2].passed and rep[3].passed
    # corner-block symbol corruption: Hankel structure survives, the corner
    # consistency does not
    extra = build_dtto(Z2, Z2, monomial(-3), D.M)
    rep = check_adtto(with_blocks(D, gamma_hat=D.gamma_hat + extra.gamma_hat)).reports
    assert rep[0].passed and rep[1].passed and rep[2].passed
    assert not rep[3].passed


def test_tcheck_coupling_reads_the_zbar_corner():
    """The coupling pushes the zbar-corner symbol (TCheck's border) through
    theta * conj(alpha). A perturbation of a border entry changes that
    symbol, so the witnesses are That entries; one off the border (the
    middle of diagonal 2) leaves the symbol alone and is caught by the
    TCheck sandwich, with its two sandwich entries as witnesses."""
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 10)
    n = D.M + 1
    border = check_adtto(with_blocks(D, t_check=D.t_check + 1e-3 * bump(n, 0, 2)))
    rep = border.reports[1]
    assert rep.defect == pytest.approx(1e-3) and not rep.passed
    assert [w[:2] for w in rep.witnesses] == [(2, 0), (3, 1), (4, 2)]
    assert border.symbol.value.coeff(2) == pytest.approx(1e-3)
    inner = check_adtto(with_blocks(D, t_check=D.t_check + 1e-3 * bump(n, 4, 6)))
    rep = inner.reports[1]
    assert rep.defect == pytest.approx(1e-3) and not rep.passed
    assert [w[:2] for w in rep.witnesses] == [(3, 5), (4, 6)]
    assert inner.symbol.value.coeffs == check_adtto(D).symbol.value.coeffs
    assert [r.passed for r in inner.reports] == [True, False, True, True]


def test_merged_conditions_take_the_witnesses_of_the_larger_residual():
    """tcheck-coupling and hankel-intertwine each merge two residuals; the
    witnesses come from the one that sets the defect, not from whichever
    has witnesses first."""
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 12)
    n = D.M + 1
    rep = check_adtto(with_blocks(D, t_check=D.t_check + bump(n, 5, 7),
                                  that=D.that + 1e-6 * bump(n, 3, 3))).reports[1]
    assert rep.defect == pytest.approx(1.0)
    assert rep.witnesses[0] == (4, 6, pytest.approx(1.0))
    assert all(w[2] == pytest.approx(1.0) for w in rep.witnesses)
    rep = check_adtto(with_blocks(D, gamma_hat=D.gamma_hat + 1e-6 * bump(n, 3, 3),
                                  gamma_check=D.gamma_check + bump(n, 5, 7))).reports[2]
    assert rep.defect == pytest.approx(1.0)
    assert all(w[2] == pytest.approx(1.0) for w in rep.witnesses)
    assert check_adtto(D).reports[1].witnesses == []


@pytest.mark.parametrize("name", ["that", "gamma_check", "gamma_hat", "t_check"])
def test_a_nan_written_through_a_name_fails_the_membership_test(name):
    """A NaN in any block, a copy assigned to its name (a built block is a
    read-only view), makes a merged report NaN, never a finite report of
    another residual, so check_adtto fails: the block conditions, which
    report the NaN, and the membership test agree."""
    D = build_dtto(BlaschkeProduct([0.4 - 0.2j, 0.1j]), BlaschkeProduct([0.6]),
                   LaurentPolynomial({-2: .5, 0: 1, 3: -1j}), 20)
    assert check_adtto(D).passed
    block = getattr(D, name).copy()
    block[5, 5] = np.nan
    setattr(D, name, block)
    assert not all(r.passed for r in check_block_conditions(D))
    verdict = check_adtto(D)
    assert not verdict.passed
    assert any(np.isnan(r.defect) for r in verdict.reports)


def test_membership_discriminates_small_perturbations(rng):
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 10)
    n = 2 * (D.M + 1)
    hits = 0
    for trial in range(20):
        noise = np.array([[rng.complex_box() for _ in range(n)]
                          for _ in range(n)])
        noise /= np.linalg.norm(noise, 2)
        from msolab.operators import split_blocks
        perturbed = split_blocks(D.assemble() + 1e-3 * noise, Z2, Z2, D.M)
        verdict = check_adtto(perturbed)
        if max(rep.defect for rep in verdict.reports) >= 1e-4:
            hits += 1
    assert hits == 20


def test_membership_blaschke_forward(rng):
    for _ in range(5):
        b1 = BlaschkeProduct([rng.complex_disk(0.8)
                              for _ in range(rng.integer(1, 3))])
        b2 = BlaschkeProduct([rng.complex_disk(0.8)
                              for _ in range(rng.integer(1, 3))])
        phi = random_poly(rng, -3, 3)
        M = 3 + b1.degree + b2.degree + 6
        verdict = check_adtto(build_dtto(b1, b2, phi, M))
        assert max(rep.defect for rep in verdict.reports) <= 1e-10


# -- symbol recovery ----------------------------------------------------------------

def test_recover_zbar_hand_example():
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 10)
    sym, residual = recover_symbol(D, "zbar")
    assert sym.value.coeffs == {1: (1 + 0j), -1: (2 + 0j)}
    assert sym.minus.coeffs == {-1: (2 + 0j)}
    assert sym.plus.coeffs == {1: (1 + 0j)}
    assert residual <= 1e-12


def test_recover_boundary_hand_example():
    D = build_dtto(Z2, Z2, LaurentPolynomial({1: 1, -1: 2}), 10)
    sym, residual = recover_symbol(D, "boundary")
    assert_poly_close(sym.value, LaurentPolynomial({1: 1, -1: 2}), 1e-12)
    assert residual <= 1e-12


def test_recover_identity():
    D = build_dtto(Z2, Z2, one(), 8)
    for method in ("zbar", "boundary"):
        sym, residual = recover_symbol(D, method)
        assert_poly_close(sym.value, one(), 1e-12)
        assert residual <= 1e-12


def test_recover_methods_agree_on_blaschke(rng):
    b1 = BlaschkeProduct([0.7, -0.4j, 0.2])
    b2 = BlaschkeProduct([0.5 + 0.3j])
    phi = random_poly(rng, -4, 4)
    D = build_dtto(b1, b2, phi, 4 + 4 + 6)
    s1, r1 = recover_symbol(D, "zbar")
    s2, r2 = recover_symbol(D, "boundary")
    band = range(-5, 6)
    assert max(abs(s1.value.coeff(k) - phi.coeff(k)) for k in band) <= 1e-11
    assert max(abs(s2.value.coeff(k) - phi.coeff(k)) for k in band) <= 1e-11
    assert (s1.value - s2.value).norm() <= 1e-11
    assert max(r1, r2) <= 1e-11


def test_recover_reports_noise_residual(rng):
    D = build_dtto(Z2, Z2, monomial(1), 10)
    n = 2 * (D.M + 1)
    noise = np.array([[rng.complex_box() for _ in range(n)] for _ in range(n)])
    noise /= np.linalg.norm(noise, 2)
    from msolab.operators import split_blocks
    bad = split_blocks(D.assemble() + 0.5 * noise, Z2, Z2, D.M)
    _, residual = recover_symbol(bad, "zbar")
    assert residual > 0.05


def test_recover_rejects_unknown_method():
    D = build_dtto(Z2, Z2, one(), 8)
    with pytest.raises(InputError):
        recover_symbol(D, "magic")


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", [shift_invariance_defect, check_block_conditions,
                                   check_adtto, is_analytic_adtto, recover_symbol])
def test_library_tolerance_must_be_finite_and_positive(check, tol):
    D = build_dtto(Z2, Z2, monomial(2), 10)
    with pytest.raises(InputError, match="tolerance must be finite and positive"):
        check(D, tol=tol)


# -- the analytic-symbol test ---------------------------------------------------------

def test_analytic_flags():
    assert is_analytic_adtto(build_dtto(Z2, Z2, monomial(1), 8)).analytic
    assert is_analytic_adtto(build_dtto(Z2, Z2, one(), 8)).analytic
    verdict = is_analytic_adtto(build_dtto(Z2, Z2, monomial(-1), 8))
    assert not verdict.analytic
    name, value = verdict.witness
    assert value == pytest.approx(1.0)
    assert "zbar^2" in name


def test_analytic_default_tolerance_is_1e_11():
    for size, analytic in ((0.9e-11, True), (1.1e-11, False)):
        D = build_dtto(Z2, Z2, LaurentPolynomial({-1: size, 1: 1.0}), 8)
        assert is_analytic_adtto(D).analytic is analytic
        assert is_analytic_adtto(D, tol=None) == is_analytic_adtto(D, tol=1e-11)


def test_analytic_matches_symbol_split(rng):
    for _ in range(8):
        phi = random_poly(rng, -3, 3)
        D = build_dtto(Z2, Z2, phi, 10)
        from msolab.laurent import minus_part
        expected = minus_part(phi).norm() <= 1e-11
        assert is_analytic_adtto(D).analytic == expected


def test_default_tolerance_schedule():
    assert default_tolerance(Z2, Z3) == 1e-10
    assert default_tolerance(BlaschkeProduct([0.4])) == 1e-10
    assert default_tolerance(Z2, BlaschkeProduct([0.7])) == 1e-8


def test_recover_below_guard_depth_raises_input_error():
    z2 = monomial_inner(2)
    D = BlockOperator(*[np.zeros((3, 3))] * 4, z2, z2, 2)
    for method in ("zbar", "boundary"):
        with pytest.raises(InputError, match="guard depth 6"):
            recover_symbol(D, method)
