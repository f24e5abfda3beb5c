"""The structured fast paths against their generic oracles (tests/oracles.py):
closed-form DTTO blocks, slice coordinates on the complement sections, the
batched trace pairing, the section admissible vectors, the TCheck-border symbol, the vectorised
shift-invariance defect, and the blockwise recovery residual."""

import cmath
import re

import numpy as np
import pytest

from msolab import characterize
from msolab.annihilate import (FiniteRankOperator, gen_M, gen_shift_pair, pair,
                               pair_many, represent_functional)
from msolab.bases import OrthonormalBasis
from msolab.characterize import (_zbar_symbol, check_adtto, check_block_conditions,
                                 is_analytic_adtto, recover_symbol,
                                 shift_invariance_defect,
                                 solve_shift_invariant_space)
from msolab.errors import DimensionError, InputError
from msolab.inner import BlaschkeProduct, monomial_inner, tm_basis
from msolab.laurent import LaurentPolynomial, monomial, multiply
from msolab.operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                              build_dtto, build_tto, split_blocks)
from msolab.rng import Xoshiro256StarStar
from msolab.spaces import (SHIFT_KERNEL_TOL, admissible_for_shift, basis_Kperp,
                           hminus_basis, thetaH2_basis)
from msolab.suites import random_inner, random_symbol

from conftest import random_poly
from oracles import (dense_coords, dense_coords_and_defect, dense_reconstruct,
                     loop_pair, loop_shift_invariance_defect, loop_shift_system,
                     pairing_build_dtto, poly_corner_consistency,
                     poly_is_analytic_adtto, poly_recover_boundary,
                     poly_zbar_symbol, svd_admissible_for_shift,
                     svd_rebuild_residual)

ORACLE_TOL = 1e-13


def _near_boundary(r, count):
    return BlaschkeProduct(
        [0.95 * cmath.exp(2j * cmath.pi * r.uniform()) for _ in range(count)],
        allow_near_boundary=True)


def _guard(theta, alpha, phi):
    return SymbolFunction(phi).reach + theta.degree + alpha.degree + 2


def _dtto_cases():
    """210 seeded (theta, alpha, symbol, M) cases: random Blaschke products
    at and just above the guard depth, monomial inner functions, the zero
    symbol, zeros of modulus 0.95, and depths 200 and 240."""
    r = Xoshiro256StarStar(20261017)
    cases = []
    for i in range(180):
        theta, alpha = random_inner(r), random_inner(r)
        phi = random_symbol(r)
        M = _guard(theta, alpha, phi) + (0 if i % 3 == 0 else r.integer(1, 6))
        cases.append((theta, alpha, phi, M))
    for m in (1, 2, 3):
        for n in (1, 3):
            phi = random_symbol(r)
            theta, alpha = monomial_inner(m), monomial_inner(n)
            cases.append((theta, alpha, phi, _guard(theta, alpha, phi) + 2))
    for _ in range(3):
        theta, alpha = random_inner(r), monomial_inner(2)
        zero = LaurentPolynomial()
        cases.append((theta, alpha, zero, _guard(theta, alpha, zero)))
    for k in range(1, 4):
        theta, alpha = _near_boundary(r, k), _near_boundary(r, 4 - k)
        phi = random_symbol(r, reach=3)
        cases.append((theta, alpha, phi, _guard(theta, alpha, phi)))
        cases.append((alpha, random_inner(r), phi, 12))
    theta, alpha = _near_boundary(r, 2), random_inner(r)
    cases.append((theta, alpha, LaurentPolynomial(), theta.degree + alpha.degree + 2))
    for M in (200, 240):
        theta, alpha = random_inner(r), random_inner(r)
        cases.append((theta, alpha, random_symbol(r), M))
        cases.append((_near_boundary(r, 1), alpha, random_symbol(r), M))
    while len(cases) < 210:
        theta, alpha = random_inner(r, rho=0.9), random_inner(r, rho=0.9)
        phi = random_symbol(r, reach=2)
        cases.append((theta, alpha, phi, _guard(theta, alpha, phi) + 4))
    return cases


def test_closed_form_dtto_matches_pairing_oracle():
    cases = _dtto_cases()
    assert len(cases) >= 200
    assert any(M >= 200 for *_, M in cases)
    assert any(M == _guard(t, a, p) for t, a, p, M in cases)
    worst = 0.0
    for theta, alpha, phi, M in cases:
        fast = build_dtto(theta, alpha, phi, M)
        slow = pairing_build_dtto(theta, alpha, phi, M)
        assert fast.edge == slow.edge
        worst = max(worst, float(np.max(np.abs(fast.assemble() - slow.assemble()))))
    assert worst <= ORACLE_TOL


# -- slice coordinates on the sections --------------------------------------------

SECTION_INNERS = [monomial_inner(2), BlaschkeProduct([0.5, -0.3j]),
                  BlaschkeProduct([0.95, 0.2j], allow_near_boundary=True)]


def _sections(theta, M):
    return [thetaH2_basis(theta, M), hminus_basis(M), basis_Kperp(theta, M)]


@pytest.mark.parametrize("theta", SECTION_INNERS, ids=["z^2", "blaschke", "rho=0.95"])
@pytest.mark.parametrize("M", [0, 3, 12])
def test_section_slices_match_dense_stack(theta, M, rng):
    model = tm_basis(theta)
    for basis in _sections(theta, M):
        x = np.array([rng.complex_box() for _ in range(basis.dim)])
        rebuilt = basis.reconstruct(x)
        expected = dense_reconstruct(basis, x)
        assert (rebuilt - expected).norm() <= ORACLE_TOL
        assert rebuilt.tail_bound == pytest.approx(expected.tail_bound, rel=1e-12)
        outside = [monomial(-(M + 2)), monomial(0) if basis.kind == "Hminus"
                   else model.reconstruct(np.ones(model.dim))]
        probes = [rebuilt, random_poly(rng, -M - 4, M + 9)]
        probes += [rebuilt + v.scale(s) for v in outside for s in (1.0, 1e-6)]
        for f in probes:
            np.testing.assert_allclose(basis.coords(f), dense_coords(basis, f),
                                       rtol=0, atol=ORACLE_TOL)
            x_fast, d_fast = basis.coords_and_defect(f)
            x_slow, d_slow = dense_coords_and_defect(basis, f)
            np.testing.assert_allclose(x_fast, x_slow, rtol=0, atol=ORACLE_TOL)
            assert d_fast == pytest.approx(d_slow, rel=1e-9, abs=ORACLE_TOL)
        assert basis.membership_defect(rebuilt) <= 1e-12
        for v in outside:
            assert basis.membership_defect(rebuilt + v.scale(1e-6)) == \
                pytest.approx(1e-6 * v.norm(), rel=1e-6)


@pytest.mark.parametrize("theta", SECTION_INNERS[1:], ids=["blaschke", "rho=0.95"])
def test_pair_membership_error_still_fires(theta, rng):
    alpha = BlaschkeProduct([0.3 + 0.1j])
    M = 14
    D = build_dtto(theta, alpha, random_symbol(rng, reach=3), M)
    dom, cod = D.domain_basis(), D.codomain_basis()
    f = dom.reconstruct(np.ones(dom.dim))
    g = cod.reconstruct(np.ones(cod.dim))
    assert abs(pair(D, FiniteRankOperator([(f, g)]))) > 0
    leak = tm_basis(theta).reconstruct(np.ones(theta.degree)).scale(1e-6)
    for dyad in ((f + leak, g), (f, g + monomial(-(M + 2)).scale(1e-6))):
        with pytest.raises(DimensionError, match="leaves the"):
            pair(D, FiniteRankOperator([dyad]))


# -- batched trace pairing -----------------------------------------------------------

@pytest.mark.parametrize("theta", SECTION_INNERS, ids=["z^2", "blaschke", "rho=0.95"])
@pytest.mark.parametrize("M", [0, 3, 12])
def test_batch_coords_match_dense_rows(theta, M, rng):
    bases = _sections(theta, M) + [tm_basis(theta),
                                   admissible_for_shift(basis_Kperp(theta, M))]
    for basis in bases:
        x = np.array([rng.complex_box() for _ in range(basis.dim)])
        rebuilt = basis.reconstruct(x)
        probes = [rebuilt, random_poly(rng, -M - 4, M + 9), LaurentPolynomial(),
                  rebuilt + monomial(-(M + 2)).scale(1e-6), monomial(M + 40)]
        X, defects, norms = basis.coords_and_defects(probes)
        assert X.shape == (len(probes), basis.dim)
        np.testing.assert_allclose(norms, [f.norm() for f in probes],
                                   rtol=1e-15, atol=0)
        if not basis.dim:
            np.testing.assert_array_equal(defects, norms)
            continue
        for row, defect, f in zip(X, defects, probes):
            x_slow, d_slow = dense_coords_and_defect(basis, f)
            np.testing.assert_allclose(row, x_slow, rtol=0, atol=ORACLE_TOL)
            assert defect == pytest.approx(d_slow, rel=1e-9, abs=ORACLE_TOL)


def _analytic(r, degree=2):
    return LaurentPolynomial({k: r.complex_box() for k in range(degree + 1)})


def _pairing_cases():
    """Seeded (operator, families) batches: on the sections, all six gen_M
    families with random analytic h and g, shifted dyads of admissible
    combinations and a represented functional, against a built operator
    and a noisy copy; on model spaces, shifted dyads and random multi-dyad
    operators against build_tto and a noisy copy. Monomial, Blaschke and
    |a| = 0.95 inner functions."""
    r = Xoshiro256StarStar(20261020)
    noise = np.random.default_rng(20261020)

    def noisy(A):
        N = noise.standard_normal(A.shape) + 1j * noise.standard_normal(A.shape)
        return A + N / np.linalg.norm(N)

    def combination(basis, indices):
        return sum((basis[i].scale(r.complex_box()) for i in indices[1:]),
                   basis[indices[0]].scale(r.complex_box()))

    near = BlaschkeProduct([0.95 * cmath.exp(0.7j), 0.2], allow_near_boundary=True)
    out = []
    for theta, alpha, M in ((monomial_inner(2), monomial_inner(3), 12),
                            (BlaschkeProduct([0.5, -0.3j]),
                             BlaschkeProduct([0.4 + 0.2j]), 70),
                            (near, BlaschkeProduct([0.3, 0.6j]), 420)):
        D = build_dtto(theta, alpha, random_symbol(r, reach=3), M)
        dom, cod = D.domain_basis(), D.codomain_basis()
        adm_d, adm_c = admissible_for_shift(dom), admissible_for_shift(cod)
        families = [gen_M(l, theta, alpha, _analytic(r), _analytic(r))
                    for l in range(1, 7) for _ in range(2)]
        families += [gen_shift_pair(combination(adm_d, (0, M + 1)),
                                    combination(adm_c, (1, 2 * M - 1)),
                                    domain=dom, codomain=cod),
                     gen_shift_pair(adm_d[M - 1], adm_c[M], domain=dom,
                                    codomain=cod)]
        density = LaurentPolynomial({k: r.complex_box() for k in range(-4, 5)})
        families.append(represent_functional(density, theta, alpha))
        out += [(D, families),
                (split_blocks(noisy(D.assemble()), theta, alpha, M), families)]
    for theta, alpha in ((monomial_inner(3), monomial_inner(2)),
                         (near, BlaschkeProduct([0.5, -0.3j, 0.1]))):
        A = build_tto(theta, alpha, random_symbol(r, reach=2))
        adm_d, adm_c = admissible_for_shift(A.domain), admissible_for_shift(A.codomain)
        families = [gen_shift_pair(f, g, domain=A.domain, codomain=A.codomain)
                    for f in adm_d for g in adm_c]
        families += [FiniteRankOperator(
            [(A.domain.reconstruct([r.complex_box() for _ in range(A.domain.dim)]),
              A.codomain.reconstruct([r.complex_box() for _ in range(A.codomain.dim)]))
             for _ in range(rank)]) for rank in (1, 3)]
        out += [(A, families),
                (DenseComplexMatrix(noisy(A.entries), A.domain, A.codomain), families)]
    return out


def test_pair_many_matches_loop_pair():
    for T, families in _pairing_cases():
        fast = pair_many(T, families)
        slow = np.array([loop_pair(T, t) for t in families])
        assert fast.shape == (len(families),) and fast.dtype == np.complex128
        # the represented functional and the noisy copies pair visibly
        assert np.max(np.abs(slow)) > 1e-3
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-13)
        assert pair(T, families[0]) == pytest.approx(slow[0], rel=0, abs=1e-13)


def test_pair_many_membership_error_names_the_leaving_vector():
    theta, alpha, M = BlaschkeProduct([0.5, -0.3j]), BlaschkeProduct([0.4 + 0.2j]), 40
    D = build_dtto(theta, alpha, LaurentPolynomial({-1: 1.0, 2: 0.5j}), M)
    families = [gen_M(l, theta, alpha, monomial(p), monomial(q))
                for l in range(1, 7) for p in range(3) for q in range(3)]
    assert np.max(np.abs(pair_many(D, families))) <= 1e-10
    (f1, g1), (f2, g2) = families[20].dyads
    leak_f = tm_basis(theta).reconstruct(np.ones(theta.degree)).scale(1e-6)
    leak_g = monomial(-(M + 2)).scale(1e-6)
    for dyads, basis in (([(f1, g1), (f2, g2 + leak_g)], D.codomain_basis()),
                         ([(f1 + leak_f, g1), (f2, g2)], D.domain_basis())):
        batch = families[:20] + [FiniteRankOperator(dyads)] + families[21:]
        with pytest.raises(DimensionError,
                           match=f"leaves the {re.escape(basis.label)} span"):
            pair_many(D, batch)


def test_pair_many_empty_batches():
    z2 = monomial_inner(2)
    D = build_dtto(z2, z2, monomial(1), 8)
    out = pair_many(D, [])
    assert out.shape == (0,) and out.dtype == np.complex128
    t = FiniteRankOperator([(monomial(2), monomial(3))])
    empty = FiniteRankOperator([])
    np.testing.assert_array_equal(pair_many(D, [empty, t, empty]), [0, 1, 0])
    assert pair(D, empty) == 0
    with pytest.raises(InputError):
        pair_many(D.assemble(), [t])


# -- admissible vectors and the zbar corner on the sections ------------------------

@pytest.mark.parametrize("theta", SECTION_INNERS, ids=["z^2", "blaschke", "rho=0.95"])
@pytest.mark.parametrize("M", [0, 1, 6, 40])
def test_admissible_sections_match_svd_oracle(theta, M):
    for basis in _sections(theta, M):
        fast = admissible_for_shift(basis)
        slow = svd_admissible_for_shift(basis)
        assert fast.dim == slow.dim == max(basis.dim - 1 - (basis.kind == "model_perp"), 0)
        assert set(fast.vectors) <= set(basis.vectors)
        if fast.dim:
            lo = min(fast.band()[0], slow.band()[0])
            hi = max(fast.band()[1], slow.band()[1])
            P_fast, P_slow = (S.conj().T @ S for S in (fast.stacked(lo, hi),
                                                        slow.stacked(lo, hi)))
            assert np.max(np.abs(P_fast - P_slow)) <= 1e-12


def _corner_operators():
    """Seeded built operators, each with a noisy copy and a copy whose
    TCheck first column is zeroed below the corner (an analytic symbol)."""
    r = Xoshiro256StarStar(20261018)
    noise = np.random.default_rng(20261018)
    out = []
    for i in range(40):
        theta, alpha = random_inner(r), random_inner(r)
        phi = random_symbol(r)
        M = _guard(theta, alpha, phi) + r.integer(0, 20)
        D = build_dtto(theta, alpha, phi, M)
        bump = lambda b: b + 1e-3 * (noise.standard_normal(b.shape)
                                     + 1j * noise.standard_normal(b.shape))
        analytic = D.t_check.copy()
        analytic[1:, 0] = 0.0
        out += [D,
                BlockOperator(bump(D.that), bump(D.gamma_check), bump(D.gamma_hat),
                              bump(D.t_check), theta, alpha, M, edge=None),
                BlockOperator(D.that, D.gamma_check, D.gamma_hat, analytic,
                              theta, alpha, M, edge=None)]
    return out


def test_zbar_symbol_is_bit_identical_to_poly_apply_oracle():
    analytic = 0
    for D in _corner_operators():
        fast, slow = _zbar_symbol(D).value, poly_zbar_symbol(D).value
        assert fast.lo == slow.lo and fast._data.tobytes() == slow._data.tobytes()
        verdict = is_analytic_adtto(D)
        assert verdict == poly_is_analytic_adtto(D)
        analytic += verdict.analytic
    assert 0 < analytic < 120


def _built_operators():
    r = Xoshiro256StarStar(77)
    out = []
    for theta, alpha in ((monomial_inner(2), monomial_inner(3)),
                         (BlaschkeProduct([0.4 - 0.2j, 0.1j]), BlaschkeProduct([0.6])),
                         (SECTION_INNERS[2], BlaschkeProduct([0.3 + 0.3j]))):
        phi = random_symbol(r, reach=3)
        out.append(build_dtto(theta, alpha, phi, _guard(theta, alpha, phi) + 9))
    return out


def test_block_shift_defect_is_largest_block_condition_defect():
    noise = np.random.default_rng(77)
    for D in _built_operators():
        A = D.assemble() + 1e-3 * noise.standard_normal((D.dim, D.dim))
        for op in (D, split_blocks(A, D.theta, D.alpha, D.M)):
            rep = shift_invariance_defect(op)
            blocks = max(r.defect for r in check_block_conditions(op))
            assert rep.defect == blocks


def test_built_operators_have_exactly_zero_shift_defect():
    for D in _built_operators():
        assert shift_invariance_defect(D).defect == 0.0


def _section_index(p, M):
    # admissible index -> section index: theta z^M and zbar are skipped
    return p if p < M else p + 2


def _shifted(i, M):
    return i + 1 if i <= M else i - 1


@pytest.mark.parametrize("row, col", [(2, 3), (1, "t2"), ("t3", 2), ("t2", "t4")],
                         ids=["That", "GammaCheck", "GammaHat", "TCheck"])
def test_block_shift_witness_names_perturbed_pair(row, col):
    for D in _built_operators():
        M = D.M
        r = row if isinstance(row, int) else M + 1 + int(row[1:])
        c = col if isinstance(col, int) else M + 1 + int(col[1:])
        A = D.assemble()
        A[r, c] += 1e-3
        Dp = split_blocks(A, D.theta, D.alpha, M)
        rep = shift_invariance_defect(Dp)
        p, q, dev = rep.witnesses[0]
        a, b = _section_index(p, M), _section_index(q, M)
        assert (r, c) in {(b, a), (_shifted(b, M), _shifted(a, M))}
        assert dev == pytest.approx(1e-3, rel=1e-9)


# -- vectorised shift-invariance defect ------------------------------------------

def _shift_cases(rng):
    z2, b = monomial_inner(2), BlaschkeProduct([0.4 - 0.2j, 0.1j])
    out = []
    D = build_dtto(z2, z2, random_symbol(Xoshiro256StarStar(5), reach=2), 8)
    out.append((D.assemble(), D.domain_basis(), D.codomain_basis()))
    # exact ties: four pairs deviate by exactly 1, the top three are kept in
    # (p, q) order
    bumped = D.assemble()
    bumped[3, 3] += 1.0
    bumped[12, 3] += 1.0
    out.append((bumped, D.domain_basis(), D.codomain_basis()))
    D = build_dtto(b, z2, random_symbol(Xoshiro256StarStar(6), reach=2), 9)
    noise = np.array([[rng.complex_box() for _ in range(D.dim)]
                      for _ in range(D.dim)])
    out.append((D.assemble() + 1e-3 * noise, D.domain_basis(), D.codomain_basis()))
    A = build_tto(b, BlaschkeProduct([0.5, 0.0, -0.2]), monomial(1))
    out.append((A.entries, A.domain, A.codomain))
    out.append((A.entries + 1e-2, A.domain, A.codomain))
    # a one-dimensional model space has no admissible vectors
    A = build_tto(monomial_inner(1), z2, monomial(0))
    out.append((A.entries, A.domain, A.codomain))
    return out


def _as_operator(mat, dom, cod):
    if dom.kind == "model":
        return DenseComplexMatrix(mat, dom, cod)
    return split_blocks(mat, dom.inner, cod.inner, dom.depth)


def test_shift_invariance_defect_matches_loop_oracle(rng):
    for mat, dom, cod in _shift_cases(rng):
        for tol in (1e-10, 1e-3):
            fast = shift_invariance_defect(_as_operator(mat, dom, cod), tol=tol)
            slow = loop_shift_invariance_defect(mat, dom, cod, tol)
            assert fast.tolerance == slow.tolerance
            assert fast.defect == pytest.approx(slow.defect, rel=1e-12, abs=1e-14)
            assert [w[:2] for w in fast.witnesses] == [w[:2] for w in slow.witnesses]
            np.testing.assert_allclose([w[2] for w in fast.witnesses],
                                       [w[2] for w in slow.witnesses], rtol=1e-12)


def test_shift_invariance_defect_block_operator_argument():
    D = build_dtto(monomial_inner(2), BlaschkeProduct([0.3]),
                   LaurentPolynomial({-1: 1.0, 2: 0.5j}), 8)
    bumped = D.assemble()
    bumped[0, 0] += 1e-4
    Dp = split_blocks(bumped, D.theta, D.alpha, D.M)
    rep = shift_invariance_defect(Dp)
    slow = loop_shift_invariance_defect(Dp.assemble(), Dp.domain_basis(),
                                        Dp.codomain_basis(), rep.tolerance)
    assert not rep.passed
    assert rep.defect == pytest.approx(slow.defect, rel=1e-12)
    assert rep.witnesses and [w[:2] for w in rep.witnesses] == \
        [w[:2] for w in slow.witnesses]


@pytest.mark.parametrize("theta, alpha, space, M", [
    (monomial_inner(3), monomial_inner(2), "model", None),
    (BlaschkeProduct([0.5, 0.2j]), BlaschkeProduct([0.3, -0.4]), "model", None),
    (monomial_inner(2), monomial_inner(2), "model_perp", 5),
    (monomial_inner(2), monomial_inner(2), "model_perp", 0),
    (monomial_inner(2), monomial_inner(2), "model_perp", 1),
    (monomial_inner(2), monomial_inner(2), "model_perp", 10),
    (monomial_inner(2), monomial_inner(3), "model_perp", 6),
    (BlaschkeProduct([0.5, -0.3j]), BlaschkeProduct([0.2 + 0.2j]), "model_perp", 5),
    (BlaschkeProduct([0.9 * cmath.exp(1j)]), BlaschkeProduct([0.95j, -0.4]),
     "model_perp", 6),
])
def test_shift_invariant_solve_matches_loop_system(theta, alpha, space, M):
    """Model spaces: the singular values are the loop system's, bit for bit.
    Sections: the closed-form basis is orthonormal and spans the loop
    system's SVD nullspace (all operators at M = 0, where no pair is
    admissible)."""
    sol = solve_shift_invariant_space(theta, alpha, space, M)
    if space == "model":
        dom, cod = tm_basis(theta), tm_basis(alpha)
    else:
        dom, cod = basis_Kperp(theta, M), basis_Kperp(alpha, M, name="alpha")
    _, s, Vh = np.linalg.svd(loop_shift_system(dom, cod), full_matrices=True)
    if space == "model":
        np.testing.assert_array_equal(sol.singular_values, s)
        return
    null = np.array([Vh[k].conj() for k in range(len(Vh))
                     if k >= len(s) or s[k] < SHIFT_KERNEL_TOL]).T
    basis = np.array([op.assemble().ravel() for op in sol.operators]).T
    assert sol.dimension == len(sol.operators) == null.shape[1] == 8 * M + 4
    assert sol.singular_values.size == 0
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(sol.dimension),
                               rtol=0, atol=1e-15)
    assert np.linalg.norm(null - basis @ (basis.conj().T @ null), 2) <= 1e-12


def test_section_shift_invariant_space_runs_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    theta, alpha = BlaschkeProduct([0.9, -0.3j]), monomial_inner(2)
    assert solve_shift_invariant_space(theta, alpha, "model_perp", 10).dimension == 84


# -- recovery residual --------------------------------------------------------------

BLOCKS = ("that", "gamma_check", "gamma_hat", "t_check")


def _in_class_operators():
    """Seeded built operators: monomial and Blaschke theta/alpha, each at
    the guard depth and at M = 200."""
    r = Xoshiro256StarStar(20261019)
    out = []
    for theta, alpha in ((monomial_inner(2), monomial_inner(3)),
                         (monomial_inner(1), random_inner(r)),
                         (random_inner(r), random_inner(r)),
                         (SECTION_INNERS[2], random_inner(r))):
        phi = random_symbol(r)
        out += [build_dtto(theta, alpha, phi, _guard(theta, alpha, phi)),
                build_dtto(theta, alpha, phi, 200)]
    return out


def _bumped(D, block, size=1e-3):
    """D with one interior entry of the named block moved by `size`."""
    blocks = {name: getattr(D, name).copy() for name in BLOCKS}
    blocks[block][2, 1] += size
    return BlockOperator(**blocks, theta=D.theta, alpha=D.alpha, M=D.M)


def _dense_noise_operator():
    D = build_dtto(monomial_inner(2), monomial_inner(2), monomial(1), 10)
    noise = np.random.default_rng(20261019).standard_normal((D.dim, D.dim))
    return split_blocks(D.assemble() + 0.5 * noise / np.linalg.norm(noise, 2),
                        D.theta, D.alpha, D.M)


def _record_rebuilds(monkeypatch):
    """The list of operators recover_symbol rebuilds from here on."""
    rebuilt = []

    def keep(*args):
        rebuilt.append(build_dtto(*args))
        return rebuilt[-1]

    monkeypatch.setattr(characterize, "build_dtto", keep)
    return rebuilt


@pytest.mark.parametrize("method", ["zbar", "boundary"])
def test_recovery_residual_is_bit_identical_to_svd_oracle(monkeypatch, method):
    rebuilt = _record_rebuilds(monkeypatch)
    in_class = _in_class_operators()
    bumped = [_bumped(D, block) for D in in_class[::2] for block in BLOCKS]
    residuals = []
    for D in in_class + bumped + [_dense_noise_operator()]:
        _, residual = recover_symbol(D, method)
        assert residual == svd_rebuild_residual(D, rebuilt[-1])
        residuals.append(residual)
    # every mismatch, down to one entry, takes the SVD branch
    assert min(residuals[len(in_class):]) > 0.0


def test_in_class_zbar_recovery_runs_no_svd(monkeypatch):
    real_norm = np.linalg.norm

    def no_spectral_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            raise AssertionError("spectral norm computed")
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", no_spectral_norm)
    in_class = _in_class_operators()
    for D in in_class:
        assert recover_symbol(D, "zbar")[1] == 0.0
    with pytest.raises(AssertionError, match="spectral norm"):
        recover_symbol(_bumped(in_class[0], "that"), "zbar")


# -- corner consistency and boundary recovery from the blocks ---------------------

def _corner(D):
    return check_adtto(D).reports[3]


def _boundary(D):
    return recover_symbol(D, "boundary")[0].value


def _max_gap(f, g):
    lo, hi = min(f.lo, g.lo), max(f.hi, g.hi)
    return float(np.max(np.abs(f.dense(lo, hi) - g.dense(lo, hi))))


def test_decision_procedures_touch_no_section_coordinates(monkeypatch):
    theta, alpha = BlaschkeProduct([0.9, -0.3j]), BlaschkeProduct([0.5 + 0.2j])
    D = build_dtto(theta, alpha, LaurentPolynomial({-2: 0.5, 0: 1.0, 1: -1j}), 24)

    def forbidden(*args, **kwargs):
        raise AssertionError("section coordinates or an operator product used")
    for owner, name in ((OrthonormalBasis, "coords"),
                        (OrthonormalBasis, "coords_and_defects"),
                        (OrthonormalBasis, "reconstruct"),
                        (BlockOperator, "apply"), (BlockOperator, "adjoint")):
        monkeypatch.setattr(owner, name, forbidden)
    assert check_adtto(D).passed
    for method in ("zbar", "boundary"):
        assert recover_symbol(D, method)[1] <= 1e-12


def test_monomial_corner_and_boundary_are_bit_identical_to_poly_oracle():
    r = Xoshiro256StarStar(20261020)
    for m, n in ((1, 1), (2, 3), (3, 1)):
        theta, alpha = monomial_inner(m), monomial_inner(n)
        phi = random_symbol(r)
        D = build_dtto(theta, alpha, phi, _guard(theta, alpha, phi) + 5)
        # a copy with the entries the two routes read moved
        P = BlockOperator(D.that.copy(), D.gamma_check.copy(), D.gamma_hat.copy(),
                          D.t_check, theta, alpha, D.M)
        P.gamma_hat[3, 0] += 1e-3
        P.gamma_check[0, 5] -= 2e-3
        P.that[0, 0] += 1e-3
        P.that[0, 2] -= 1e-3j
        P.that[4, 0] += 1e-3
        for op in (D, P):
            assert _corner(op) == poly_corner_consistency(op)
            fast, slow = _boundary(op), poly_recover_boundary(op).value
            assert fast.lo == slow.lo and fast._data.tobytes() == slow._data.tobytes()


@pytest.mark.parametrize("rho", [0.7, 0.95, 0.99])
def test_blaschke_corner_and_boundary_match_poly_oracle(rho):
    r = Xoshiro256StarStar(20261021)
    theta = BlaschkeProduct([rho * cmath.exp(0.3j)], allow_near_boundary=True)
    alpha = BlaschkeProduct([-rho, 0.2j], allow_near_boundary=True)
    depths = [None, 60] + ([400] if rho == 0.99 else [])
    for M in depths:
        phi = random_symbol(r)
        D = build_dtto(theta, alpha, phi, M or _guard(theta, alpha, phi))
        assert abs(_corner(D).defect - poly_corner_consistency(D).defect) <= ORACLE_TOL
        assert _max_gap(_boundary(D), poly_recover_boundary(D).value) <= ORACLE_TOL


def test_noisy_corner_defect_matches_poly_oracle():
    r = Xoshiro256StarStar(20261022)
    noise = np.random.default_rng(20261022)
    for theta in (monomial_inner(1), BlaschkeProduct([0.5]),
                  BlaschkeProduct([0.9j, -0.4])):
        D = build_dtto(theta, monomial_inner(2), random_symbol(r), 16)
        N = noise.standard_normal((D.dim, 2 * D.dim)).view(np.complex128)
        P = split_blocks(D.assemble() + 1e-3 * N, D.theta, D.alpha, D.M)
        fast, slow = _corner(P), poly_corner_consistency(P)
        assert not fast.passed
        assert abs(fast.defect - slow.defect) <= 1e-9 * slow.defect
        assert [w[:2] for w in fast.witnesses] == [w[:2] for w in slow.witnesses]


def test_perturbed_corner_keeps_the_witnesses_above_tolerance():
    theta, alpha = BlaschkeProduct([0.6, -0.3j]), BlaschkeProduct([0.4 + 0.1j])
    D = build_dtto(theta, alpha, LaurentPolynomial({-1: 1.0, 2: 0.5j}), 20)
    D.gamma_hat[3, 0] += 2e-3
    fast, slow = _corner(D), poly_corner_consistency(D)

    def above(report):
        return [(name, k) for name, k, size in report.witnesses if size > report.tolerance]
    assert above(fast) == above(slow) == [("D(theta)", -4)]
    assert fast.defect == pytest.approx(slow.defect, rel=1e-9)


# -- exact-polynomial products ------------------------------------------------------

def test_multiply_without_tails_is_exact_convolution(rng):
    f, g = random_poly(rng, -3, 5), random_poly(rng, 0, 7)
    h = multiply(f, g)
    assert h.tail_bound == 0.0
    np.testing.assert_array_equal(h.dense(-3, 12),
                                  np.convolve(f.dense(-3, 5), g.dense(0, 7)))
    f_tail = LaurentPolynomial({0: 1.0, 2: 2.0}, tail_bound=1e-6)
    assert multiply(f_tail, g).tail_bound == pytest.approx(1e-6 * g.norm())
