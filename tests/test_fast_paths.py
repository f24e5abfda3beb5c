"""The structured fast paths against their generic oracles (tests/oracles.py):
closed-form DTTO blocks and their strided views, coordinate TTO entries,
slice coordinates on the complement sections, the batched trace pairing,
the admissible vectors of sections and model spaces, the TCheck-border
symbol, the vectorised shift-invariance defect and solve, the block
conditions in bands of one reused buffer, the checks and recoveries read
from the block views of a built operator, the recovery residual's norm
bracket, banded and from the difference sequences, and the deep pipeline
on expansions cut at their floor degree against the uncut expansions."""

import cmath
import re
import tracemalloc

import numpy as np
import pytest

from msolab.annihilate import (FiniteRankOperator, gen_M, gen_shift_pair, pair,
                               pair_many, represent_functional)
from msolab.bases import OrthonormalBasis
from msolab import characterize, inner
from msolab.cli import main
from msolab.characterize import (_BAND_ROWS, _band_buffers, _band_report,
                                 _certified_norm, _report, _toeplitz_report,
                                 _zbar_predictions, _zbar_symbol, check_adtto,
                                 check_block_conditions, default_tolerance,
                                 is_analytic_adtto, recover_symbol,
                                 shift_invariance_defect,
                                 solve_shift_invariant_space)
from msolab.errors import DimensionError, InputError
from msolab.inner import BlaschkeProduct, expand, monomial_inner, tm_basis
from msolab.laurent import LaurentPolynomial, monomial, multiply
from msolab.payload import read_operator_text, write_operator_text
from msolab.operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                              block_views, build_dtto, build_tto, guard_depth,
                              split_blocks, strided_sequence)
from msolab.rng import Xoshiro256StarStar
from msolab.spaces import SHIFT_KERNEL_TOL, admissible_for_shift, basis_Kperp
from msolab.suites import random_inner, random_symbol

from conftest import dense_noise_operator, random_poly
from oracles import (assembled_certified_norm, assembled_difference,
                     assembled_norm_bracket, dense_coords,
                     dense_coords_and_defect, dense_reconstruct,
                     dense_shift_invariance_defect, dtto_sequences,
                     fresh_block_conditions, gather_build_dtto,
                     gather_shift_invariance_defect, gather_zbar_predictions,
                     indexed_gen_M, loop_pair,
                     loop_shift_invariance_defect,
                     loop_shift_system, membership_defect, pairing_build_dtto,
                     poly_corner_consistency,
                     pairing_build_tto, poly_is_analytic_adtto,
                     poly_recover_boundary,
                     poly_zbar_symbol, svd_admissible_for_shift,
                     svd_rebuild_residual, uncut_expansion_degree)

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


VIEW_PAIRS = {"monomial": (monomial_inner(1), monomial_inner(2)),
              "blaschke": (BlaschkeProduct([0.5 - 0.3j]),
                           BlaschkeProduct([0.2 + 0.6j, -0.4]))}
VIEW_SYMBOL = LaurentPolynomial({-2: 0.5 - 0.25j, 0: 1.0, 1: -1j, 3: 0.125})


def _blocks(D):
    return [D.that, D.gamma_check, D.gamma_hat, D.t_check]


@pytest.mark.parametrize("pair", VIEW_PAIRS)
@pytest.mark.parametrize("M", [0, 1, 2, 16, 31, 32, 64, 256])
def test_block_views_are_the_gather_to_the_bit(M, pair):
    """The strided views, the blocks build_dtto copies from them, and
    check_adtto's coupling prediction and corner vectors equal the gather
    at the degree arrays bit for bit: on a built operator (gathered without
    the guard below the guard depth) and on a noisy one."""
    theta, alpha = VIEW_PAIRS[pair]
    gathered = gather_build_dtto(theta, alpha, VIEW_SYMBOL, M)
    views = list(block_views(M, dtto_sequences(theta, alpha, VIEW_SYMBOL, M)))
    assert [v.tobytes() for v in views] == [b.tobytes() for b in _blocks(gathered)]
    assert not any(v.flags.writeable for v in views)
    if M >= guard_depth(theta, alpha, SymbolFunction(VIEW_SYMBOL).reach):
        built = build_dtto(theta, alpha, VIEW_SYMBOL, M)
        assert [b.tobytes() for b in _blocks(built)] == \
            [b.tobytes() for b in _blocks(gathered)]
    noise = np.random.default_rng(M)
    shape = (4, M + 1, M + 1)
    noisy = BlockOperator(*(np.array(_blocks(gathered)) + 1e-3 * (
        noise.standard_normal(shape) + 1j * noise.standard_normal(shape))),
        theta, alpha, M)
    for D in (gathered, noisy):
        phi_z = _zbar_symbol(D)
        fast, slow = _zbar_predictions(D, phi_z), gather_zbar_predictions(D, phi_z)
        assert [a.shape for a in fast] == [a.shape for a in slow]
        assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]


def _view_backed(theta, alpha, M):
    """The operator build_dtto makes from VIEW_SYMBOL, its blocks still
    views; below the guard depth, the same views without the guard."""
    reach = SymbolFunction(VIEW_SYMBOL).reach
    if M >= guard_depth(theta, alpha, reach):
        return build_dtto(theta, alpha, VIEW_SYMBOL, M)
    views = block_views(M, dtto_sequences(theta, alpha, VIEW_SYMBOL, M))
    return BlockOperator._of_views(views, theta, alpha, M, reach)


def _bump_through_names(D, rows):
    """Equal bumps written through the named blocks: That at (k, k) for k
    in rows, so the deviations on its diagonal tie, GammaCheck on one
    antidiagonal and GammaHat at a corner entry. TCheck stays a view."""
    for k in rows:
        D.that[k, k] += 1e-3
    D.gamma_check[0, D.M // 2] -= 2e-3
    D.gamma_check[D.M // 2, 0] -= 2e-3
    D.gamma_hat[min(3, D.M), 0] += 1e-3


def _bump_tcheck_diagonal(D):
    """A write through `t_check` alone that keeps TCheck Toeplitz: its
    diagonal j - i = 1 (the main one at M = 0) moves, so the zbar symbol
    and the coupling prediction move while That stays a view."""
    k = min(1, D.M)
    rows = np.arange(D.M + 1 - k)
    D.t_check[rows, rows + k] += 1e-3


def _read_as_views(D):
    """D written by write_operator_text and read back by the compact reader:
    its four blocks are read-only views of the sequences in the text."""
    R = BlockOperator.from_json(read_operator_text("".join(write_operator_text(D))))
    assert not any(b.flags.writeable or b.flags.owndata for b in R.blocks())
    return R


def _outcomes(D):
    """Every report, verdict, symbol and residual the checks and recoveries
    give for D, comparable with ==; a recovery below its guard depth gives
    its error message, and one whose residual holds a NaN a NaN residual."""
    out = [[r.to_json() for r in check_block_conditions(D)],
           shift_invariance_defect(D).to_json(), tuple(is_analytic_adtto(D))]
    verdict = check_adtto(D)
    out.append(([r.to_json() for r in verdict.reports], verdict.passed,
                verdict.symbol.value.lo, verdict.symbol.value._data.tobytes()))
    for method in ("zbar", "boundary"):
        try:
            symbol, residual = recover_symbol(D, method)
            out.append((symbol.value.lo, symbol.value._data.tobytes(), residual))
        except InputError as exc:
            out.append(repr(exc))
    return out


def _within_ulps(a, b, dim):
    """a equals b, or lies within 2 (dim + 4) ulps of it, relative."""
    return a == b or abs(a - b) <= 2 * (dim + 4) * np.finfo(float).eps * abs(b)


def _assert_matches_assembled_copy(fast, D):
    """fast, the _outcomes of D, equals those of D cut from its assembled
    matrix, whose blocks take the banded route, bit for bit. Where all of
    D's blocks have their slot's layout, D's boundary residual comes from
    window sums of the difference sequences instead, added in another
    order: it lies within 2 (dim + 4) ulps of the banded one."""
    sequenced = all(s is not None for s in characterize._sequences(D))
    banded = _outcomes(split_blocks(D.assemble(), D.theta, D.alpha, D.M))
    if sequenced and isinstance(fast[-1], tuple):
        *fast, (lo, data, residual) = fast
        *banded, (banded_lo, banded_data, banded_residual) = banded
        assert (lo, data) == (banded_lo, banded_data)
        assert _within_ulps(residual, banded_residual, D.dim)
    assert fast == banded


@pytest.mark.parametrize("pair", VIEW_PAIRS)
@pytest.mark.parametrize("M", [0, 1, 2, 31, 32, 63, 64, 65, 128, 256])
@pytest.mark.parametrize("rows", [None, (1, 64), (64, "M"), "mixed"],
                         ids=["built", "first-band", "straddle", "mixed"])
def test_checks_on_views_equal_the_assembled_copy(M, pair, rows):
    """Reports, verdicts, recovered symbols and residuals read from the
    block views (from the sequences where a block's layout allows, banded
    where a residual has more than _BAND_ROWS rows) equal those of the same
    operator cut from its assembled matrix (_assert_matches_assembled_copy),
    and the block conditions equal the unbanded oracle. Perturbed operators put
    witnesses above tol in the first and the last band and ties on both
    sides of the band edge at row 64; a mixed one has TCheck written
    through its name and the three other blocks still views."""
    D = _view_backed(*VIEW_PAIRS[pair], M)
    if rows == "mixed":
        _bump_tcheck_diagonal(D)
    elif rows is not None:
        _bump_through_names(D, sorted({M if k == "M" else k for k in rows} & {*range(M + 1)}))
    fast = _outcomes(D)
    assert not D.blocks()[3].flags.writeable or rows == "mixed"
    if rows == "mixed":
        assert not any(b.flags.writeable for b in D.blocks()[:3])
        assert not fast[3][0][1]["pass"]
    tol = default_tolerance(D.theta, D.alpha)
    assert fast[0] == [r.to_json() for r in fresh_block_conditions(D, tol)]
    _assert_matches_assembled_copy(fast, D)
    if rows not in (None, "mixed") and M > _BAND_ROWS + 1:
        # That's sandwich deviates at rows k - 1 and k for each bump k
        assert [w[0] for w in fast[0][0]["witnesses"]] == \
            ([63, 64, M - 1] if rows[0] == 64 else [0, 1, 63])


@pytest.mark.parametrize("pair", VIEW_PAIRS)
@pytest.mark.parametrize("M", [0, 1, 2, 31, 32, 63, 64, 65, 128, 256])
@pytest.mark.parametrize("mixed", [False, True], ids=["built", "mixed"])
def test_checks_on_payload_views_equal_the_assembled_copy(M, pair, mixed):
    """An operator read from its payload text holds four read-only views in
    the reader's geometry, and every report, verdict, symbol and residual
    equals that of the built operator it was written from, bit for bit,
    and that of its assembled copy (_assert_matches_assembled_copy): as
    read, and with TCheck then written through its name (three blocks still
    views). Writing the text reads the blocks by name, so the built
    operator is built anew to keep its views."""
    R = _read_as_views(_view_backed(*VIEW_PAIRS[pair], M))
    D = _view_backed(*VIEW_PAIRS[pair], M)
    if mixed:
        _bump_tcheck_diagonal(D)
        _bump_tcheck_diagonal(R)
        assert not any(b.flags.writeable for b in R.blocks()[:3])
    fast = _outcomes(R)
    _assert_matches_assembled_copy(fast, R)
    assert fast == _outcomes(D)


def _toeplitz(values):
    """The owned n x n matrix whose cell (i, j) is values[n-1+j-i]."""
    n = (len(values) + 1) // 2
    i, j = np.ogrid[:n, :n]
    return np.array(values)[n - 1 + j - i]


@pytest.mark.parametrize("M", [0, 1, 2, 3, 63, 64, 65])
def test_coupling_from_the_diagonals_equals_the_banded_report(M):
    """_toeplitz_report of the 2M+1 diagonal moduli gives the banded and the
    whole-residual reports of the Toeplitz residual, witnesses included:
    with ties inside and across diagonals, on the corner diagonals of one
    and two cells, and with inf and NaN."""
    n, tol = M + 1, 1e-10
    noise = np.random.default_rng(M)
    for trial in range(8):
        # few distinct moduli, so many diagonals tie; a zero or a tiny gap is
        # below tol
        s = noise.choice([0.0, 1e-12, 1e-3, 2e-3, 2e-3j], 2 * M + 1) \
            + noise.choice([0.0, 1e-3j], 2 * M + 1)
        if trial % 2:
            # the largest value on the shortest diagonals
            s[np.array([0, 1, -2, -1]) % len(s)] = 5e-3
        if trial == 6:
            s[M] = np.inf
        if trial == 7:
            s[noise.integers(2 * M + 1)] = np.nan
        g = np.zeros(2 * M + 1, dtype=np.complex128)
        fast = _toeplitz_report("c", np.abs(s - g), tol)
        banded = _band_report("c", _toeplitz(s), _toeplitz(g), tol, _band_buffers(n))
        whole = _report("c", _toeplitz(s) - _toeplitz(g), tol)
        assert repr(fast.to_json()) == repr(banded.to_json()) == repr(whole.to_json())


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("block", range(4), ids=["That", "GammaCheck", "GammaHat", "TCheck"])
def test_a_non_finite_value_behind_a_view_takes_the_dense_route(block, value):
    """A view over a non-finite value is not read as exact zeros: every
    report equals that of owned copies of the blocks, read by the banded
    route and by the unbanded oracle, for a value inside the residual and
    for one on the outermost corner that no structure residual reads."""
    theta, alpha = VIEW_PAIRS["blaschke"]
    M = 70
    tol = default_tolerance(theta, alpha)
    for cell in (M // 2, 0):
        D = _view_backed(theta, alpha, M)
        D.blocks()[block].base[cell] = value
        owned = BlockOperator._of_views([np.array(b) for b in D.blocks()], theta,
                                        alpha, M, D.edge)
        # inf - inf is NaN, on every route
        with np.errstate(invalid="ignore"):
            fast = _outcomes(D)
            assert repr(fast) == repr(_outcomes(owned))
            assert repr(fast[0]) == repr([r.to_json() for r in
                                          fresh_block_conditions(owned, tol)])
        if cell:
            assert not fast[0][(0, 3, 2, 1)[block]]["defect"] <= tol


def test_a_payload_with_a_hankel_that_takes_the_banded_route(monkeypatch):
    """A payload whose That is Hankel (That and GammaCheck swapped) is read
    as four views, That in the Hankel layout; its that-shift-sandwich and
    coupling go through _band_report, and every outcome equals the
    assembled copy's."""
    D = build_dtto(*VIEW_PAIRS["blaschke"], VIEW_SYMBOL, 70)
    that, gamma_check, gamma_hat, t_check = (np.array(b) for b in D.blocks())
    swapped = BlockOperator(gamma_check, that, gamma_hat, t_check, D.theta,
                            D.alpha, D.M, D.edge)
    R = _read_as_views(swapped)
    assert strided_sequence(R.blocks()[0], toeplitz=True) is None
    assert strided_sequence(R.blocks()[0], toeplitz=False) is not None
    banded = []
    monkeypatch.setattr(characterize, "_band_report",
                        lambda condition, *args: banded.append(condition)
                        or _band_report(condition, *args))
    fast = _outcomes(R)
    # the swapped GammaCheck is Toeplitz, so its intertwining is banded too,
    # and the shift check bands the same two blocks
    assert sorted(set(banded)) == ["gammacheck-intertwine", "shift-invariance",
                                   "tcheck-coupling", "that-shift-sandwich"]
    assert not fast[0][0]["pass"]
    assert fast == _outcomes(split_blocks(R.assemble(), R.theta, R.alpha, R.M))


def test_a_block_read_by_name_is_copied_once():
    """A built operator, and one read from its payload text, hands out
    read-only views of 2M+1 values through blocks(); the first read by name
    replaces the view with an owned, C-contiguous, writable copy, and later
    reads return that same array."""
    built = build_dtto(*VIEW_PAIRS["blaschke"], VIEW_SYMBOL, 40)
    read = _read_as_views(build_dtto(*VIEW_PAIRS["blaschke"], VIEW_SYMBOL, 40))
    for D in (built, read):
        views = D.blocks()
        assert not any(v.flags.writeable or v.flags.owndata for v in views)
        assert all(v.base.nbytes == 81 * 16 for v in views)
        for k, block in enumerate(_blocks(D)):
            assert block.flags.owndata and block.flags.c_contiguous and block.flags.writeable
            assert block.tobytes() == views[k].tobytes()
            assert D.blocks()[k] is block and _blocks(D)[k] is block


def test_a_write_through_a_name_reaches_the_later_checks():
    """Checks run on the views first; a write through `that` afterwards is
    what the next block check, membership test and recovery read."""
    D = build_dtto(*VIEW_PAIRS["blaschke"], VIEW_SYMBOL, 40)
    assert all(r.passed for r in check_block_conditions(D)) and check_adtto(D).passed
    D.that[5, 7] += 1e-3
    sandwich = check_block_conditions(D)[0]
    assert [w[:2] for w in sandwich.witnesses] == [(4, 6), (5, 7)]
    coupling = check_adtto(D).reports[1]
    assert not coupling.passed and coupling.witnesses[0][:2] == (5, 7)
    assert recover_symbol(D, "zbar")[1] > 0.0
    # an array assigned to a name replaces the view and is held as given
    D = build_dtto(*VIEW_PAIRS["blaschke"], VIEW_SYMBOL, 40)
    bumped = np.array(D.blocks()[3])
    bumped[5, 7] += 1e-3
    D.t_check = bumped
    assert D.t_check is bumped and D.blocks()[3] is bumped
    sandwich = check_block_conditions(D)[1]
    assert sorted(w[:2] for w in sandwich.witnesses) == [(4, 6), (5, 7)]


def test_products_and_payloads_read_contiguous_copies():
    """apply, assemble and the build payload of a view-backed operator equal,
    byte for byte, those of the operator holding C-contiguous copies of the
    views."""
    theta, alpha = VIEW_PAIRS["blaschke"]
    M = 70
    copied = BlockOperator(*(np.array(v, order="C") for v in build_dtto(
        theta, alpha, VIEW_SYMBOL, M).blocks()), theta, alpha, M, edge=3)
    x = np.random.default_rng(70).standard_normal((2 * M + 2, 6)).view(np.complex128)
    for use in (lambda op: op.apply(x), lambda op: op.apply(x[:, 0]),
                lambda op: op.assemble(),
                lambda op: "".join(write_operator_text(op)).encode()):
        D = build_dtto(theta, alpha, VIEW_SYMBOL, M)
        assert not any(v.flags.writeable for v in D.blocks())
        assert bytes(use(D)) == bytes(use(copied))


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


def test_coordinate_tto_matches_pairing_oracle():
    """build_tto's codomain coordinates of the images against their
    pairings with the stacked codomain basis: 200 seeded random pairs, a
    monomial pair and a pair with a zero of modulus 0.95."""
    r = Xoshiro256StarStar(20261019)
    cases = [(random_inner(r), random_inner(r), random_symbol(r)) for _ in range(200)]
    cases += [(monomial_inner(3), monomial_inner(2), random_symbol(r)),
              (_near_boundary(r, 2), random_inner(r), random_symbol(r, reach=3))]
    worst = 0.0
    for theta, alpha, phi in cases:
        fast = build_tto(theta, alpha, phi).entries
        slow = pairing_build_tto(theta, alpha, phi)
        assert fast.shape == slow.shape
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst <= ORACLE_TOL


# -- slice coordinates on the sections --------------------------------------------

SECTION_INNERS = [monomial_inner(2), BlaschkeProduct([0.5, -0.3j]),
                  BlaschkeProduct([0.95, 0.2j], allow_near_boundary=True)]
MODEL_INNERS = [monomial_inner(1), monomial_inner(3),
                BlaschkeProduct([0.5, -0.3j, 0.2 + 0.1j, 0.0]),
                BlaschkeProduct([0.9, 0.4j]),
                BlaschkeProduct([0.95, 0.2j], allow_near_boundary=True)]
MODEL_IDS = ["z", "z^3", "blaschke", "zero at 0.9", "rho=0.95"]


@pytest.mark.parametrize("theta", SECTION_INNERS, ids=["z^2", "blaschke", "rho=0.95"])
@pytest.mark.parametrize("M", [0, 3, 12])
def test_section_slices_match_dense_stack(theta, M, rng):
    model = tm_basis(theta)
    basis = basis_Kperp(theta, M)
    x = np.array([rng.complex_box() for _ in range(basis.dim)])
    rebuilt = basis.reconstruct(x)
    expected = dense_reconstruct(basis, x)
    assert (rebuilt - expected).norm() <= ORACLE_TOL
    outside = [monomial(-(M + 2)), model.reconstruct(np.ones(model.dim))]
    probes = [rebuilt, random_poly(rng, -M - 4, M + 9)]
    probes += [rebuilt + v.scale(s) for v in outside for s in (1.0, 1e-6)]
    for f in probes:
        np.testing.assert_allclose(basis.coords(f), dense_coords(basis, f),
                                   rtol=0, atol=ORACLE_TOL)
        x_fast, d_fast = basis.coords_and_defect(f)
        x_slow, d_slow = dense_coords_and_defect(basis, f)
        np.testing.assert_allclose(x_fast, x_slow, rtol=0, atol=ORACLE_TOL)
        assert d_fast == pytest.approx(d_slow, rel=1e-9, abs=ORACLE_TOL)
    assert membership_defect(basis, rebuilt) <= 1e-12
    for v in outside:
        assert membership_defect(basis, rebuilt + v.scale(1e-6)) == \
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
    bases = [basis_Kperp(theta, M), tm_basis(theta),
             admissible_for_shift(basis_Kperp(theta, M))]
    for basis in bases:
        x = np.array([rng.complex_box() for _ in range(basis.dim)])
        rebuilt = basis.reconstruct(x)
        probes = [rebuilt, random_poly(rng, -M - 4, M + 9), LaurentPolynomial(),
                  rebuilt + monomial(-(M + 2)).scale(1e-6), monomial(M + 40)]
        X, defects, norms = basis.coords_and_defects(probes)
        assert X.shape == (len(probes), basis.dim)
        # both sides sum the 2 * len(f) squares of a probe in different
        # orders: n + 4 ulps for the n summed terms
        terms = np.array([2 * (f.hi - f.lo + 1) for f in probes])
        want = np.array([f.norm() for f in probes])
        assert np.all(np.abs(norms - want) <= (terms + 4) * np.finfo(float).eps * want)
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
        families = [gen_M(theta, alpha, _analytic(r), _analytic(r))[l - 1]
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
        dom, cod = A.domain_basis(), A.codomain_basis()
        adm_d, adm_c = admissible_for_shift(dom), admissible_for_shift(cod)
        families = [gen_shift_pair(f, g, domain=dom, codomain=cod)
                    for f in adm_d for g in adm_c]
        families += [FiniteRankOperator(
            [(dom.reconstruct([r.complex_box() for _ in range(dom.dim)]),
              cod.reconstruct([r.complex_box() for _ in range(cod.dim)]))
             for _ in range(rank)]) for rank in (1, 3)]
        out += [(A, families),
                (DenseComplexMatrix(noisy(A.entries), theta, alpha), families)]
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


def test_pair_many_on_sections_stacks_no_basis(monkeypatch):
    """Section bases pair from coefficient slices: pair_many never builds a
    dense stack of one. The bases are cached per (theta, M), so a stack
    would stay alive with them (the acceptance suite's peak RSS grows about
    fourfold when the sections take the dense path)."""
    cases = [(T, families) for T, families in _pairing_cases()
             if isinstance(T, BlockOperator)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a section basis was stacked densely")
    monkeypatch.setattr(OrthonormalBasis, "stacked", forbidden)
    monkeypatch.setattr(OrthonormalBasis, "_stack", forbidden)
    assert len(cases) == 6
    for T, families in cases:
        assert pair_many(T, families).shape == (len(families),)
        for basis in (T.domain_basis(), T.codomain_basis()):
            assert basis.kind == "model_perp"
            assert not hasattr(basis, "_stack_cache")


def test_pair_many_membership_error_names_the_leaving_vector():
    theta, alpha, M = BlaschkeProduct([0.5, -0.3j]), BlaschkeProduct([0.4 + 0.2j]), 40
    D = build_dtto(theta, alpha, LaurentPolynomial({-1: 1.0, 2: 0.5j}), M)
    families = [gen_M(theta, alpha, monomial(p), monomial(q))[l - 1]
                for l in range(1, 7) for p in range(3) for q in range(3)]
    assert np.max(np.abs(pair_many(D, families))) <= 1e-10
    (f1, g1), (f2, g2) = families[20].dyads
    leak_f = tm_basis(theta).reconstruct(np.ones(theta.degree)).scale(1e-6)
    leak_g = monomial(-(M + 2)).scale(1e-6)
    for dyads, side, basis in (([(f1, g1), (f2, g2 + leak_g)], "g", D.codomain_basis()),
                               ([(f1 + leak_f, g1), (f2, g2)], "f", D.domain_basis())):
        batch = families[:20] + [FiniteRankOperator(dyads)] + families[21:]
        with pytest.raises(DimensionError, match=f"dyad vector {side} leaves "
                           f"the {re.escape(basis.label)} span"):
            pair_many(D, batch)


@pytest.mark.parametrize("theta, alpha", [
    (monomial_inner(2), monomial_inner(3)),
    (BlaschkeProduct([0.5, -0.3j]), BlaschkeProduct([0.4 + 0.2j])),
    (BlaschkeProduct([0.3 + 0.6j]), BlaschkeProduct([-0.2, 0.7j, 0.1])),
    (BlaschkeProduct([0.5, -0.3j]), BlaschkeProduct([0.5j, 0.3]))],
    ids=["z2-z3", "blaschke-2-1", "blaschke-1-3", "blaschke-equal-length"])
def test_gen_M_matches_indexed_families(theta, alpha):
    """The six families built from shared products carry, dyad for dyad,
    the band start and the coefficients of each family built alone: the
    same arrays where theta and alpha expand to different lengths. At equal
    lengths np.convolve sums theta*alpha and alpha*theta in different
    orders, and the oracle forms both, so the arrays agree to roundoff."""
    r = Xoshiro256StarStar(20261018)
    one = LaurentPolynomial.one()
    exact = expand(theta).hi != expand(alpha).hi
    pairs = [(one, one)] + [(_analytic(r, r.integer(0, 2)), _analytic(r, r.integer(0, 2)))
                            for _ in range(4)]
    for h, g in pairs:
        families = gen_M(theta, alpha, h, g)
        assert len(families) == 6
        for index, t in enumerate(families, start=1):
            oracle = indexed_gen_M(index, theta, alpha, h, g)
            assert len(t.dyads) == len(oracle.dyads) == 2
            for fg, fg_oracle in zip(t.dyads, oracle.dyads):
                for p, q in zip(fg, fg_oracle):
                    assert p.band == q.band
                    np.testing.assert_allclose(p.dense(*p.band), q.dense(*q.band),
                                               rtol=0, atol=0 if exact else 1e-15)


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
    basis = basis_Kperp(theta, M)
    fast = admissible_for_shift(basis)
    assert fast.dim == basis.dim - 2
    assert set(fast.vectors) <= set(basis.vectors)
    _assert_same_span(fast, svd_admissible_for_shift(basis))


@pytest.mark.parametrize("theta", MODEL_INNERS, ids=MODEL_IDS)
def test_admissible_model_spaces_match_svd_oracle(theta):
    """The compressed-shift coordinates rebuild the kernel of the shift
    residuals."""
    basis = tm_basis(theta)
    fast = admissible_for_shift(basis)
    assert fast.dim == basis.dim - 1
    _assert_same_span(fast, svd_admissible_for_shift(basis))


def _assert_same_span(fast, slow):
    """Equal dimensions and orthogonal projectors within 1e-12."""
    assert fast.dim == slow.dim
    lo = min(fast.band()[0], slow.band()[0])
    hi = max(fast.band()[1], slow.band()[1])
    P_fast, P_slow = (S.conj().T @ S for S in (fast.stacked(lo, hi),
                                                slow.stacked(lo, hi)))
    assert np.max(np.abs(P_fast - P_slow), initial=0.0) <= 1e-12


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


def _structured_operator(M):
    """A built operator at depth M; below the guard depth, the leading
    corners of the blocks of a built one, which stay Toeplitz and Hankel."""
    theta, alpha = BlaschkeProduct([0.4 - 0.2j, 0.1j]), BlaschkeProduct([0.6])
    D = build_dtto(theta, alpha, LaurentPolynomial({-2: 0.5, 0: 1.0, 3: -1j}),
                   max(M, 14))
    n = M + 1
    return BlockOperator(D.that[:n, :n], D.gamma_check[:n, :n],
                         D.gamma_hat[:n, :n], D.t_check[:n, :n], theta, alpha, M)


def _structured_variants(M):
    """_structured_operator(M), a copy with dense noise, and integer blocks,
    whose deviations tie."""
    D = _structured_operator(M)
    noise = np.random.default_rng(M)
    shape = (4, M + 1, M + 1)
    complex_noise = noise.standard_normal(shape) + 1j * noise.standard_normal(shape)
    perturbed = BlockOperator(*(np.array(_blocks(D)) + 1e-3 * complex_noise),
                              D.theta, D.alpha, M)
    ties = BlockOperator(*np.round(3 * complex_noise), D.theta, D.alpha, M)
    return D, perturbed, ties


def _assert_shift_oracles(op, tol=None):
    """shift_invariance_defect on op equals, in its JSON repr, the gather
    from the assembled matrix and the four block residuals assembled by
    np.block and transposed whole; returns the report."""
    fast = shift_invariance_defect(op, tol=tol)
    for slow in (gather_shift_invariance_defect(op, fast.tolerance),
                 dense_shift_invariance_defect(op, fast.tolerance)):
        assert repr(fast.to_json()) == repr(slow.to_json())
    return fast


@pytest.mark.parametrize("M", [0, 1, 2, 14, 31, 32, 63, 64, 65, 256])
def test_block_shift_defect_equals_the_gather_oracle(M):
    """The four block reports give the same defect and witnesses, bit for
    bit, as the gather from the assembled matrix and the np.block layout:
    on a built operator, on one read back from its payload as views, on
    owned copies of its blocks, on one with dense noise, and on integer
    blocks, whose deviations tie; at the default tolerance and at 0.5."""
    D, perturbed, ties = _structured_variants(M)
    built = _view_backed(*VIEW_PAIRS["blaschke"], M)
    for op, noisy in ((D, False), (built, False), (_read_as_views(built), False),
                      (perturbed, True), (ties, True)):
        assert bool(_assert_shift_oracles(op).witnesses) == (noisy and M > 0)
        _assert_shift_oracles(op, 0.5)
    assert shift_invariance_defect(D).defect == 0.0


def test_block_shift_ties_cross_blocks_and_band_edges():
    """Equal deviations in all four blocks, several on rows and columns 63
    to 65 about the band edge: the witnesses are the first three of the
    whole layout in row-major order, wherever the blocks put them."""
    M = 130
    zero = np.zeros((M + 1, M + 1), dtype=np.complex128)
    cells = [((64, 64), (130, 0)), ((65, 2), (63, 64)), ((2, 65), (64, 0)),
             ((0, 64), (64, 63))]
    blocks = [zero.copy() for _ in range(4)]
    for block, block_cells in zip(blocks, cells):
        for cell in block_cells:
            block[cell] = 2.0
    op = BlockOperator(*blocks, *VIEW_PAIRS["blaschke"], M)
    fast = _assert_shift_oracles(op)
    assert [w[2] for w in fast.witnesses] == [2.0] * 3
    # the three witnesses come from more than one block of the layout
    assert len({(i // M, j // M) for i, j, _ in fast.witnesses}) > 1


@pytest.mark.parametrize("name", ["that", "gamma_check", "gamma_hat", "t_check"])
def test_a_nan_in_a_block_is_the_shift_defect(name):
    """A NaN written through a block's name makes the shift defect NaN on
    every route; the witnesses are those of the other, finite entries."""
    D = build_dtto(*VIEW_PAIRS["blaschke"], VIEW_SYMBOL, 70)
    block = getattr(D, name)
    block[5, 5] = np.nan
    block[40, 3] += 1e-3
    fast = _assert_shift_oracles(D)
    assert np.isnan(fast.defect) and not fast.passed and fast.witnesses


@pytest.mark.parametrize("M", [0, 1, 2, 14, 64])
def test_block_conditions_equal_fresh_residuals(M):
    """The four block reports from one reused residual buffer equal those
    from a new residual per condition, defect and witnesses to the bit."""
    for op in _structured_variants(M):
        for tol in (default_tolerance(op.theta, op.alpha), 1e-4):
            fast = check_block_conditions(op, tol=tol)
            slow = fresh_block_conditions(op, tol)
            assert [r.to_json() for r in fast] == [r.to_json() for r in slow]


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
    out.append((A.entries, A.domain_basis(), A.codomain_basis()))
    out.append((A.entries + 1e-2, A.domain_basis(), A.codomain_basis()))
    # a one-dimensional model space has no admissible vectors
    A = build_tto(monomial_inner(1), z2, monomial(0))
    out.append((A.entries, A.domain_basis(), A.codomain_basis()))
    return out


def _as_operator(mat, dom, cod):
    if dom.kind == "model":
        return DenseComplexMatrix(mat, dom.inner, cod.inner)
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
    (BlaschkeProduct([0.5, -0.3j, 0.1]), BlaschkeProduct([0.2, 0.9j, -0.4, 0.3]),
     "model", None),
])
def test_shift_invariant_solve_matches_loop_system(theta, alpha, space, M):
    """Model spaces: the solve's singular values are the loop system's, bit
    for bit between monomial spaces (every coordinate is exact there), to
    1e-14 otherwise, and the two nullspaces have the same projector.
    Sections: the loop system's SVD nullspace has dimension 8M+4 (all
    operators at M = 0, where no pair is admissible) and each null vector
    has the block structure."""
    if space == "model":
        dom, cod = tm_basis(theta), tm_basis(alpha)
    else:
        dom, cod = basis_Kperp(theta, M), basis_Kperp(alpha, M)
    _, s, Vh = np.linalg.svd(loop_shift_system(dom, cod), full_matrices=True)
    null = [Vh[k].conj() for k in range(len(Vh))
            if k >= len(s) or s[k] < SHIFT_KERNEL_TOL]
    if space == "model":
        sol = solve_shift_invariant_space(theta, alpha)
        if theta.is_monomial() and alpha.is_monomial():
            np.testing.assert_array_equal(sol.singular_values, s)
        else:
            np.testing.assert_allclose(sol.singular_values, s, rtol=0, atol=1e-14)
        N_sol = np.array([op.entries.ravel() for op in sol.operators])
        N_loop = np.array(null)
        assert N_sol.shape == N_loop.shape
        np.testing.assert_allclose(N_sol.T @ N_sol.conj(), N_loop.T @ N_loop.conj(),
                                   rtol=0, atol=1e-12)
        return
    assert len(null) == 8 * M + 4
    for v in null:
        op = split_blocks(v.reshape(cod.dim, dom.dim), theta, alpha, M)
        assert all(rep.passed for rep in check_block_conditions(op, tol=1e-10))


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


def _bracket_ends(E):
    """The unwidened norm bracket of E from numpy's norms: the largest
    column or row 2-norm and sqrt(||E||_1 ||E||_inf)."""
    lo = max(np.linalg.norm(E, axis=0).max(), np.linalg.norm(E, axis=1).max())
    return lo, float(np.sqrt(np.linalg.norm(E, 1) * np.linalg.norm(E, np.inf)))


@pytest.mark.parametrize("method", ["zbar", "boundary"])
def test_recovery_residual_bounds_svd_oracle_with_its_verdict(rebuilds, method):
    in_class = _in_class_operators()
    bumped = [_bumped(D, block) for D in in_class[::2] for block in BLOCKS]
    exact = []
    for D in in_class + bumped + [dense_noise_operator()]:
        _, residual = recover_symbol(D, method)
        E = D.assemble() - rebuilds[-1].assemble()
        oracle = svd_rebuild_residual(D, rebuilds[-1])
        exact.append(not E.any())
        if exact[-1]:
            assert residual == 0.0
            continue
        assert oracle <= residual
        lo, hi = _bracket_ends(E)
        inside = (oracle, float(np.sqrt(lo * hi)), lo, hi)
        for tol in (0.5 * lo, *inside, 2.0 * hi):
            _, residual = recover_symbol(D, method, tol=tol)
            assert oracle <= residual
            assert (residual <= tol) == (oracle <= tol)
            if tol in inside:
                assert residual == oracle
    # every in-class zbar rebuild is exact; every mismatch, down to one
    # entry, is not
    assert not any(exact[len(in_class):])
    assert method == "boundary" or all(exact[:len(in_class)])


def test_spectral_norm_runs_only_inside_the_bracket(monkeypatch):
    in_class = _in_class_operators()
    bumped = _bumped(in_class[0], "that")
    tol_inside = float(np.abs(bumped.that - in_class[0].that).max())
    spectral = []
    real_norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            spectral.append(x.shape)
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    for D in in_class:
        assert recover_symbol(D, "zbar")[1] == 0.0
        assert recover_symbol(D, "boundary")[1] <= 1e-12
    assert recover_symbol(bumped, "zbar")[1] > 1e-4
    assert spectral == []
    assert recover_symbol(bumped, "zbar", tol=tol_inside)[1] <= tol_inside
    assert spectral == [(bumped.dim, bumped.dim)]


def _residual_pairs(rebuilds):
    """(label, D, rebuilt) at depths with one residual band (20, 31) and
    with several (32, 100): the exact rebuild, the boundary rebuild (a
    roundoff residual), one entry bumped in the first or in the last band,
    and E past the float range in its squares or in its entries."""
    r = Xoshiro256StarStar(20261020)
    out = []
    for M in (20, 31, 32, 100):
        theta, alpha = random_inner(r), random_inner(r)
        D = build_dtto(theta, alpha, random_symbol(r), M)
        recover_symbol(D, "boundary")
        last = BlockOperator(D.that, D.gamma_check, D.gamma_hat, D.t_check.copy(),
                             theta, alpha, M)
        last.t_check[-1, -3] += 2e-3
        n = M + 1
        huge = BlockOperator(*[np.full((n, n), 1e200 + 3e199j)] * 4, theta, alpha, M)
        top, bottom = (BlockOperator(*[np.full((n, n), x)] * 4, theta, alpha, M)
                       for x in (1.5e308, -1.5e308))
        out += [(f"exact-M{M}", D, D), (f"roundoff-M{M}", D, rebuilds[-1]),
                (f"first-band-M{M}", _bumped(D, "that"), D), (f"last-band-M{M}", last, D),
                (f"squares-overflow-M{M}", huge, D),
                (f"entries-overflow-M{M}", top, bottom)]
    return out


def test_banded_residual_is_the_assembled_one_to_the_bit(rebuilds):
    """The banded sums give the bracket of the assembled E bit for bit, at
    every verdict: below, inside (the SVD runs) and above the bracket."""
    checked = set()
    for label, D, rebuilt in _residual_pairs(rebuilds):
        with np.errstate(over="ignore"):
            E = D.assemble() - rebuilt.assemble()
            tols = [1e-300, 1e-12, 1e300]
            if E.any() and "overflow" not in label:
                # tol at the SVD value lies inside the bracket
                svd = float(np.linalg.norm(E, 2))
                tols.append(svd)
                assert _certified_norm(D, rebuilt, svd) == svd
            for tol in tols:
                got = _certified_norm(D, rebuilt, tol)
                assert got == assembled_certified_norm(D, rebuilt, tol), (label, tol)
                checked.add((label.rsplit("-M", 1)[0], got == 0.0, np.isinf(got)))
    assert D.dim > 2 * _BAND_ROWS
    assert ("exact", True, False) in checked and ("roundoff", False, False) in checked
    assert ("entries-overflow", False, True) in checked


def _sequence_operator(values, theta, alpha):
    """The operator whose block k is a read-only view of values[k], its
    2M+1 values, in the payload reader's layout: Toeplitz strides (-s, s),
    Hankel (s, s). A built operator's Toeplitz blocks are (s, -s)."""
    values = np.array(values, dtype=np.complex128)
    n = (values.shape[1] + 1) // 2
    s = values.itemsize
    views = [np.lib.stride_tricks.as_strided(row[n - 1:], (n, n), (-s, s), writeable=False)
             if toeplitz else
             np.lib.stride_tricks.as_strided(row, (n, n), (s, s), writeable=False)
             for row, toeplitz in zip(values, characterize._TOEPLITZ)]
    return BlockOperator._of_views(views, theta, alpha, n - 1, 0)


def _sequence_pairs(M):
    """(label, D, rebuilt) at depth M whose eight blocks all have their
    slot's layout: the exact rebuild, a roundoff one, one sequence value of
    one block bumped (a whole diagonal or antidiagonal of E), values whose
    squares overflow, differences that overflow, and D read from its
    payload text, whose Toeplitz strides are the reverse of the build's."""
    theta, alpha = VIEW_PAIRS["blaschke"]
    D = _view_backed(theta, alpha, M)
    d = np.array([strided_sequence(b, t) for b, t in zip(D.blocks(), characterize._TOEPLITZ)])
    noise = np.random.default_rng(M)
    roundoff = d + 1e-15 * np.abs(d) * noise.standard_normal(d.shape)
    bumped = d.copy()
    bumped[M % 4, noise.integers(2 * M + 1)] += 1e-3
    return [("exact", D, _view_backed(theta, alpha, M)),
            ("roundoff", D, _sequence_operator(roundoff, theta, alpha)),
            ("bumped", _sequence_operator(bumped, theta, alpha), D),
            ("squares-overflow", _sequence_operator(np.full_like(d, 1e200 + 3e199j),
                                                    theta, alpha), D),
            ("differences-overflow", _sequence_operator(np.full_like(d, 1.5e308), theta, alpha),
             _sequence_operator(np.full_like(d, -1.5e308), theta, alpha)),
            ("payload", _read_as_views(_view_backed(theta, alpha, M)),
             _sequence_operator(roundoff, theta, alpha))]


@pytest.mark.parametrize("M", [0, 1, 2, 31, 32, 63, 64, 65, 256])
def test_residual_from_the_sequences_matches_the_assembled_one(M, monkeypatch):
    """Where all eight blocks have their slot's layout, the norm bracket
    comes from window sums of the difference sequences, not from bands of
    E: its ends lie within 2 (dim + 4) ulps of the assembled E's, they hold
    the SVD value between them, the residual gives the oracle's verdict at
    every tol and lies within the same ulps of the oracle's residual, and
    tol at the SVD value returns the SVD value."""
    def banded(*args):
        raise AssertionError("the banded route ran")
    monkeypatch.setattr(characterize, "_residual_bands", banded)
    seen = set()
    for label, D, rebuilt in _sequence_pairs(M):
        with np.errstate(over="ignore", invalid="ignore"):
            bracket = characterize._norm_bracket(D, rebuilt)
            oracle = assembled_norm_bracket(D, rebuilt)
            assert (bracket is None) == (oracle is None) == (label == "exact"), label
            if bracket is not None:
                assert all(_within_ulps(a, b, D.dim) for a, b in zip(bracket, oracle)), label
            for tol in (1e-300, 1e-12, 1e300):
                got = _certified_norm(D, rebuilt, tol)
                want = assembled_certified_norm(D, rebuilt, tol)
                assert (got <= tol) == (want <= tol), (label, tol)
                assert _within_ulps(got, want, D.dim), (label, tol)
                seen.add((label, got <= tol, np.isinf(got)))
            if "overflow" in label or bracket is None:
                continue
            svd = float(np.linalg.norm(assembled_difference(D, rebuilt), 2))
            assert bracket[0] <= svd <= bracket[1], label
            assert _certified_norm(D, rebuilt, svd) == svd, label
    assert {("exact", True, False), ("roundoff", True, False), ("bumped", False, False),
            ("squares-overflow", False, False), ("differences-overflow", False, True)} <= seen


def test_recovery_takes_the_banded_route_only_off_the_layout(monkeypatch, tmp_path, capsys):
    """recover_symbol, both methods, on built operators and on operators
    read from their payload text, and the CLI `recover` at M = 256, never
    read E in bands; an operator with one block written through its name
    does."""
    calls = []
    real = characterize._residual_bands
    monkeypatch.setattr(characterize, "_residual_bands",
                        lambda *args: calls.append(args) or real(*args))
    theta, alpha = VIEW_PAIRS["blaschke"]
    for M in (8, 31, 64, 65, 256):
        for D in (build_dtto(theta, alpha, VIEW_SYMBOL, M),
                  _read_as_views(build_dtto(theta, alpha, VIEW_SYMBOL, M))):
            for method in ("zbar", "boundary"):
                assert recover_symbol(D, method)[1] <= 1e-12
    path = str(tmp_path / "op.json")
    assert main(["build", "dtto", "--theta", '{"zeros": [[0.5, -0.3]]}',
                 "--alpha", '{"zeros": [[0.2, 0.6], [-0.4, 0.0]]}',
                 "--symbol", '{"coeffs": [[1, 1, 0], [-1, 2, 0]]}', "--M", "256",
                 "--out", path]) == 0
    for method in ("zbar", "boundary"):
        assert main(["recover", path, "--method", method]) == 0
    capsys.readouterr()
    assert calls == []
    D = build_dtto(theta, alpha, VIEW_SYMBOL, 64)
    _bump_tcheck_diagonal(D)
    for method in ("zbar", "boundary"):
        recover_symbol(D, method)
        assert len(calls) == 1
        calls.clear()


@pytest.mark.parametrize("block", [1, 2], ids=["GammaCheck", "GammaHat"])
def test_a_nan_in_a_block_gives_a_nan_residual(block, monkeypatch):
    """A NaN behind a Hankel block, which neither recovery reads for its
    symbol, makes the residual NaN with both methods, on the view and on
    owned copies, and the SVD, which would not converge, never runs."""
    spectral = []
    real_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, ord=None, *args, **kwargs:
                        (ord == 2 and spectral.append(x.shape))
                        or real_norm(x, ord, *args, **kwargs))
    theta, alpha = VIEW_PAIRS["blaschke"]
    D = build_dtto(theta, alpha, VIEW_SYMBOL, 12)
    D.blocks()[block].base[5] = np.nan
    owned = BlockOperator._of_views([np.array(b) for b in D.blocks()], theta,
                                    alpha, 12, D.edge)
    for op in (D, owned):
        for method in ("zbar", "boundary"):
            with np.errstate(invalid="ignore"):
                assert np.isnan(recover_symbol(op, method)[1])
    assert spectral == []


def _traced_peak(f):
    """f's result and the peak of memory it allocates, on its second call
    (the first fills the expansion caches)."""
    f()
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_case(M=256):
    """theta, alpha, symbol and the depth of the allocation tests."""
    return (BlaschkeProduct([0.5 - 0.3j]), BlaschkeProduct([0.2 + 0.6j, -0.4]),
            LaurentPolynomial({-1: 2.0, 0: 0.25 - 1j, 1: 1.0, 2: -0.5j}), M)


def test_boundary_recovery_holds_one_band_of_the_residual():
    """On owned blocks, which take the banded route, the boundary recovery
    holds one residual band of at most _BAND_ROWS rows and a rebuild of
    four block views: peak measured 1.49 MB at M = 256, against 5.6 MB
    when the rebuild copied its four blocks and 12.8 MB when the whole
    residual E, |E| and |E|^2 were assembled."""
    theta, alpha, phi, M = _peak_case()
    D = BlockOperator(*(np.array(b) for b in build_dtto(theta, alpha, phi, M).blocks()),
                      theta, alpha, M)
    (_, residual), peak = _traced_peak(lambda: recover_symbol(D, "boundary"))
    assert 0.0 < residual <= 1e-12
    assert peak < 6e6


def test_boundary_recovery_reads_the_difference_sequences():
    """On a built operator the boundary recovery takes its norm bracket
    from the four difference sequences and holds no band of the residual:
    peak measured 0.30 MB at M = 256, against 1.6 MB on the banded route."""
    D = build_dtto(*_peak_case())
    (_, residual), peak = _traced_peak(lambda: recover_symbol(D, "boundary"))
    assert 0.0 < residual <= 1e-12
    assert peak < 0.4e6
    assert not any(b.flags.writeable for b in D.blocks())


# numpy's ufunc buffers for two strided operands: a fixed size, not O(M^2)
_UFUNC_BUFFERS = 2 * np.getbufsize() * 16


def test_build_holds_its_four_blocks_and_sequences():
    """A block read by name is an owned, C-contiguous, writable copy of its
    view. build_dtto itself holds a few sequences and no block: peak
    measured 0.06 MB at M = 256, against 4.32 MB when it copied the four
    blocks and 5.32 MB when it gathered them at (M+1)^2 arrays of degrees
    (test_build_holds_no_block has the tight ceiling)."""
    theta, alpha, phi, M = _peak_case()
    n = M + 1
    D, peak = _traced_peak(lambda: build_dtto(theta, alpha, phi, M))
    assert all(b.flags.c_contiguous and b.flags.writeable and b.flags.owndata
               for b in (D.that, D.gamma_check, D.gamma_hat, D.t_check))
    assert peak <= 4 * n * n * 16 + n * n + 16 * (2 * M + 1) * 16


@pytest.mark.parametrize("check", [check_block_conditions, check_adtto,
                                   shift_invariance_defect],
                         ids=["blocks", "adtto", "shift"])
def test_checks_hold_one_residual_beyond_the_operator(check):
    """Beyond D a check on owned blocks, which take the banded route, holds
    one band of a complex residual, its modulus and the mask of entries
    above tol: peak measured 0.66 MB at M = 256, against 1.84 MB for one
    whole residual buffer, 5.31 MB when every block residual and modulus
    was a new array, and 12.6 MB for the shift check's np.block layout."""
    theta, alpha, phi, M = _peak_case()
    n = M + 1
    D = BlockOperator(*(np.array(b) for b in build_dtto(theta, alpha, phi, M).blocks()),
                      theta, alpha, M)
    _, peak = _traced_peak(lambda: check(D))
    assert peak <= n * n * (16 + 8 + 1) + _UFUNC_BUFFERS + 16 * (2 * M + 1) * 16


def test_build_holds_no_block():
    """build_dtto keeps each block as a view into the 2M+1 coefficients it
    reads: at M = 256 its peak stays below one block (1.06 MB; measured
    0.06 MB), and no block is copied until it is read by name."""
    theta, alpha, phi, M = _peak_case()
    D, peak = _traced_peak(lambda: build_dtto(theta, alpha, phi, M))
    assert peak < (M + 1) ** 2 * 16
    assert not any(b.flags.writeable for b in D.blocks())


def test_deep_pipeline_copies_no_block():
    """check_adtto, check_block_conditions, both recoveries and
    is_analytic_adtto on a built operator, in the deep benchmark's order,
    read the blocks as views and rebuild from views: peak measured 0.30 MB
    at M = 256, against 1.62 MB while the boundary residual was read in
    bands and 5.55 MB when the blocks and each rebuild were copied."""
    D = build_dtto(*_peak_case())

    def deep():
        check_adtto(D)
        check_block_conditions(D)
        recover_symbol(D, "zbar")
        recover_symbol(D, "boundary")
        is_analytic_adtto(D)
    _, peak = _traced_peak(deep)
    assert peak <= 2e6
    assert not any(b.flags.writeable for b in D.blocks())


@pytest.mark.parametrize("check", [
    check_block_conditions, check_adtto, lambda D: recover_symbol(D, "zbar"),
    shift_invariance_defect], ids=["blocks", "adtto", "zbar", "shift"])
def test_checks_on_a_built_operator_read_the_sequences(check):
    """On a built operator at M = 400 the block conditions, the coupling
    and the zbar recovery residual come from the 2M+1 values of each block,
    and the shift check from the same test: each peak stays below 0.25 MB
    (measured 0.016, 0.08, 0.17 and 0.015 MB), against 0.87, 0.92, 2.1 and
    21 MB on the banded and assembled routes they replace."""
    D = build_dtto(*_peak_case(400))
    _, peak = _traced_peak(lambda: check(D))
    assert peak < 0.25e6
    assert not any(b.flags.writeable for b in D.blocks())


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
                        (BlockOperator, "apply")):
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
    np.testing.assert_array_equal(multiply(f, g).dense(-3, 12),
                                  np.convolve(f.dense(-3, 5), g.dense(0, 7)))


# -- expansions cut at the floor degree -----------------------------------------------

def _subnormal_count(p: LaurentPolynomial) -> int:
    parts = np.abs(p._data.view(np.float64))
    return int(np.count_nonzero((parts > 0) & (parts < np.finfo(np.float64).tiny)))


def _deep_pipeline(theta, alpha, phi, M):
    """The deep benchmark's steps on one case: the build, the checks and
    both recoveries."""
    D = build_dtto(theta, alpha, phi, M)
    return (D, check_adtto(D), check_block_conditions(D), recover_symbol(D, "zbar"),
            recover_symbol(D, "boundary"), is_analytic_adtto(D))


def _recorded_pipeline(monkeypatch, case):
    """The pipeline's outcome and every (B, n, expansion) it asked for."""
    expansions, expand_to = [], inner._expand_cached

    def recorded(B, n):
        out = expand_to(B, n)
        expansions.append((B, n, out))
        return out
    with monkeypatch.context() as m:
        m.setattr(inner, "_expand_cached", recorded)
        return _deep_pipeline(*case), expansions


@pytest.mark.parametrize("case", [
    (BlaschkeProduct([0.35 - 0.1j]), BlaschkeProduct([0.6 + 0.3j, -0.5j]),
     LaurentPolynomial({-2: 0.5 - 0.2j, -1: 1j, 0: 0.25, 1: -0.7, 3: 0.3j}), 400),
    (BlaschkeProduct([0.7j, 0.2, -0.45]), BlaschkeProduct([0.3]),
     LaurentPolynomial({0: 1.0 - 0.5j, 2: 0.4, 4: -0.2j}), 400),
], ids=["non-analytic", "analytic"])
def test_the_floor_cut_keeps_the_deep_pipeline_and_leaves_no_subnormal(monkeypatch, case):
    """At M = 400 the deep pipeline with every expansion cut at its floor
    degree gives the verdicts of the uncut expansions (the reach raised to
    the cap degree and no further), with block sequences, recovered
    symbols and residuals within roundoff. No expansion it asks for passes
    a floor degree or holds a subnormal value; the uncut ones do both."""
    cut, cut_expansions = _recorded_pipeline(monkeypatch, case)
    monkeypatch.setattr(inner, "expansion_degree", uncut_expansion_degree)
    monkeypatch.setattr(characterize, "expansion_degree", uncut_expansion_degree)
    uncut, uncut_expansions = _recorded_pipeline(monkeypatch, case)

    (D, adtto, blocks, zbar, boundary, analytic) = cut
    (D0, adtto0, blocks0, zbar0, boundary0, analytic0) = uncut
    assert [r.passed for r in adtto.reports] == [r.passed for r in adtto0.reports]
    assert adtto.passed and all(r.passed for r in blocks)
    assert [r.passed for r in blocks] == [r.passed for r in blocks0]
    assert analytic.analytic == analytic0.analytic
    scale = max(float(np.abs(b).max()) for b in D0.blocks())
    for b, b0 in zip(D.blocks(), D0.blocks()):
        assert np.abs(b - b0).max() <= 1e-15 * scale
    for (symbol, residual), (symbol0, residual0) in ((zbar, zbar0), (boundary, boundary0)):
        assert _max_gap(symbol.value, symbol0.value) <= 1e-15 * scale
        assert residual <= 1e-12 and residual0 <= 1e-12

    assert all(n <= B.floor_degree for B, n, _ in cut_expansions)
    assert sum(_subnormal_count(p) for _, _, p in cut_expansions) == 0
    assert any(n > B.floor_degree for B, n, _ in uncut_expansions)
    assert sum(_subnormal_count(p) for _, _, p in uncut_expansions) > 0
