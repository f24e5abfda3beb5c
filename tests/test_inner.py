import cmath

import numpy as np
import pytest

from msolab import inner
from msolab.errors import InputError
from msolab.inner import (DEFAULT_TAIL_CAP, MAX_EXPANSION_DEGREE, TAIL_FLOOR,
                          BlaschkeProduct, _geometric_degree, _tm_basis_wrapped,
                          cut_below_floor, expand, expansion_degree, monomial_inner,
                          tm_basis)
from msolab.laurent import (MAX_DEGREE, LaurentPolynomial, inner_product, monomial,
                            multiply)
from msolab.operators import MAX_DEPTH

from conftest import assert_poly_close
from oracles import (gram_defect, uncut_expand, uncut_expansion_degree,
                     verify_inner)


def test_construction_validation():
    with pytest.raises(InputError, match="constant inner function"):
        BlaschkeProduct([])
    with pytest.raises(InputError, match="zero outside open disk"):
        BlaschkeProduct([1.0])
    with pytest.raises(InputError, match="unimodular"):
        BlaschkeProduct([0.5], constant=2.0)
    with pytest.raises(InputError, match="allow_near_boundary"):
        BlaschkeProduct([0.99])
    BlaschkeProduct([0.99], allow_near_boundary=True)


def test_expand_monomial():
    assert expand(monomial_inner(2), 5).coeffs == {2: (1 + 0j)}


def test_expand_single_zero_series():
    e = expand(BlaschkeProduct([0.5]), 3)
    np.testing.assert_allclose(e.dense(0, 3), [-0.5, 0.75, 0.375, 0.1875])


def test_expand_reaches_the_larger_of_reach_and_cap_degree():
    b = BlaschkeProduct([0.5, -0.3j])
    n = b.cap_degree
    assert expansion_degree(b, 0) == expansion_degree(b, n - 5) == n
    assert expansion_degree(b, n + 7) == n + 7
    assert expand(b).hi == n and expand(b, n + 7).hi == n + 7
    assert b.tail_bound_at(n) <= DEFAULT_TAIL_CAP
    # a reach past the floor stops at it
    floor = b.floor_degree
    assert n + 7 < floor == expansion_degree(b, floor + 7) == expand(b, floor + 7).hi


# a zero at 0 among others, a zero of modulus 1e-300, a repeated zero, and
# one of modulus 0.999, whose floor lies beyond every reach a section needs
_FLOOR_CASES = [[0.5, -0.3j], [0.0, 0.5, 0.3 - 0.6j], [1e-300j], [0.6, 0.6, 0.6],
                [0.7] * 6, [0.999]]


@pytest.mark.parametrize("zeros", _FLOOR_CASES)
def test_expand_stops_where_the_tail_is_below_the_floor(zeros):
    """Past floor_degree the tail has L2 mass at most TAIL_FLOOR, so every
    coefficient it drops, and every move of a kept one, is below it."""
    b = BlaschkeProduct(zeros, allow_near_boundary=True)
    floor = b.floor_degree
    assert b.cap_degree <= floor
    assert b.tail_bound_at(floor) <= TAIL_FLOOR
    reach = floor + 2 * b.degree + 40
    cut, uncut = expand(b, reach), uncut_expand(b, reach)
    assert cut.hi <= floor and uncut.hi <= reach
    kept = np.abs(cut.dense(0, reach) - uncut.dense(0, reach))
    assert kept[:floor + 1].max() <= TAIL_FLOOR
    # the dropped tail, whole and coefficient by coefficient
    assert np.linalg.norm(kept[floor + 1:]) <= TAIL_FLOOR


def test_repeated_zeros_raise_the_floor_past_the_geometric_degree():
    """Three zeros at 0.6 decay like k^2 0.6^k, past the geometric bound's
    rate: cut at its degree, a coefficient above TAIL_FLOOR is dropped."""
    b = BlaschkeProduct([0.6, 0.6, 0.6])
    geometric = _geometric_degree(b, TAIL_FLOOR)
    assert b.floor_degree > geometric
    dropped = uncut_expand(b, 2 * b.floor_degree).dense(geometric + 1, 2 * b.floor_degree)
    assert np.abs(dropped).max() > TAIL_FLOOR


@pytest.mark.parametrize("zeros", _FLOOR_CASES)
def test_a_reach_within_the_floor_is_expanded_uncut(zeros):
    """Up to the floor, expand is the uncut expansion to the bit: past the
    cap, at the floor, and at the reach 2M + 4 of the deepest section where
    the floor lies beyond it, as it does for the zero of modulus 0.999."""
    b = BlaschkeProduct(zeros, allow_near_boundary=True)
    floor = b.floor_degree
    for reach in (0, min(b.cap_degree + 3, floor), floor, min(2 * MAX_DEPTH + 4, floor)):
        assert expansion_degree(b, reach) == uncut_expansion_degree(b, reach)
        cut, uncut = expand(b, reach), uncut_expand(b, reach)
        assert (cut.lo, cut.hi) == (uncut.lo, uncut.hi)
        assert np.array_equal(cut.dense(cut.lo, cut.hi), uncut.dense(cut.lo, cut.hi))


def test_cut_below_floor_drops_only_the_ends_at_the_floor():
    """cut_below_floor drops end coefficients of modulus at most TAIL_FLOOR
    ||p||_2 from both ends, one exactly at it included, keeps the bits of
    every other coefficient, a tiny one inside the band too, and leaves the
    zero function and a function of non-finite norm as they are."""
    middle = [1.0, 0.0, 1e-40, -0.5j, complex(-0.0, 1e-28)]
    floor = TAIL_FLOOR * LaurentPolynomial._from_dense(0, np.array(middle)).norm()
    data = np.array([1e-70, floor, *middle, 1e-50 + 1e-60j, -0.0], dtype=np.complex128)
    p = LaurentPolynomial._from_dense(-3, data)
    assert TAIL_FLOOR * p.norm() == floor
    cut = cut_below_floor(p)
    assert (cut.lo, cut.hi) == (-1, 3)
    assert cut.dense(-1, 3).tobytes() == np.array(middle, dtype=np.complex128).tobytes()
    zero = LaurentPolynomial()
    assert cut_below_floor(zero).is_zero()
    for big in (np.inf, 1e200):
        p = LaurentPolynomial._from_dense(0, np.array([1e-300, big, 1e-300]))
        with np.errstate(over="ignore"):
            assert cut_below_floor(p) is p


def test_monomials_and_tm_basis_are_uncut(monkeypatch):
    """A monomial's floor is its degree and its expansion is exact at every
    reach; tm_basis expands to cap_degree, so the uncut rule gives the same
    vectors to the bit."""
    for m in (1, 3, 40):
        z = monomial_inner(m)
        assert z.cap_degree == z.floor_degree == m
        assert expand(z, 5 * m + 9).coeffs == uncut_expand(z, 5 * m + 9).coeffs == {m: 1}
    zeros = [[0.5, -0.3j], [0.0, 0.5, 0.3 - 0.6j], [0.6, 0.6, 0.6]]
    cut = [tm_basis(BlaschkeProduct(z)) for z in zeros]
    monkeypatch.setattr(inner, "expansion_degree", uncut_expansion_degree)
    for z, basis in zip(zeros, cut):
        uncut = _tm_basis_wrapped.__wrapped__(BlaschkeProduct(z))
        for u, v in zip(basis, uncut):
            assert (u.lo, u.hi) == (v.lo, v.hi)
            assert np.array_equal(u.dense(u.lo, u.hi), v.dense(v.lo, v.hi))


def test_expand_agrees_with_rational_evaluation():
    b = BlaschkeProduct([0.5, 0.3 + 0.4j, -0.2j], constant=cmath.exp(0.7j))
    e = expand(b)
    tail = b.tail_bound_at(expansion_degree(b, 0))
    for k in range(256):
        zeta = cmath.exp(2j * cmath.pi * k / 256)
        assert abs(e.evaluate(zeta) - b.evaluate(zeta)) <= tail + 1e-13


def test_unimodular_on_circle():
    for zeros in ([0.5], [0.5, 0.3 + 0.4j], [0.1, -0.6j, 0.25 + 0.25j]):
        ok, dev, _ = verify_inner(BlaschkeProduct(zeros), samples=256)
        assert ok and dev <= 1e-13


def test_truncated_expansion_fails_unimodularity():
    b = BlaschkeProduct([0.99], allow_near_boundary=True)
    ok, dev, tail = verify_inner(b, expansion_degree=16)
    assert not ok
    assert dev > 0.1
    assert tail > 1.0  # the reported tail bound flags the truncation


def test_evaluations_and_inner_checks_are_python_scalars():
    """Values and verdicts reach reports as Python scalars, never numpy's."""
    b = BlaschkeProduct([0.5, -0.3j])
    zeta = cmath.exp(0.3j)
    assert type(expand(b).evaluate(zeta)) is complex
    assert type(b.evaluate(zeta)) is complex
    for degree in (None, 60, 4):
        check = verify_inner(b, expansion_degree=degree)
        assert [type(x) for x in check] == [bool, float, float]


def test_verify_inner_sample_floor():
    with pytest.raises(InputError):
        verify_inner(monomial_inner(1), samples=4)


def test_tm_basis_monomial():
    basis = tm_basis(monomial_inner(2))
    assert [v.coeffs for v in basis] == [{0: (1 + 0j)}, {1: (1 + 0j)}]


def test_tm_basis_single_zero():
    basis = tm_basis(BlaschkeProduct([0.5]))
    v = basis[0]
    scale = np.sqrt(3) / 2
    for k in range(6):
        assert v.coeff(k) == pytest.approx(scale * 0.5 ** k, abs=1e-13)


def test_tm_basis_recursion_second_vector():
    basis = tm_basis(BlaschkeProduct([0.0, 0.5]))
    assert_poly_close(basis[0], monomial(0), 1e-13)
    v = basis[1]
    assert v.coeff(0) == pytest.approx(0, abs=1e-14)
    for k in range(1, 6):
        assert v.coeff(k) == pytest.approx(np.sqrt(3) / 2 * 0.5 ** (k - 1),
                                           abs=1e-13)


def test_tm_basis_gram_identity():
    for zeros in ([0.5, 0.5], [0.3 + 0.4j, -0.5, 0.2],
                  [0.8, 0.79, -0.8j]):
        basis = tm_basis(BlaschkeProduct(zeros))
        assert gram_defect(basis) <= 1e-11


def test_tm_basis_lies_in_model_space():
    b = BlaschkeProduct([0.5, -0.3j])
    basis = tm_basis(b)
    theta = expand(b)
    # membership: orthogonal to theta * z^k
    worst = max(abs(inner_product(v, multiply(theta, monomial(k))))
                for v in basis for k in range(0, 40))
    assert worst <= 1e-11


def test_json_and_shorthand_parsing():
    b = BlaschkeProduct([0.5, 0.25j], constant=-1.0)
    assert BlaschkeProduct.from_json(b.to_json()) == b
    assert BlaschkeProduct.parse("z^3") == monomial_inner(3)
    assert BlaschkeProduct.parse("z") == monomial_inner(1)
    with pytest.raises(InputError):
        BlaschkeProduct.parse("w^2")


def test_zero_count_cap():
    assert BlaschkeProduct.parse(f"z^{MAX_DEGREE}").degree == MAX_DEGREE
    with pytest.raises(InputError, match="MAX_DEGREE"):
        BlaschkeProduct.parse(f"z^{MAX_DEGREE + 1}")
    with pytest.raises(InputError, match="MAX_DEGREE"):
        BlaschkeProduct.from_json({"zeros": [[0.0, 0.0]] * (MAX_DEGREE + 1)})


@pytest.mark.parametrize("rho, degree", [(0.99, 3446), (0.999, 36832)])
def test_expansion_degree_cap_accepts(rho, degree):
    b = BlaschkeProduct([rho], allow_near_boundary=True)
    assert b.cap_degree == degree <= MAX_EXPANSION_DEGREE


@pytest.mark.parametrize("rho", [0.9999, 0.999999])
def test_expansion_degree_cap_rejects(rho):
    with pytest.raises(InputError, match="MAX_EXPANSION_DEGREE"):
        BlaschkeProduct([rho], allow_near_boundary=True)
    with pytest.raises(InputError, match="MAX_EXPANSION_DEGREE"):
        BlaschkeProduct.from_json({"zeros": [[0.0, rho]],
                                   "allow_near_boundary": True})


def test_hashable_and_monomial_flags():
    assert monomial_inner(2).is_monomial()
    assert not BlaschkeProduct([0.1]).is_monomial()
    assert len({monomial_inner(2), monomial_inner(2), monomial_inner(3)}) == 2
