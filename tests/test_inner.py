import cmath

import numpy as np
import pytest

from msolab.errors import InputError
from msolab.inner import (DEFAULT_TAIL_CAP, MAX_EXPANSION_DEGREE, BlaschkeProduct,
                          expand, expansion_degree, monomial_inner, tm_basis)
from msolab.laurent import MAX_DEGREE, inner_product, monomial, multiply

from conftest import assert_poly_close
from oracles import gram_defect, verify_inner


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
