import cmath
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msolab.errors import InputError
from msolab.inner import BlaschkeProduct, expand
from msolab.laurent import (_ZERO, MAX_DEGREE, LaurentPolynomial, _trim,
                            conj_function, inner_product, involution_J,
                            minus_part, monomial, multiply, one, plus_part,
                            project_band)

from conftest import assert_poly_close, random_poly
from oracles import sparse_to_json

# -- multiply -----------------------------------------------------------------

def test_multiply_polynomial_identity():
    f = LaurentPolynomial({0: 1, 1: 1})
    g = LaurentPolynomial({0: 1, 1: -1})
    assert multiply(f, g).coeffs == {0: (1 + 0j), 2: (-1 + 0j)}


def test_multiply_inverse_monomials():
    assert multiply(monomial(-1), monomial(1)).coeffs == {0: (1 + 0j)}


def test_multiply_convolution_oracle():
    f = LaurentPolynomial({1: 1, -1: 2})
    out = multiply(f, monomial(2))
    assert out.coeffs == {3: (1 + 0j), 1: (2 + 0j)}


def test_multiply_band():
    f = LaurentPolynomial({-2: 1, 3: 1})
    g = LaurentPolynomial({1: 2})
    assert multiply(f, g).band == (-1, 4)


def test_multiply_commutes_and_associates(rng):
    f, g, h = (random_poly(rng, -4, 4) for _ in range(3))
    assert_poly_close(multiply(f, g), multiply(g, f), 1e-12)
    assert_poly_close(multiply(multiply(f, g), h),
                      multiply(f, multiply(g, h)), 1e-9)


def test_pointwise_multiplicativity(rng):
    f = random_poly(rng, -5, 5)
    g = random_poly(rng, -3, 6)
    fg = multiply(f, g)
    for k in range(16):
        zeta = cmath.exp(2j * cmath.pi * k / 16)
        assert fg.evaluate(zeta) == pytest.approx(
            f.evaluate(zeta) * g.evaluate(zeta), abs=1e-10)


# -- inner product ------------------------------------------------------------

def test_inner_product_examples():
    assert inner_product(monomial(1), monomial(1)) == 1
    assert inner_product(LaurentPolynomial({0: 1, 1: 1}),
                         LaurentPolynomial({0: 1, 1: -1})) == 0
    assert inner_product(monomial(1), one()) == 0


def test_inner_product_sesquilinear(rng):
    f, g = random_poly(rng), random_poly(rng)
    lam = 0.7 - 1.3j
    assert inner_product(f.scale(lam), g) == pytest.approx(
        lam * inner_product(f, g))
    assert inner_product(f, g.scale(lam)) == pytest.approx(
        np.conj(lam) * inner_product(f, g))
    assert inner_product(g, f) == pytest.approx(np.conj(inner_product(f, g)))


def test_parseval_against_quadrature(rng):
    # coefficient pairing == trapezoid quadrature of f * conj(g) over the
    # circle, exact for trig polynomials sampled densely enough
    f = random_poly(rng, -32, 32)
    g = random_poly(rng, -32, 32)
    n = 512
    quad = sum(f.evaluate(z) * np.conj(g.evaluate(z))
               for z in (cmath.exp(2j * cmath.pi * k / n) for k in range(n))) / n
    assert inner_product(f, g) == pytest.approx(quad, abs=1e-12 * max(1, f.norm() * g.norm()))


# -- band projections ---------------------------------------------------------

def test_projection_examples():
    f = LaurentPolynomial({-1: 1, 0: 1, 1: 1})
    assert plus_part(f).coeffs == {0: (1 + 0j), 1: (1 + 0j)}
    assert minus_part(monomial(-2)).coeffs == {-2: (1 + 0j)}
    assert minus_part(monomial(3)).is_zero()


def test_projection_idempotent_and_contractive(rng):
    f = random_poly(rng)
    p = project_band(f, -2, 3)
    assert_poly_close(project_band(p, -2, 3), p, 0)
    assert p.norm() <= f.norm() + 1e-15


def test_projection_self_adjoint(rng):
    f, g = random_poly(rng), random_poly(rng)
    assert inner_product(project_band(f, -3, 2), g) == pytest.approx(
        inner_product(f, project_band(g, -3, 2)), abs=1e-12)


def test_projection_rejects_empty_band():
    with pytest.raises(InputError):
        project_band(one(), 3, 1)


# -- involutions --------------------------------------------------------------

def test_involution_J_examples():
    assert involution_J(one()).coeffs == {-1: (1 + 0j)}
    assert involution_J(monomial(-2)).coeffs == {1: (1 + 0j)}


def test_involution_J_is_involution(rng):
    f = random_poly(rng)
    assert_poly_close(involution_J(involution_J(f)), f, 0)


def test_involution_J_antiunitary(rng):
    f, g = random_poly(rng), random_poly(rng)
    assert inner_product(involution_J(f), involution_J(g)) == pytest.approx(
        inner_product(g, f), abs=1e-12)


def test_involution_J_swaps_halves(rng):
    f = random_poly(rng, 0, 5)
    assert involution_J(f).hi <= -1
    g = random_poly(rng, -5, -1)
    assert involution_J(g).lo >= 0


def test_conj_function_examples():
    assert conj_function(monomial(1)).coeffs == {-1: (1 + 0j)}
    assert conj_function(LaurentPolynomial({0: 1, 1: 1j})).coeffs == \
        {0: (1 + 0j), -1: (0 - 1j)}


def test_conj_function_involution(rng):
    f = random_poly(rng)
    assert_poly_close(conj_function(conj_function(f)), f, 0)
    for k in range(8):
        zeta = cmath.exp(2j * cmath.pi * k / 8)
        assert conj_function(f).evaluate(zeta) == pytest.approx(
            np.conj(f.evaluate(zeta)))


# -- encoding and plumbing ------------------------------------------------------

def test_json_round_trip(rng):
    f = random_poly(rng)
    assert_poly_close(LaurentPolynomial.from_json(f.to_json()), f, 0)


# every finite float64, with signed zeros and the smallest subnormals drawn often
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                   st.floats(allow_nan=False, allow_infinity=False))
COEFFICIENTS = st.builds(complex, FLOATS, FLOATS).filter(lambda c: c != 0)


def _bits(values) -> list:
    return np.asarray(values, dtype=np.complex128).view(np.int64).tolist()


@given(st.dictionaries(st.integers(-8, 8), COEFFICIENTS, max_size=6))
def test_json_round_trip_keeps_every_bit(coeffs):
    """Zeros inside the band are not written and read back as +0.0, as the
    constructor stores them; every written coefficient keeps its bits."""
    f = LaurentPolynomial(coeffs)
    g = LaurentPolynomial.from_json(f.to_json())
    assert g.band == f.band
    assert _bits(g.dense(g.lo, g.hi)) == _bits(f.dense(f.lo, f.hi))


# dense bands with zeros of either sign inside and at the ends (trimmed away)
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]), FLOATS)


@given(st.integers(-MAX_DEGREE, MAX_DEGREE - 12),
       st.lists(st.builds(complex, PARTS, PARTS), max_size=12))
def test_json_matches_the_sparse_route(lo, data):
    """to_json gives the payload of the sparse coefficient dict byte for
    byte: every nonzero coefficient by degree, signed zeros and subnormals
    as they are, zeros inside the band left out."""
    f = LaurentPolynomial._from_dense(lo, np.array(data, dtype=np.complex128))
    assert json.dumps(f.to_json()) == json.dumps(sparse_to_json(f))


def test_json_leaves_out_zeros_inside_the_band():
    f = LaurentPolynomial._from_dense(-2, np.array([1j, -0.0, complex(-0.0, 0.0),
                                                    complex(0.0, -5e-324), -2.5]))
    assert f.to_json() == {"coeffs": [[-2, 0.0, 1.0], [1, 0.0, -5e-324],
                                      [2, -2.5, 0.0]]}
    assert LaurentPolynomial().to_json() == {"coeffs": []}


ZERO_PARTS = st.one_of(st.sampled_from([-0.0, -5e-324]), st.floats(-0.6, 0.6))


@given(st.lists(st.builds(complex, ZERO_PARTS, ZERO_PARTS), min_size=1, max_size=4),
       st.sampled_from([1.0, -1.0, 1j, -1j, complex(1.0, -0.0), complex(-0.0, 1.0),
                        cmath.exp(0.7j)]))
def test_blaschke_json_round_trip_keeps_every_bit(zeros, constant):
    b = BlaschkeProduct(zeros, constant)
    c = BlaschkeProduct.from_json(b.to_json())
    assert _bits([*c.zeros, c.constant]) == _bits([*b.zeros, b.constant])


def test_blaschke_json_writes_near_boundary_only_on_request():
    """The key appears only when true, so every other payload is unchanged,
    and a near-boundary product reads back."""
    assert BlaschkeProduct([0.5]).to_json() == {"zeros": [[0.5, 0.0]],
                                                "constant": [1.0, 0.0]}
    near = BlaschkeProduct([0.96j], allow_near_boundary=True)
    assert near.to_json()["allow_near_boundary"] is True
    again = BlaschkeProduct.from_json(json.loads(json.dumps(near.to_json())))
    assert again == near and again.allow_near_boundary


def test_repeated_degrees_sum_from_their_first_value():
    f = LaurentPolynomial.from_json({"coeffs": [[1, -0.0, 2.0], [0, 1.0, -0.0],
                                                [1, 1.0, -0.0], [1, -0.0, -0.0]]})
    assert _bits([f.coeff(0), f.coeff(1)]) == _bits([complex(1.0, -0.0), complex(1.0, 2.0)])
    lone = LaurentPolynomial.from_json({"coeffs": [[2, -0.0, -0.5]]})
    assert np.signbit(lone.coeff(2).real)


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        LaurentPolynomial.from_json({"nope": []})
    with pytest.raises(InputError):
        LaurentPolynomial.from_json({"coeffs": [["x", 1]]})


def test_json_degree_cap():
    edge = LaurentPolynomial.from_json(
        {"coeffs": [[-MAX_DEGREE, 1, 0], [MAX_DEGREE, 1, 0]]})
    assert edge.band == (-MAX_DEGREE, MAX_DEGREE)
    for k in (MAX_DEGREE + 1, -(MAX_DEGREE + 1)):
        with pytest.raises(InputError, match="MAX_DEGREE"):
            LaurentPolynomial.from_json({"coeffs": [[0, 1, 0], [k, 1, 0]]})


def test_zero_polynomial_behaviour():
    z = LaurentPolynomial()
    assert z.is_zero() and z.norm() == 0
    assert multiply(z, one()).is_zero()
    assert inner_product(z, one()) == 0
    assert (z + one()).coeffs == {0: (1 + 0j)}


def test_band_trimming():
    f = LaurentPolynomial({-3: 0.0, 0: 1.0, 5: 0.0})
    assert f.band == (0, 0)


def _trim_by_nonzero(lo, data):
    """_trim through np.nonzero on every array."""
    nz = np.nonzero(data)[0]
    if len(nz) == 0:
        return 0, _ZERO
    return lo + int(nz[0]), data[nz[0]:nz[-1] + 1]


@pytest.mark.parametrize("data", [
    [], [0], [2.5], [0, 0, 0], [1, 0, 2j], [0, 1, 2], [1, 2, 0], [0, 1j, 0],
    [0, 0, 1, 0, 3, 0, 0], [-0.0, 1e-300, -0.0], [1e-300, 0, -1e-300],
])
def test_trim_matches_nonzero_route(data):
    arr = np.array(data, dtype=np.complex128)
    for lo in (-4, 0, 7):
        got_lo, got = _trim(lo, arr)
        want_lo, want = _trim_by_nonzero(lo, arr)
        assert got_lo == want_lo and got.tobytes() == want.tobytes()


def test_norm_sq_is_bit_identical(rng):
    th = expand(BlaschkeProduct([0.5j, -0.3]))
    polys = [random_poly(rng, -5, 7), LaurentPolynomial(), monomial(3, 2j), th]
    for f in polys:
        want = float(np.sum(np.abs(f._data) ** 2))
        assert f.norm_sq() == want
        assert f.norm() == want ** 0.5
