"""The band kernels against schoolbook oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msolab import kernels

complex_arrays = arrays(
    np.complex128, st.integers(0, 40),
    elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False))


def conv_oracle(a, b):
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.complex128)
    out = np.zeros(len(a) + len(b) - 1, dtype=np.complex128)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@given(a=complex_arrays, b=complex_arrays)
@settings(max_examples=60, deadline=None)
def test_convolve_matches_oracle(a, b):
    expected = conv_oracle(a, b)
    got = kernels.convolve(a, b)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, atol=1e-9, rtol=1e-9)


@given(a=complex_arrays, b=complex_arrays, d=st.integers(-45, 45))
@settings(max_examples=60, deadline=None)
def test_inner_shifted_implementations_agree(a, b, d):
    expected = sum(a[i] * np.conj(b[i + d])
                   for i in range(max(0, -d), min(len(a), len(b) - d)))
    scale = max(1.0, float(np.sum(np.abs(a)) * (np.max(np.abs(b)) if len(b) else 0)))
    got = kernels.inner_shifted(a, b, d)
    assert got == pytest.approx(complex(expected), abs=1e-12 * scale)


def test_empty_inputs():
    empty = np.zeros(0, dtype=np.complex128)
    one = np.ones(3, dtype=np.complex128)
    assert kernels.convolve(empty, one).shape == (0,)
    assert kernels.inner_shifted(empty, one, 0) == 0j
    assert kernels.inner_shifted(one, one, 5) == 0j


def test_one_blas_thread_restores_the_count_when_the_body_raises(openblas):
    get, set_ = openblas
    set_(2)
    with pytest.raises(ZeroDivisionError):
        with kernels.one_blas_thread():
            assert get() == 1
            with kernels.one_blas_thread():
                assert get() == 1
            assert get() == 1
            1 / 0
    assert get() == 2
