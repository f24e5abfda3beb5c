import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from msolab import characterize, kernels
from msolab.inner import monomial_inner
from msolab.laurent import LaurentPolynomial, monomial
from msolab.operators import build_dtto, split_blocks
from msolab.rng import Xoshiro256StarStar

# The same examples on every run. With no example database the only thing
# hypothesis still stores is a cache of source constants, kept out of the
# checkout.
settings.register_profile("msolab", derandomize=True, database=None)
settings.load_profile("msolab")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "msolab-hypothesis")


def assert_poly_close(f, g, tol=1e-12):
    __tracebackhide__ = True
    d = (f - g).norm()
    if d > tol:
        raise AssertionError(f"polynomials differ by {d:.3e} > {tol:.1e}:"
                             f"\n  {f!r}\n  {g!r}")


def random_poly(r: Xoshiro256StarStar, lo=-6, hi=6, scale=1.0):
    return LaurentPolynomial({k: scale * r.complex_box()
                              for k in range(lo, hi + 1)})


@pytest.fixture
def rng():
    return Xoshiro256StarStar(20250809)


@pytest.fixture
def poly_stream(rng):
    def make(lo=-6, hi=6):
        return random_poly(rng, lo, hi)
    return make


def dense_noise_operator():
    """A depth-10 operator on theta = alpha = z^2 plus seeded dense noise of
    spectral norm 0.5, far from the operator class: every entry of its
    recovery residual is nonzero and the residual is large."""
    D = build_dtto(monomial_inner(2), monomial_inner(2), monomial(1), 10)
    noise = np.random.default_rng(20261019).standard_normal((D.dim, D.dim))
    return split_blocks(D.assemble() + 0.5 * noise / np.linalg.norm(noise, 2),
                        D.theta, D.alpha, D.M)


@pytest.fixture
def rebuilds(monkeypatch):
    """The list of operators recover_symbol rebuilds from here on."""
    rebuilt = []

    def keep(*args):
        rebuilt.append(build_dtto(*args))
        return rebuilt[-1]

    monkeypatch.setattr(characterize, "build_dtto", keep)
    return rebuilt


@pytest.fixture
def openblas():
    """The (get, set) thread-count pair of numpy's bundled OpenBLAS; the
    count is restored after the test. Skips under another BLAS build."""
    threads = kernels.openblas_threads()
    if threads is None:
        pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
    get, set_ = threads
    before = get()
    yield threads
    set_(before)
