"""Band-coefficient kernels built on numpy.

The two hot loops of the Laurent arithmetic: full linear convolution of
coefficient arrays (products) and the aligned conjugate dot product
(inner products). Also the one setting of the numeric backend that msolab
makes: BLAS on one thread over a command or a suite (`one_blas_thread`).
"""

import ctypes
from contextlib import contextmanager

import numpy as np


def convolve(a, b):
    """Full linear convolution of two coefficient arrays."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.complex128)
    return np.convolve(np.asarray(a, dtype=np.complex128),
                       np.asarray(b, dtype=np.complex128))


def inner_shifted(a, b, d):
    """Sum of a[i] * conj(b[i + d]) over the overlapping index range."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    i0 = max(0, -d)
    i1 = min(len(a), len(b) - d)
    if i1 <= i0:
        return 0j
    return complex(np.vdot(b[i0 + d:i1 + d], a[i0:i1]))


def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None where numpy links another BLAS. dlsym searches the
    extension module's dependencies, so the library needs no path."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Run the body with BLAS on one thread and restore the caller's count
    on exit, also when the body raises.

    The many small dense products of the checks gain nothing from a second
    BLAS thread, which only spins, and a multithreaded BLAS may sum in
    another order, so a report would depend on the thread count. The pin
    overrides OPENBLAS_NUM_THREADS and acts on the whole process while the
    body runs. Under a BLAS other than numpy's bundled OpenBLAS it does
    nothing.
    """
    threads = openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
