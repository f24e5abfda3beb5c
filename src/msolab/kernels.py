"""Band-coefficient kernels built on numpy.

The two hot loops of the Laurent arithmetic: full linear convolution of
coefficient arrays (products) and the aligned conjugate dot product
(inner products).
"""

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
