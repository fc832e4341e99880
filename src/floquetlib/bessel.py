"""Integer-order Bessel functions of the first kind.

Every Bessel-renormalized quantity in the toolkit (effective hoppings,
drive harmonics) takes J_n(x) from here. `bessel_j` is a broadcasting
front to scipy.special.jv that keeps the toolkit's input contract:
integer orders and finite arguments only. The mode builders call it
once per (hopping, A, n_max) on the whole order array and cache the
result, so a k-grid at one drive computes J_n(A) once. The tests check
it against the standard identities

    J_0(0) = 1,  J_n(0) = 0 (n > 0)
    J_{-n}(x) = (-1)^n J_n(x)
    J_0(x)^2 + 2 sum_{n>=1} J_n(x)^2 = 1

and against the integral representation.
"""

import numpy as np
from scipy import special


def bessel_j(n, x):
    """J_n(x) for integer n and finite x, broadcast over arrays of n and x.

    A fractional order, or a NaN or infinite argument, raises ValueError
    instead of being truncated.
    """
    n = np.asarray(n)
    x = np.asarray(x, dtype=float)
    if not np.all(n % 1 == 0):
        raise ValueError(f"bessel_j needs integer orders, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"bessel_j needs finite arguments, got {x}")
    return special.jv(n, x)
