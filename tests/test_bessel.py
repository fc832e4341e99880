import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import trapezoid

from floquetlib.bessel import bessel_j

FIRST_J0_ROOT = 2.404825557695773


def quad_bessel(n, x, points=20001):
    """Independent oracle: J_n(x) = (1/pi) int_0^pi cos(n t - x sin t) dt."""
    ts = np.linspace(0.0, np.pi, points)
    return trapezoid(np.cos(n * ts - x * np.sin(ts)), ts) / np.pi


def test_zero_argument():
    assert bessel_j(0, 0.0) == 1.0
    for n in range(1, 8):
        assert bessel_j(n, 0.0) == 0.0


def test_first_root_of_j0():
    assert abs(bessel_j(0, FIRST_J0_ROOT)) < 1e-10
    assert abs(special.jn_zeros(0, 1)[0] - FIRST_J0_ROOT) < 1e-13


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 9, 14])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.0, 5.0, 12.0, 27.0, 50.0, 200.0])
def test_against_integral_representation(n, x):
    ref = quad_bessel(n, x)
    assert abs(bessel_j(n, x) - ref) < 1e-12 * max(1.0, abs(ref))


def test_against_scipy_grid():
    from scipy.special import jv

    for n in range(0, 25):
        for x in [0.05, 0.7, 1.7, 3.3, 8.0, 19.5, 41.0]:
            ref = jv(n, x)
            tol = 1e-12 * max(abs(ref), 1e-3)
            assert abs(bessel_j(n, x) - ref) < tol


def test_negative_order_and_argument():
    for n in range(0, 6):
        for x in [0.4, 2.9]:
            assert bessel_j(-n, x) == pytest.approx((-1.0) ** n * bessel_j(n, x), abs=1e-15)
            assert bessel_j(n, -x) == pytest.approx((-1.0) ** n * bessel_j(n, x), abs=1e-15)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_argument_outside_domain_rejected(x):
    with pytest.raises(ValueError):
        bessel_j(0, x)
    with pytest.raises(ValueError):
        bessel_j(np.arange(3), np.array([1.0, x, 2.0]))


@pytest.mark.parametrize("n", [1.5, -0.5, np.array([0, 1, 2.5]), math.nan],
                         ids=["1.5", "-0.5", "array", "nan"])
def test_fractional_order_rejected(n):
    with pytest.raises(ValueError):
        bessel_j(n, 1.0)


def test_integral_float_order_accepted():
    assert bessel_j(2.0, 1.3) == bessel_j(2, 1.3)


def test_order_array_equals_scalar_calls():
    ns = np.arange(-23, 24)
    for x in (0.0, 0.4, 1.0, 7.5, -3.2):
        values = bessel_j(ns, x)
        assert values.shape == ns.shape
        assert np.array_equal(values, [bessel_j(int(n), x) for n in ns])
    xs = np.array([0.2, 1.0, 9.0])
    assert np.array_equal(bessel_j(3, xs), [bessel_j(3, float(x)) for x in xs])


def test_sum_identity_at_fixed_point():
    x = 1.7
    total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(n, x) ** 2 for n in range(1, 40))
    assert abs(total - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
def test_sum_identity(x):
    # J_n(x) is negligible once n passes x + 6 x^(1/3) + 10
    total = bessel_j(0, x) ** 2 + 2.0 * np.sum(bessel_j(np.arange(1, int(x) + 60), x) ** 2)
    assert abs(total - 1.0) < 1e-11


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=20),
       st.floats(min_value=1e-3, max_value=200.0, allow_nan=False))
def test_recurrence(n, x):
    # J_{n-1} + J_{n+1} = (2n/x) J_n
    lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
    rhs = 2.0 * n / x * bessel_j(n, x)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
