"""Kernel weight: breakpoints, closed-form moments against numeric
integration, and the integral identity residual."""

import math

import mpmath
import pytest

from conftest import random_interval, random_x
from quadcert.errors import ParameterError
from quadcert.functions import Interval, parse_function_spec
from quadcert.kernel import KernelSpec, identity_residual, kernel_lp_moment
from quadcert.oracle import integrate


def numeric_moment(ks, p=1.0, tol=1e-13):
    """Independent oracle: integrate |weight|**p piece by piece (the weight
    jumps at the breakpoints, so each smooth piece is integrated alone)."""
    pieces = (
        (0.0, ks.t1, lambda t: (t * t) ** p),
        (ks.t1, ks.t2, lambda t: ((t - 0.5) ** 2) ** p),
        (ks.t2, 1.0, lambda t: ((t - 1.0) ** 2) ** p),
    )
    return sum(integrate(g, lo, hi, tol).value for lo, hi, g in pieces if hi > lo)


def test_continuity_at_quarter_point():
    """The pieces agree at the breakpoints exactly when x = (a + 3b)/4
    (t1 = 1/4); elsewhere the weight genuinely jumps."""
    iv = Interval(0.0, 2.0)
    x = (iv.a + 3.0 * iv.b) / 4.0
    ks = KernelSpec(iv, x)
    assert ks.t1 ** 2 == pytest.approx((ks.t1 - 0.5) ** 2, abs=1e-15)
    assert (ks.t2 - 0.5) ** 2 == pytest.approx((ks.t2 - 1.0) ** 2, abs=1e-15)
    jumpy = KernelSpec(Interval(0.0, 1.0), 0.9)
    assert abs(jumpy.t1 ** 2 - (jumpy.t1 - 0.5) ** 2) > 0.1


@pytest.mark.parametrize(
    "x,expected",
    [(0.75, 1.0 / 48.0), (1.0, 1.0 / 12.0), (0.5, 1.0 / 12.0)],
)
def test_abs_moment_frozen_values(x, expected):
    ks = KernelSpec(Interval(0.0, 1.0), x)
    assert kernel_lp_moment(ks, 1.0) == pytest.approx(expected, abs=1e-15)
    assert numeric_moment(ks) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "x,p,expected",
    [(1.0, 2.0, 1.0 / 80.0), (0.75, 1.0, 1.0 / 48.0), (0.5, 3.0, 2.0 / (7.0 * 2.0 ** 7))],
)
def test_lp_moment_frozen_values(x, p, expected):
    ks = KernelSpec(Interval(0.0, 1.0), x)
    assert kernel_lp_moment(ks, p) == pytest.approx(expected, abs=1e-15)
    assert numeric_moment(ks, p) == pytest.approx(expected, abs=1e-12)


def test_moments_match_numeric_integration(rng):
    for _ in range(10):
        iv = random_interval(rng, -2.0, 3.0)
        ks = KernelSpec(iv, random_x(rng, iv))
        for p in (1.0, 1.5, 2.0, 3.0):
            assert kernel_lp_moment(ks, p) == pytest.approx(numeric_moment(ks, p), abs=1e-12)


def test_moments_match_mpmath(rng):
    """The scale-free moments stay within a few ulps of the exact moment,
    also on short intervals far from 0, where b - x and x - mid lose bits,
    and stay real at x = midpoint, where t2 - 1/2 can round below 0."""
    with mpmath.workdps(50):
        for _ in range(200):
            a = float(rng.uniform(-3.0, 3.0))
            iv = Interval(a, a + 10.0 ** float(rng.uniform(-3.0, math.log10(5.0))))
            for ks in (KernelSpec(iv, random_x(rng, iv)), KernelSpec(iv, iv.midpoint)):
                a, b, x = map(mpmath.mpf, (iv.a, iv.b, ks.x))
                for p in (1.0, 1.25, 2.0, 3.0):
                    e = 2 * mpmath.mpf(p) + 1
                    exact = 2 / (e * (b - a) ** e) * ((b - x) ** e + abs(x - (a + b) / 2) ** e)
                    got = kernel_lp_moment(ks, p)
                    assert isinstance(got, float)
                    assert abs(got - exact) <= 64 * math.ulp(float(exact)), (iv, ks.x, p)


@pytest.mark.parametrize("p,expected", [
    pytest.param(1.0, 1.0 / 12.0, id="kernel-abs-moment"),
    pytest.param(2.0, 0.0125, id="kernel-lp-moment"),
])
def test_moments_are_scale_free(p, expected):
    """A moment is finite where (b-a)^3 is not: on [0, 1e200] at x = b."""
    assert kernel_lp_moment(KernelSpec(Interval(0.0, 1e200), 1e200), p) == expected


def test_breakpoint_invariants(rng):
    for _ in range(50):
        iv = random_interval(rng, -2.0, 3.0)
        ks = KernelSpec(iv, random_x(rng, iv))
        assert 0.0 <= ks.t1 <= 0.5 + 1e-15
        assert 0.5 - 1e-15 <= ks.t2 <= 1.0
        assert ks.t1 + ks.t2 == pytest.approx(1.0, abs=5e-16)


def test_identity_residual_registry(corpus, rng):
    for ft, lo, hi in corpus:
        for _ in range(5):
            iv = random_interval(rng, lo + 0.05, hi - 0.05)
            ks = KernelSpec(iv, random_x(rng, iv))
            assert abs(identity_residual(ft, ks)) <= 1e-9


@pytest.mark.parametrize(
    "spec,a,b,x",
    [("power:3", 0.0, 1.0, 0.8), ("exp", 0.0, 1.0, 0.6), ("reciprocal", 1.0, 2.0, 1.75)],
)
def test_identity_residual_examples(spec, a, b, x):
    ft = parse_function_spec(spec)
    assert abs(identity_residual(ft, KernelSpec(Interval(a, b), x))) <= 1e-9


def test_validation():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ParameterError):
        KernelSpec(iv, 0.25)  # left of the midpoint
    with pytest.raises(ParameterError):
        KernelSpec(iv, 1.25)
    ks = KernelSpec(iv, 0.75)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="must be finite and >= 1"):
            kernel_lp_moment(ks, p)
