"""Rule values: hand-computed examples, specialization identities, and
exactness on degree <= 1 polynomials."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_interval, random_x, single_cases
from quadcert.bounds import bound_convex, bound_power_mean
from quadcert.errors import ParameterError
from quadcert.functions import Interval, parse_function_spec, register_builtin
from quadcert.oracle import integrate
from quadcert.rules import (
    generalized_rule,
    midpoint_rule,
    perturbed_trapezoid_rule,
    trapezoid_rule,
)


def test_generalized_examples():
    ft = register_builtin("power", [2.0])
    iv = Interval(0.0, 1.0)
    assert generalized_rule(ft, iv, 0.75).value_avg == pytest.approx(0.3125, abs=1e-15)
    assert generalized_rule(ft, iv, 1.0).value_avg == pytest.approx(0.25, abs=1e-15)


def test_generalized_collapses_to_midpoint(corpus, rng):
    for ft, lo, hi in corpus:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        got = generalized_rule(ft, iv, iv.midpoint)
        assert got.value_avg == pytest.approx(ft.f(iv.midpoint), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize(
    "spec,a,b,expected",
    [
        ("power:2", 0.0, 1.0, 0.25),
        ("reciprocal", 1.0, 2.0, 2.0 / 3.0),
        ("exp", 0.0, 1.0, math.exp(0.5)),
    ],
)
def test_midpoint_examples(spec, a, b, expected):
    rule = midpoint_rule(parse_function_spec(spec), Interval(a, b))
    assert rule.value_avg == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "spec,a,b,expected",
    [
        ("power:2", 0.0, 1.0, 0.5),
        ("reciprocal", 1.0, 2.0, 0.75),
        ("neglog", 1.0, 2.0, -math.log(2.0) / 2.0),
    ],
)
def test_trapezoid_examples(spec, a, b, expected):
    rule = trapezoid_rule(parse_function_spec(spec), Interval(a, b))
    assert rule.value_avg == pytest.approx(expected, rel=1e-15)


def test_perturbed_trapezoid_examples():
    assert perturbed_trapezoid_rule(
        register_builtin("power", [2.0]), Interval(0.0, 1.0)
    ).value_total == pytest.approx(0.25, abs=1e-15)
    # exact for linear functions, perturbation identically zero
    assert perturbed_trapezoid_rule(
        register_builtin("poly", [2.0, 1.0]), Interval(0.0, 3.0)
    ).value_total == pytest.approx(12.0, abs=1e-13)
    assert perturbed_trapezoid_rule(
        register_builtin("exp"), Interval(0.0, 1.0)
    ).value_total == pytest.approx((1.0 + math.e) / 2.0 - (math.e - 1.0) / 8.0, rel=1e-15)


def test_specializations(corpus, rng):
    """generalized(x = midpoint) is the midpoint rule; generalized(x = b)
    is the perturbed trapezoid rule."""
    for ft, lo, hi in corpus:
        for _ in range(5):
            iv = random_interval(rng, lo + 0.05, hi - 0.05)
            g_mid = generalized_rule(ft, iv, iv.midpoint)
            g_right = generalized_rule(ft, iv, iv.b)
            assert g_mid.value_avg == pytest.approx(
                midpoint_rule(ft, iv).value_avg, rel=1e-14, abs=1e-15)
            assert g_right.value_total == pytest.approx(
                perturbed_trapezoid_rule(ft, iv).value_total, rel=1e-14, abs=1e-15)


def test_exact_for_linear(rng):
    ft = register_builtin("poly", [3.0, -1.0])  # 3x - 1
    for _ in range(10):
        iv = random_interval(rng, -2.0, 2.0)
        x = random_x(rng, iv)
        avg = integrate(ft.f, iv.a, iv.b).value / iv.length
        assert generalized_rule(ft, iv, x).value_avg == pytest.approx(avg, rel=1e-14, abs=1e-14)


def test_total_avg_consistency(corpus, rng):
    for ft, lo, hi in corpus:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        x = random_x(rng, iv)
        for rule in (generalized_rule(ft, iv, x), midpoint_rule(ft, iv),
                     trapezoid_rule(ft, iv), perturbed_trapezoid_rule(ft, iv)):
            assert rule.value_total == pytest.approx(rule.value_avg * iv.length, rel=1e-15)


def test_x_out_of_range():
    ft = register_builtin("power", [2.0])
    iv = Interval(0.0, 1.0)
    with pytest.raises(ParameterError):
        generalized_rule(ft, iv, 0.25)
    with pytest.raises(ParameterError):
        generalized_rule(ft, iv, 1.5)


def _scalar_reference(ft, iv, x, q):
    """The scalar formulas the single-interval rules and certificates used
    before they ran the composite's column formulas, each as (total, the
    shift allowed from it): generalized rule, perturbed trapezoid rule,
    convex bound, power-mean bound. The allowed shift is 1e-14 of the
    magnitude of the terms."""
    a, b, h = iv.a, iv.b, iv.length
    mirror = a if x == b else a + b - x
    u, v, du, dv = ft.f(x), ft.f(mirror), ft.f1(x), ft.f1(mirror)
    slope = 0.5 * (x - (a + 3.0 * b) / 4.0)
    generalized = ((0.5 * (u + v) - slope * (du - dv)) * h,
                   1e-14 * (0.5 * (abs(u) + abs(v)) + abs(slope) * (abs(du) + abs(dv))) * h)
    fa, fb, da, db = ft.f(a), ft.f(b), ft.f1(a), ft.f1(b)
    trapezoid = ((0.5 * (fa + fb) - h / 8.0 * (db - da)) * h,
                 1e-14 * (0.5 * (abs(fa) + abs(fb)) + h / 8.0 * (abs(db) + abs(da))) * h)
    moment = (b - x) ** 3 + (x - iv.midpoint) ** 3
    ga, gb = abs(ft.f2(a)), abs(ft.f2(b))
    convex = moment * (ga + gb) / (6.0 * h) * h
    power_mean = moment / (3.0 * h) * ((ga ** q + gb ** q) / 2.0) ** (1.0 / q) * h
    return generalized, trapezoid, (convex, 1e-14 * convex), (power_mean, 1e-14 * power_mean)


@settings(max_examples=300, deadline=None)
@given(case=single_cases(), q=st.floats(1.0, 4.0))
def test_column_formulas_move_only_last_bits(case, q):
    """Running the composite's column formulas moves single-interval values
    and bounds by at most 1e-14 of the magnitude of their terms."""
    ft, iv, x = case
    cert = bound_convex(ft, iv, x)
    got = (cert.rule.value_total, perturbed_trapezoid_rule(ft, iv).value_total,
           cert.bound_total, bound_power_mean(ft, iv, x, q).bound_total)
    for new, (old, allowed) in zip(got, _scalar_reference(ft, iv, x, q)):
        assert abs(new - old) <= allowed


@pytest.mark.parametrize("a", [1e-10, 1e-20])
def test_perturbed_trapezoid_takes_f_at_a(a):
    """Near 0, a + b - b is far from a relative to a (0.0 at a = 1e-20);
    the perturbed trapezoid rule still takes f and f' at a itself."""
    ft, iv = register_builtin("reciprocal"), Interval(a, 1.0)
    old = (0.5 * (ft.f(a) + ft.f(1.0)) - iv.length / 8.0 * (ft.f1(1.0) - ft.f1(a))) * iv.length
    assert abs(perturbed_trapezoid_rule(ft, iv).value_total - old) <= 4 * math.ulp(old)
