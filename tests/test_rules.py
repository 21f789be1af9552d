"""Rule values: hand-computed examples, specialization identities, and
exactness on degree <= 1 polynomials."""

import math
from itertools import repeat

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
    mirrored_totals,
    perturbed_trapezoid_rule,
    trapezoid_rule,
    two_point_totals,
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


def _adjacent_floats(start, count):
    """``count`` consecutive floats from ``start`` up."""
    floats = [start]
    while len(floats) < count:
        floats.append(math.nextafter(floats[-1], math.inf))
    return floats


# Strictly increasing nodes of a block: any finite floats, including ones
# where lo + 3hi overflows, multiples of the least subnormal, and adjacent
# floats, where x - (lo + 3hi)/4 can round to 0.
_BLOCK_NODES = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8, unique=True),
    st.lists(st.integers(-40, 40).map(lambda k: k * 5e-324), min_size=2, max_size=8, unique=True),
    st.builds(_adjacent_floats, st.floats(-1e300, 1e300) | st.sampled_from((0.0, 5e-324, 1.0)),
              st.integers(2, 8)),
).map(sorted)
_F_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
                      st.floats(allow_nan=False, allow_infinity=False))


def _assert_mirrored_is_reference(nodes, xs, fx):
    lows, highs = nodes[:-1], nodes[1:]
    reference = two_point_totals(lows, highs, xs, fx, fx, repeat(0.0), repeat(0.0))
    assert list(map(float.hex, mirrored_totals(lows, highs, xs, fx))) == list(
        map(float.hex, reference))


@settings(max_examples=400, deadline=None)
@given(nodes=_BLOCK_NODES, data=st.data())
def test_mirrored_totals_are_two_point_totals(nodes, data):
    """mirrored_totals gives the bits of two_point_totals with f' at 0 on
    both sides, signed zeros and non-finite corrections included, for x
    anywhere in its subinterval."""
    xs = [data.draw(st.one_of(st.sampled_from((lo, hi, 0.5 * (lo + hi))), st.floats(lo, hi))
                    .filter(lambda x, lo=lo, hi=hi: lo <= x <= hi))
          for lo, hi in zip(nodes, nodes[1:])]
    _assert_mirrored_is_reference(nodes, xs, data.draw(st.lists(_F_VALUES, min_size=len(xs),
                                                                max_size=len(xs))))


@pytest.mark.parametrize("nodes,x,correction", [
    ((0.0, 1.0), 0.5, -0.0),
    # h/2 rounds to 0, and x - (lo + 3hi)/4 to 0
    ((5e-324, 1e-323), 1e-323, 0.0),
    ((0.0, 1.0), 1.0, 0.0),
    # lo + 3hi overflows, so the correction is NaN
    ((7e307, 8e307), 7.5e307, math.nan),
])
def test_mirrored_totals_keep_the_zeros_of_two_point_totals(nodes, x, correction):
    """Where f is a zero, the sign of the correction h/2 * (x - (lo + 3hi)/4)
    * 0.0 decides the sign of the value; where it is NaN, so is the value."""
    lo, hi = nodes
    assert float.hex(0.5 * (hi - lo) * (x - (lo + 3.0 * hi) * 0.25) * 0.0) == float.hex(correction)
    for f in (0.0, -0.0, 1.0):
        _assert_mirrored_is_reference(list(nodes), [x], [f])
