"""Composite rules: partition validation, frozen examples, telescoping to
the single-interval rule, validity sweeps, convergence order, and
determinism."""

import math
import operator
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_interval, single_cases
from quadcert import composite
from quadcert._backend import same_column
from quadcert.bounds import bound_convex, bound_power_mean
from quadcert.composite import (
    _BLOCK,
    _in_order,
    XI_POLICIES,
    Partition,
    composite_generalized,
    composite_midpoint,
    composite_perturbed_trapezoid,
)
from quadcert.errors import DomainError, ParameterError
from quadcert.functions import FunctionTriple, Interval, parse_function_spec, register_builtin
from quadcert.oracle import integrate
from quadcert.rules import generalized_rule, mirror_points, perturbed_trapezoid_rule

POWER2 = register_builtin("power", [2.0])


def test_partition_validation():
    with pytest.raises(ParameterError, match="at least two nodes"):
        Partition((0.0,), ())
    with pytest.raises(ParameterError, match="must be finite"):
        Partition((0.0, math.inf), (0.5,))
    with pytest.raises(ParameterError, match="must be finite"):
        Partition((0.0, 1.0, 2.0), (0.75, math.nan))
    with pytest.raises(ParameterError, match=r"strictly increasing, got 0\.0 >= 0\.0$"):
        Partition((0.0, 0.0, 1.0), (0.0, 0.75))
    with pytest.raises(ParameterError, match=r"strictly increasing, got 2\.0 >= 1\.5$"):
        Partition((0.0, 1.0, 2.0, 1.5, 1.0), (0.75, 1.75, 2.0, 1.5))
    with pytest.raises(ParameterError, match=r"^expected 1 intermediate points, got 2$"):
        Partition((0.0, 1.0), (0.75, 0.9))
    # left of the subinterval midpoint
    with pytest.raises(ParameterError,
                       match=r"^xi\[0\]=0\.25 outside the admissible right half \[0\.5, 1\.0\]$"):
        Partition((0.0, 1.0), (0.25,))
    with pytest.raises(ParameterError,
                       match=r"^xi\[0\]=1\.25 outside the admissible right half \[0\.5, 1\.0\]$"):
        Partition((0.0, 1.0), (1.25,))
    # the first offender is named, whichever side of its half it falls
    with pytest.raises(ParameterError,
                       match=r"^xi\[2\]=2\.25 outside the admissible right half \[2\.5, 3\.0\]$"):
        Partition((0.0, 1.0, 2.0, 3.0), (0.75, 1.75, 2.25))
    with pytest.raises(ParameterError,
                       match=r"^xi\[1\]=2\.5 outside the admissible right half \[1\.5, 2\.0\]$"):
        Partition((0.0, 1.0, 2.0, 3.0), (0.75, 2.5, 2.25))
    assert Partition((0, 0.5, 1), (0.25, 0.75)).nodes == (0.0, 0.5, 1.0)
    # a value too large for a float is not finite
    with pytest.raises(ParameterError, match=r"^partition values must be finite$"):
        Partition.uniform(0, 10**400, 4)
    with pytest.raises(ParameterError, match=r"^partition values must be finite$"):
        Partition([0, 10**400], [1])
    with pytest.raises(ParameterError, match=r"^partition values must be finite$"):
        composite_midpoint(POWER2, [0, 10**400])


CONST = register_builtin("poly", [1.0])


def test_wrapper_errors_when_a_midpoint_overflows():
    """Where lo + hi overflows, the wrappers fail on the derived xi."""
    with pytest.raises(ParameterError, match=r"^partition values must be finite$"):
        composite_midpoint(CONST, (0.0, 1e308, 1.5e308))
    with pytest.raises(ParameterError, match=r"^partition values must be finite$"):
        composite_midpoint(CONST, (-1.5e308, -1e308, 0.0))
    with pytest.raises(ParameterError, match=r"^xi\[1\]=1\.5e\+308 outside the admissible "
                                              r"right half \[inf, 1\.5e\+308\]$"):
        composite_perturbed_trapezoid(CONST, (0.0, 1e308, 1.5e308))


def test_uniform_constructor():
    part = Partition.uniform(0.0, 1.0, 4)
    assert part.nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert part.xi == (0.125, 0.375, 0.625, 0.875)
    part = Partition.uniform(0.0, 1.0, 4, xi_policy="right")
    assert part.xi == (0.25, 0.5, 0.75, 1.0)
    r1 = Partition.uniform(0.0, 1.0, 8, xi_policy="random", seed=7)
    r2 = Partition.uniform(0.0, 1.0, 8, xi_policy="random", seed=7)
    assert r1.xi == r2.xi
    assert r1.xi != Partition.uniform(0.0, 1.0, 8, xi_policy="random", seed=8).xi
    with pytest.raises(ParameterError, match=r"^need n >= 1 subintervals, got 0$"):
        Partition.uniform(0.0, 1.0, 0)
    for n in (2.5, "3", 4.0, None):
        with pytest.raises(ParameterError,
                           match=rf"^need an integer number of subintervals, got {n!r}$"):
            Partition.uniform(0.0, 1.0, n)
    with pytest.raises(ParameterError):
        Partition.uniform(0.0, 1.0, 4, xi_policy="left")
    # a seed is admitted as n is: None would reseed from the clock on each draw
    for seed in (None, [1], 7.0, "7"):
        with pytest.raises(ParameterError,
                           match=rf"^need an integer seed, got {re.escape(repr(seed))}$"):
            Partition.uniform(0.0, 1.0, 4, xi_policy="random", seed=seed)
    assert Partition.uniform(0.0, 1.0, 8, "random", seed=np.int64(7)) == r1
    # endpoints of any real type are stored as floats
    for lo, hi in ((0, 1), (Fraction(0), Fraction(1)), (np.float64(0.0), np.float64(1.0))):
        for n in (1, 3, 4):
            part = Partition.uniform(lo, hi, n, "right")
            assert part._nodes == (0.0, 1.0, n)
            assert all(x.__class__ is float for x in part._nodes[:2])
            assert part == Partition.uniform(0.0, 1.0, n, "right")
    as_numpy = Partition.uniform(np.float64(0.5), np.float64(2.0), 6)
    assert as_numpy == Partition.uniform(0.5, 2.0, 6)
    assert all(x.__class__ is float for x in as_numpy.nodes)
    third = Partition.uniform(Fraction(0), Fraction(1), 3, "right")
    assert all(x.__class__ is float for x in third.nodes + third.xi)
    assert third.nodes == (0.0, float(Fraction(1, 3)), float(Fraction(2, 3)), 1.0)


@pytest.mark.parametrize("build", [
    lambda: Partition.uniform("0", "1", 2),
    lambda: Partition(["0", "1"], ["1"]),
    lambda: composite_midpoint(register_builtin("exp"), ["0", "0.5", "1"]),
    lambda: Partition.uniform("x", 1, 4),
    lambda: Partition([0, None], [1]),
    lambda: Partition.uniform(0, 1 + 0j, 4),
    lambda: Partition([0, 1], [b"1"]),
], ids=["uniform str", "given str", "wrapper str", "uniform text", "given None",
        "uniform complex", "given bytes"])
def test_partition_values_must_be_real_numbers(build):
    """Text, bytes, None and complex values are bad input, where float()
    would parse the text and bytes and raise a bare TypeError on the rest."""
    with pytest.raises(ParameterError, match=r"^partition values must be real numbers$"):
        build()


def test_partition_values_of_any_real_type_are_floats():
    part = Partition([0, Fraction(1, 2), np.float32(1.0)], [np.float32(0.5), True])
    assert part.nodes == (0.0, 0.5, 1.0) and part.xi == (0.5, 1.0)
    assert all(x.__class__ is float for x in part.nodes + part.xi)


def test_frozen_examples():
    res = composite_generalized(POWER2, Partition((0.0, 1.0), (1.0,)))
    assert res.approx == pytest.approx(0.25, abs=1e-15)
    assert res.remainder_bound == pytest.approx(1.0 / 12.0, abs=1e-15)

    res = composite_generalized(POWER2, Partition((0.0, 0.5, 1.0), (0.25, 0.75)))
    assert res.approx == pytest.approx(0.3125, abs=1e-15)
    assert res.remainder_bound == pytest.approx(1.0 / 48.0, abs=1e-15)
    assert abs(1.0 / 3.0 - res.approx) == pytest.approx(res.remainder_bound, abs=1e-13)

    linear = register_builtin("poly", [2.0, 1.0])
    res = composite_generalized(linear, Partition((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0)))
    assert res.remainder_bound == 0.0
    assert res.approx == pytest.approx(12.0, abs=1e-13)


def test_perturbed_trapezoid_examples():
    res = composite_perturbed_trapezoid(POWER2, (0.0, 1.0))
    assert res.approx == pytest.approx(0.25, abs=1e-15)
    assert res.remainder_bound == pytest.approx(1.0 / 12.0, abs=1e-15)

    res = composite_perturbed_trapezoid(POWER2, Partition.uniform(0.0, 1.0, 2).nodes)
    assert res.remainder_bound == pytest.approx(1.0 / 48.0, abs=1e-15)
    assert abs(1.0 / 3.0 - res.approx) == pytest.approx(1.0 / 48.0, abs=1e-13)

    ft = register_builtin("exp")
    res = composite_perturbed_trapezoid(ft, Partition.uniform(0.0, 1.0, 4).nodes)
    assert abs((math.e - 1.0) - res.approx) <= res.remainder_bound


def test_midpoint_examples():
    res = composite_midpoint(POWER2, Partition.uniform(0.0, 1.0, 2).nodes)
    assert res.approx == pytest.approx(0.3125, abs=1e-15)
    assert res.remainder_bound == pytest.approx(1.0 / 48.0, abs=1e-15)
    assert abs(1.0 / 3.0 - res.approx) == pytest.approx(1.0 / 48.0, abs=1e-13)

    recip = register_builtin("reciprocal")
    res = composite_midpoint(recip, (1.0, 2.0))
    assert res.approx == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert res.remainder_bound == pytest.approx(0.046875, abs=1e-15)
    assert abs(math.log(2.0) - res.approx) == pytest.approx(0.026480513893278637, abs=1e-12)

    linear = register_builtin("poly", [2.0, 1.0])
    res = composite_midpoint(linear, Partition.uniform(0.0, 3.0, 5).nodes)
    assert abs(12.0 - res.approx) <= res.remainder_bound + 1e-13


@settings(max_examples=300, deadline=None)
@given(case=single_cases())
def test_single_interval_telescopes_to_rule(case):
    """A single-interval rule and certificate are the n = 1 composite, bit
    for bit, and the power-mean certificate at q = 1 is the convex one. The
    perturbed trapezoid rule is the n = 1 composite too: both take the
    mirror of hi as lo itself."""
    ft, iv, x = case
    cert = bound_convex(ft, iv, x)
    res = composite_generalized(ft, Partition((iv.a, iv.b), (x,)))
    assert _bits((cert.rule.value_total, cert.bound_total)) == \
        _bits((res.approx, res.remainder_bound))
    trapezoid = composite_perturbed_trapezoid(ft, (iv.a, iv.b))
    assert _bits((perturbed_trapezoid_rule(ft, iv).value_total,)) == _bits((trapezoid.approx,))
    power_mean = bound_power_mean(ft, iv, x, 1.0)
    assert _bits((power_mean.rule.value_total, power_mean.bound_total)) == \
        _bits((cert.rule.value_total, cert.bound_total))


@pytest.mark.parametrize("a", [1e-10, 1e-20])
def test_mirror_of_the_right_node_is_the_left_node(a):
    """(a + b) - b is 0.0 at a = 1e-20, outside the domain of 1/x, and off
    by ~1e-7 relative at 1e-10; at x = b every rule takes the mirror as a."""
    ft, iv = register_builtin("reciprocal"), Interval(a, 1.0)
    total = perturbed_trapezoid_rule(ft, iv).value_total
    assert _bits((generalized_rule(ft, iv, 1.0).value_total,)) == _bits((total,))
    assert _bits((composite_perturbed_trapezoid(ft, (a, 1.0)).approx,)) == _bits((total,))
    part = Partition((a, 0.5, 1.0), (0.5, 0.75))  # xi = hi in the first subinterval only
    assert _bits(_columns(ft, part)[0][:1]) == _bits(
        (perturbed_trapezoid_rule(ft, Interval(a, 0.5)).value_total,))


def test_validity_sweep(corpus, rng):
    """|integral - approx| <= remainder_bound + n*1e-12 for random
    right-half intermediate points across mesh sizes."""
    for ft, lo, hi in corpus:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        reference = integrate(ft.f, iv.a, iv.b).value
        for n in (1, 2, 4, 16, 64, 256):
            part = Partition.uniform(iv.a, iv.b, n, xi_policy="random",
                                     seed=int(rng.integers(1 << 30)))
            res = composite_generalized(ft, part)
            assert abs(reference - res.approx) <= res.remainder_bound + n * 1e-12


def test_per_interval_consistency():
    ft, nodes = register_builtin("exp"), Partition.uniform(0.0, 1.0, 8).nodes
    res = composite_midpoint(ft, nodes)
    values, bounds = _columns(ft, _wrapped(nodes, "midpoint"))
    assert len(values) == len(bounds) == 8
    assert res.approx == math.fsum(values)
    assert res.remainder_bound == math.fsum(bounds)
    assert all(b >= 0.0 for b in bounds)


# f(x) = sin x as plain callables, outside the registry.
SINE = FunctionTriple("sin", math.sin, math.cos, lambda x: -math.sin(x),
                      -math.inf, math.inf)
# f = f' = -0.0 and f'' = 0.0: its right rows give a column of negative zeros.
NEGATIVE_ZERO = FunctionTriple("negzero", lambda x: -0.0, lambda x: -0.0, lambda x: 0.0,
                               -math.inf, math.inf)


def _reference_uniform(a, b, n, xi_policy, seed):
    """Partition.uniform's nodes and intermediate points by index arithmetic."""
    nodes = tuple(((n - i) * a + i * b) / n for i in range(n + 1))
    if xi_policy == "midpoint":
        xi = tuple(0.5 * (nodes[i] + nodes[i + 1]) for i in range(n))
    elif xi_policy == "right":
        xi = nodes[1:]
    else:
        rng = random.Random(seed)
        xi = tuple(0.5 * (nodes[i] + nodes[i + 1])
                   + rng.random() * (nodes[i + 1] - 0.5 * (nodes[i] + nodes[i + 1]))
                   for i in range(n))
    return nodes, xi


def _uniform_outcome(build):
    """Nodes and points by float.hex, or the type and message of the error."""
    try:
        part = build()
        return _bits(part.nodes), _bits(part.xi)
    except ParameterError as exc:
        return type(exc), str(exc)


_MAX = 1.7976931348623157e308
_UNIFORM_SPANS = st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),  # straddling 0 or not
    # near the ends of the float range: nodes and lo + hi overflow
    st.tuples(st.floats(-_MAX, -1e307) | st.floats(1e307, _MAX),
              st.floats(-_MAX, -1e307) | st.floats(1e307, _MAX)),
    st.tuples(st.floats(-1e-320, 1e-320), st.floats(-1e-320, 1e-320)),  # subnormal
    # a few ulps wide, so that many subintervals cannot all be nonempty
    st.builds(lambda a, k: (a, a + k * math.ulp(a)), st.floats(-1e6, 1e6), st.integers(1, 8)),
)


@settings(max_examples=300, deadline=None)
@given(span=_UNIFORM_SPANS, n=st.integers(1, 40), xi_policy=st.sampled_from(XI_POLICIES),
       seed=st.integers(0, 1 << 30))
@example(span=(1e308, 1.5e308), n=1, xi_policy="midpoint", seed=7)  # lo + hi overflows
@example(span=(1e308, 1.5e308), n=1, xi_policy="right", seed=7)
@example(span=(1e308, 1.5e308), n=1, xi_policy="random", seed=7)
@example(span=(0.0, 1.5e308), n=2, xi_policy="midpoint", seed=7)  # a node overflows
@example(span=(0.0, 1.5e308), n=2, xi_policy="right", seed=7)
@example(span=(0.0, 1.5e308), n=2, xi_policy="random", seed=7)
@example(span=(1.0, 1.0 + 4 * 2**-52), n=8, xi_policy="midpoint", seed=7)  # nodes repeat
@example(span=(1.0, 1.0 + 4 * 2**-52), n=8, xi_policy="right", seed=7)
@example(span=(1.0, 1.0 + 4 * 2**-52), n=8, xi_policy="random", seed=7)
@example(span=(0.0, 5e-323), n=3, xi_policy="midpoint", seed=7)  # subnormal, accepted
@example(span=(0.0, 5e-323), n=3, xi_policy="right", seed=7)
@example(span=(0.0, 5e-323), n=3, xi_policy="random", seed=7)
def test_uniform_matches_validated_points(span, n, xi_policy, seed):
    """Partition.uniform validates its nodes once and draws its points where
    they are used; it accepts exactly the spans whose points, computed in
    full and validated as given points, are accepted, with the same error
    otherwise and bit-equal nodes and points."""
    a, b = sorted(span)
    assume(a < b)
    assert _uniform_outcome(lambda: Partition.uniform(a, b, n, xi_policy, seed)) == \
        _uniform_outcome(lambda: Partition(*_reference_uniform(a, b, n, xi_policy, seed)))


@st.composite
def _near_the_node_bound(draw):
    """(a, b, n) with b - a a few ulps of a, or near the width above which
    `composite._proven_uniform` accepts, 16 * n * (u * M + 2**-1074)."""
    n = draw(st.sampled_from((1, 7, 4097, 10**6)))
    a = draw(st.sampled_from((0.0, -0.0)) | st.floats(5e-324, 1e-307)
             | st.floats(-_MAX, -1e307) | st.floats(1e307, _MAX) | st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        width = draw(st.integers(1, 64)) * math.ulp(a)
    else:
        width = draw(st.floats(0.25, 4.0)) * 16.0 * n * (abs(a) * 2**-53 + 2**-1074)
    return a, a + width, n


@settings(max_examples=60, deadline=None)
@given(span=_near_the_node_bound(), message=st.none())
@example(span=(1.0, math.nextafter(1.0, 2.0), 4),
         message="nodes must be strictly increasing, got 1.0 >= 1.0")
@example(span=(0.0, 1.5e308, 2), message="partition values must be finite")  # a node overflows
@example(span=(1e308, 1.5e308, 1), message="partition values must be finite")  # lo + hi does
@example(span=(-1.5e308, 1.5e308, 1), message=None)  # 4*n*M overflows, the nodes do not
@example(span=(0.0, 5e-323, 3), message=None)  # subnormal: below the bound, yet increasing
def test_node_bound_accepts_only_valid_nodes(span, message):
    """Where the bound accepts (a, b, n), the nodes are finite and strictly
    increasing and lo + hi is finite at both ends. Where it does not, the
    nodes are computed and checked as given nodes are, with their error."""
    a, b, n = span
    assume(a < b and math.isfinite(b))
    if composite._proven_uniform(a, b, n):
        assert message is None
        nodes = Partition.uniform(a, b, n).nodes
        column = np.array(nodes)
        assert np.isfinite(column).all() and (column[:-1] < column[1:]).all()
        assert math.isfinite(nodes[0] + nodes[1]) and math.isfinite(nodes[-2] + nodes[-1])
    elif n <= 4097:
        outcome = _uniform_outcome(lambda: Partition.uniform(a, b, n))
        assert outcome == _uniform_outcome(
            lambda: Partition(*_reference_uniform(a, b, n, "midpoint", 0)))
        if message is not None:
            assert outcome == (ParameterError, message)


def _reference_kernel(ft, part):
    """The rule as a per-subinterval loop with six scalar calls each:
    (approx, remainder_bound, values, bounds)."""
    nodes, points = part.nodes, part.xi  # .xi draws the points on each access
    values, bounds = [], []
    for i in range(len(nodes) - 1):
        lo, hi = nodes[i], nodes[i + 1]
        h = hi - lo
        xi = points[i]
        mirror = lo if xi == hi else lo + hi - xi
        values.append(0.5 * h * (ft.f(xi) + ft.f(mirror))
                      - 0.5 * h * (xi - (lo + 3.0 * hi) / 4.0) * (ft.f1(xi) - ft.f1(mirror)))
        mid = 0.5 * (lo + hi)
        bounds.append(((hi - xi) ** 3 + (xi - mid) ** 3)
                      * (abs(ft.f2(lo)) + abs(ft.f2(hi))) / 6.0)
    return math.fsum(values), math.fsum(bounds), tuple(values), tuple(bounds)


def _telescoped_reference(ft, part):
    """The rule of a stored uniform (a, b, n) right row, n >= 2, with its
    corrections telescoped: (approx, remainder_bound, values, bounds), where
    values is the trapezoid column followed by the row's one correction
    -h^2/8 * (f'(x_n) - f'(x_0)), h = (b - a) / n, and bounds is the
    per-subinterval loop's."""
    a, b, n = part._nodes
    nodes = part.nodes
    values = [0.5 * (hi - lo) * (ft.f(hi) + ft.f(lo)) for lo, hi in zip(nodes, nodes[1:])]
    h = (b - a) / n
    values.append(-(0.125 * h * h * (ft.f1(nodes[-1]) - ft.f1(nodes[0]))))
    bounds = _reference_kernel(ft, part)[3]
    return math.fsum(values), math.fsum(bounds), tuple(values), bounds


def _row_reference(ft, part):
    """The telescoped reference of a stored uniform right row with n >= 2,
    and the per-subinterval loop of every other row."""
    uniform_right = part._xi == ("right", None) and isinstance(part._nodes[-1], int)
    if uniform_right and part._nodes[-1] >= 2:
        return _telescoped_reference(ft, part)
    return _reference_kernel(ft, part)


def _bits(values):
    return tuple(map(float.hex, values))


def _columns(ft, part):
    """The value and bound columns of a row: the kernel's blocks, joined."""
    values, bounds = [], []
    for block_values, block_bounds in composite._block_columns(ft, part):
        values += block_values
        bounds += block_bounds
    return tuple(values), tuple(bounds)


def _wrapped(nodes, policy):
    """The partition `composite_midpoint` ("midpoint") or
    `composite_perturbed_trapezoid` ("right") stores for ``nodes``."""
    return Partition._of_policy(tuple(map(float, nodes)), policy)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000,
                               _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("xi_policy", ["midpoint", "right", "random"])
def test_kernel_matches_per_subinterval_reference(corpus, rng, xi_policy, n):
    """Column-wise partitions and sums are bit-identical to the loop, also
    across block boundaries, and those of a stored uniform right row with
    n >= 2 to the telescoped reference; the wrappers' given nodes keep the
    loop. On [0.1, 0.7] at n = 3, (n * a) / n is not a and (n * b) / n is
    not b, so the end nodes must come from the formula."""
    spans = [(ft, random_interval(rng, lo + 0.05, hi - 0.05))
             for ft, lo, hi in corpus + [(SINE, -3.0, 3.0)]]
    for ft, iv in spans + [(SINE, Interval(0.1, 0.7))]:
        seed = int(rng.integers(1 << 30))
        part = Partition.uniform(iv.a, iv.b, n, xi_policy=xi_policy, seed=seed)
        nodes, xi = _reference_uniform(iv.a, iv.b, n, xi_policy, seed)
        assert _bits(part.nodes) == _bits(nodes)
        assert _bits(part.xi) == _bits(xi)
        loop = _reference_kernel(ft, part)
        rows = [(part, composite_generalized(ft, part), _row_reference(ft, part))]
        if xi_policy == "midpoint":
            rows.append((_wrapped(part.nodes, xi_policy), composite_midpoint(ft, part.nodes), loop))
        elif xi_policy == "right":
            rows.append((_wrapped(part.nodes, xi_policy),
                         composite_perturbed_trapezoid(ft, part.nodes), loop))
        for row, res, (approx, bound, values, bounds) in rows:
            assert _bits((res.approx, res.remainder_bound)) == _bits((approx, bound))
            columns = _columns(ft, row)
            assert _bits(columns[0]) == _bits(values)
            assert _bits(columns[1]) == _bits(bounds)


@pytest.mark.parametrize("xi_policy", XI_POLICIES)
def test_block_columns_read_as_the_reference(xi_policy):
    """The kernel yields its columns one block of at most ``_BLOCK``
    subintervals at a time, bit for bit the reference's, and a right row
    its one correction last, a value without a bound; a result holds its
    two sums and no column."""
    ft = register_builtin("exp")
    part = Partition.uniform(0.5, 2.0, 2 * _BLOCK + 3, xi_policy, seed=5)
    sizes = [(len(values), len(bounds)) for values, bounds in composite._block_columns(ft, part)]
    correction = [(1, 0)] if xi_policy == "right" else []
    assert sizes == [(_BLOCK, _BLOCK), (_BLOCK, _BLOCK), (3, 3)] + correction
    res = composite_generalized(ft, part)
    assert composite.CompositeResult.__slots__ == ("_approx", "_remainder_bound")
    assert not hasattr(res, "values") and not hasattr(res, "bounds")
    _assert_matches_reference(ft, part, res)


def test_right_blocks_among_other_blocks_match_the_reference():
    """Given points at hi in some blocks only: a right block carries f and
    f' at its last node only into a right block that follows it."""
    ft = register_builtin("exp")
    nodes = Partition.uniform(0.5, 2.0, 4 * _BLOCK).nodes
    mids = [0.5 * (lo + hi) for lo, hi in zip(nodes, nodes[1:])]
    xi = nodes[1:_BLOCK + 1] + tuple(mids[_BLOCK:2 * _BLOCK]) + nodes[2 * _BLOCK + 1:]
    part = Partition(nodes, xi)
    _assert_matches_reference(ft, part, composite_generalized(ft, part))


def _assert_matches_reference(ft, part, *results):
    """The kernel's columns over ``part``, and the sums of ``results``, are
    bit for bit the reference's (`_row_reference`)."""
    approx, bound, values, bounds = _row_reference(ft, part)
    columns = _columns(ft, part)
    assert _bits(columns[0]) == _bits(values) and _bits(columns[1]) == _bits(bounds)
    for res in results:
        assert _bits((res.approx, res.remainder_bound)) == _bits((approx, bound))


def _midpoint_partition(nodes):
    """The given-points partition of the midpoints of ``nodes``."""
    return Partition(nodes, [0.5 * (lo + hi) for lo, hi in zip(nodes, nodes[1:])])


def test_adjacent_float_midpoints_match_the_reference():
    """Between adjacent floats, lo + hi rounds to 2*lo or 2*hi, so each
    midpoint is lo or hi, and where it is hi its mirror is lo, not itself.
    A midpoint block that took every mirror as its point without ruling
    out x == hi would move value 1 of the first three nodes to
    1.3389122130186548e-16."""
    ft = register_builtin("reciprocal")
    nodes = [float.fromhex("0x1.a88c9c45b7682p+0")]
    while len(nodes) < 2 * _BLOCK + 4:
        nodes.append(math.nextafter(nodes[-1], math.inf))
    assert nodes[2] == float.fromhex("0x1.a88c9c45b7684p+0")
    assert _columns(ft, _wrapped(nodes[:3], "midpoint"))[0][1] == 1.338912213018655e-16
    _assert_matches_reference(ft, _midpoint_partition(nodes[:3]), composite_midpoint(ft, nodes[:3]))
    _assert_matches_reference(ft, _wrapped(nodes[:3], "midpoint"))
    part = _midpoint_partition(nodes)
    _assert_matches_reference(ft, part, composite_midpoint(ft, nodes),
                              composite_generalized(ft, part))
    _assert_matches_reference(ft, _wrapped(nodes, "midpoint"))


@pytest.mark.parametrize("span,n", [
    ((-2.0**-1020, 2.0**-1020), 2 * _BLOCK + 3), ((-2.0**-1021, 3 * 2.0**-1021), 2 * _BLOCK + 3),
    ((0.0, 2.0**-1015), 2 * _BLOCK + 3), ((-1e-319, 3e-319), 2 * _BLOCK + 3),
    # lo + hi = 3 * 2**-1074 halves to 2 * 2**-1074, whose mirror is 2**-1074
    ((2.0**-1074 - 2.0**-1021, 2.0**-1021 + 2.0**-1073), 1),
])
@pytest.mark.parametrize("xi_policy", XI_POLICIES)
def test_subnormal_sums_match_the_reference(span, n, xi_policy):
    """Spans, about 0 or on one side, where lo + hi is below 2**-1021 in some
    blocks: halving it may round there, so those midpoint blocks compute
    their mirrors, while the others take them as their points. f = 1e308 x
    keeps a value that a rounded half would move above the underflow."""
    for ft in (register_builtin("exp"), POWER2, SINE, register_builtin("poly", [1e308, 0.0])):
        part = Partition.uniform(*span, n, xi_policy, seed=11)
        _assert_matches_reference(ft, part, composite_generalized(ft, part))


def test_neglog_midpoint_at_one_matches_the_reference():
    """f = -log x is -0.0 at 1.0: the value of the subinterval whose
    midpoint is 1.0 has the sign the per-subinterval loop gives it."""
    ft = register_builtin("neglog")
    for part in (Partition.uniform(0.5, 1.5, 1), Partition.uniform(0.5, 1.5, 2 * _BLOCK + 3)):
        assert 1.0 in part.xi
        _assert_matches_reference(ft, part, composite_generalized(ft, part),
                                  composite_midpoint(ft, part.nodes))


@pytest.mark.parametrize("span", [(0.0, 1.0), (-0.0, 1.0), (-2.0, -0.5), (-1.0, 2.0)])
def test_random_rows_about_zero_match_the_reference(span):
    """Random blocks whose first node is >= 0 skip the checks that their
    points are finite and at most hi; blocks on negative nodes keep them.
    Rows start at 0.0 and -0.0, lie below 0 or cross it."""
    for seed, ft in enumerate((register_builtin("exp"), register_builtin("power", [3.0]), SINE)):
        part = Partition.uniform(*span, 2 * _BLOCK + 3, "random", seed=seed)
        _assert_matches_reference(ft, part, composite_generalized(ft, part))


def test_midpoint_blocks_skip_the_mirror_pass(monkeypatch):
    """A midpoint block whose sums halve exactly computes no mirrors; one
    with an x at hi, from adjacent nodes, does."""
    calls = []
    monkeypatch.setattr(composite, "mirror_points",
                        lambda *columns: calls.append(len(columns[2])) or mirror_points(*columns))
    ft = register_builtin("exp")
    composite_generalized(ft, Partition.uniform(0.5, 2.0, 2 * _BLOCK + 3))
    composite_midpoint(ft, Partition.uniform(-2.0, -0.5, 2 * _BLOCK + 3).nodes)
    assert calls == []
    after = math.nextafter(1.0, 2.0)
    composite_midpoint(ft, (1.0, after, math.nextafter(after, 2.0)))
    assert calls == [2]


def test_subintervals_above_2_53_are_refused():
    """n above 2**53, where n - i, i and n stop being exact floats, is
    refused before a node is computed; `.nodes` would take 32 B a node."""
    for n in (2**53 + 1, 2**60):
        with pytest.raises(ParameterError, match=rf"^need n <= 2\*\*53 subintervals, got {n}$"):
            Partition.uniform(0.0, 1.0, n)


def test_unproven_uniform_nodes_are_checked_a_block_at_a_time():
    """Where the rounding bound fails, the nodes are computed and checked
    one block at a time: 2**20 subintervals peak under two blocks of
    floats in a list, where their tuple would take 32 MB."""
    n = 2**20
    span = (1.0, 1.0 + 2**-31)  # nodes 1 + i * 2**-51: valid, yet below the bound
    assert not composite._proven_uniform(*span, n)
    tracemalloc.start()
    try:
        part = Partition.uniform(*span, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 32 * (_BLOCK + 1)
    assert part._nodes == (*span, n)


def test_validation_order_holds_across_blocks():
    """Nodes that fail the policy check are checked block by block in the
    order of given points: a value that is not finite, in any block, then
    the first pair out of order, then the first point outside its half."""
    base = [float(i) for i in range(3 * _BLOCK)]
    unordered = base[:5] + [4.0] + base[6:]
    with pytest.raises(ParameterError, match=r"^partition values must be finite$"):
        composite_midpoint(CONST, unordered[:-1] + [math.inf])
    huge = [1e308, 1.7e308]  # the last lo + hi overflows
    with pytest.raises(ParameterError,
                       match=r"^nodes must be strictly increasing, got 4\.0 >= 4\.0$"):
        composite_perturbed_trapezoid(CONST, unordered[:-2] + huge)
    nodes = base[:-2] + huge
    with pytest.raises(ParameterError, match=rf"^xi\[{len(nodes) - 2}\]=1\.7e\+308 outside the "
                                             r"admissible right half \[inf, 1\.7e\+308\]$"):
        composite_perturbed_trapezoid(CONST, nodes)


def test_rows_hold_one_block_at_any_n():
    """Each block's columns are summed as they are computed, and a result
    holds its two sums, so a row of any policy retains under 8 KB, and
    peaks at a fixed multiple of one block's work, ~400 B per subinterval
    of a block, at n = 2e5 as at n = 1e6; keeping the columns took 16 B
    per subinterval of the row. Tracing multiplies a row's time by ~20, so
    n = 1e6 runs for one policy."""
    ft = register_builtin("exp")
    for policy, n in [(policy, 200_000) for policy in XI_POLICIES] + [("right", 1_000_000)]:
        part = Partition.uniform(0.5, 2.0, n, policy, seed=5)
        tracemalloc.start()
        try:
            composite_generalized(ft, part)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result, and floats kept on the interpreter's free list
        assert held < 8192, (policy, n, held)
        assert peak <= 512 * _BLOCK, (policy, n, peak)


@pytest.mark.parametrize("xi_policy", XI_POLICIES)
def test_uniform_partition_holds_no_nodes(xi_policy):
    """A uniform partition over float endpoints stores (a, b, n), where its
    node tuple took 32 B per node."""
    tracemalloc.start()
    try:
        part = Partition.uniform(0.5, 2.0, 10**6, xi_policy, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert part._nodes == (0.5, 2.0, 10**6)


@pytest.mark.parametrize("args,kwargs", [
    ((-1.0, 1.0, 2**48), {}),
    ((-0.0, 1e-300, 7, "random"), {"seed": 5}),
    ((0.1, 0.7, 3, "right"), {"seed": 9}),
    ((0.5, 2.0, 10**6, "random"), {}),
])
def test_uniform_repr_reads_back(monkeypatch, args, kwargs):
    """A stored (a, b, n) reads as the call that builds it, computing no
    node, so at any n, and evaluates back to an equal partition. The
    partition is built here, so that no report of a failure reprs it."""
    def no_nodes(*args):
        raise AssertionError("repr computed nodes")

    part = Partition.uniform(*args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(composite, "_nodes_of", no_nodes)
        text = repr(part)
    assert text.startswith("Partition.uniform(") and len(text) < 120
    read_back = eval(text, {"Partition": Partition}) == part
    assert read_back


@pytest.mark.parametrize("module", ["array", "dataclasses"])
def test_cli_import_leaves_out(module):
    """Modules each cold CLI process would pay to load. A composite result
    holds two floats and needs no array extension module. The composite
    records are plain slotted classes, not dataclasses, whose import pulls
    in inspect."""
    src = str(Path(composite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, quadcert.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def _counted(ft):
    """ft with each of f, f', f'' counting its calls into the returned dict."""
    calls = dict.fromkeys(("f", "f1", "f2"), 0)

    def counting(name):
        g = getattr(ft, name)

        def wrapper(x):
            calls[name] += 1
            return g(x)

        return wrapper

    return ft._replace(f=counting("f"), f1=counting("f1"), f2=counting("f2")), calls


@pytest.mark.parametrize("n", [1, 7, 64])
def test_each_point_evaluated_once(n):
    """f'' runs once per node; f once per distinct point: n times on
    midpoint rows, where each mirror is its own xi, n + 1 on right rows,
    where each node is the xi of one subinterval and the mirror of the
    next, and 2n otherwise. f' runs as often, but not on midpoint rows,
    where its difference is 0, and at the two end nodes only on a stored
    uniform right row, whose corrections telescope (n + 1 = 2 at n = 1)."""
    ft, calls = _counted(register_builtin("exp"))
    rows = [
        (lambda: composite_midpoint(ft, Partition.uniform(0.0, 1.0, n).nodes), n, 0),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n)), n, 0),
        (lambda: composite_perturbed_trapezoid(ft, Partition.uniform(0.0, 1.0, n).nodes),
         n + 1, n + 1),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "right")), n + 1, 2),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "random", 1)),
         2 * n, 2 * n),
    ]
    for row, f_calls, f1_calls in rows:
        calls.update(f=0, f1=0, f2=0)
        row()
        assert calls == {"f": f_calls, "f1": f1_calls, "f2": n + 1}


@pytest.mark.parametrize("n", [1, 7, _BLOCK + 1, 2 * _BLOCK + 3])
def test_columns_cover_each_point_once(monkeypatch, n):
    """The registry evaluators run as columns: f over n points on midpoint
    rows, n+1 on right rows and 2n otherwise; f' over none on midpoint
    rows, n+1 on right rows with given nodes, the two end nodes on a stored
    uniform right row and 2n otherwise; f'' over the n+1 nodes.
    exp's f' and f'' carry f's ``batch``, so f's column serves for them
    over its points: f' runs on no row, and f'' not on right rows. power:3
    shares no column."""
    names, points = {}, {}
    column = composite.column

    def counting_column(fn, xs, *within):
        points[names[id(fn)]] += len(xs)
        return column(fn, xs, *within)

    monkeypatch.setattr(composite, "column", counting_column)
    for spec, shared in (("power:3", False), ("exp", True)):
        ft = parse_function_spec(spec)
        assert same_column(ft.f, ft.f1) is same_column(ft.f, ft.f2) is shared
        names.update({id(ft.f): "f", id(ft.f1): "f1", id(ft.f2): "f2"})
        rows = [  # points of f, f' and f'', unshared and shared
            (lambda: composite_midpoint(ft, Partition.uniform(0.0, 1.0, n).nodes),
             (n, 0, n + 1), (n, 0, n + 1)),
            (lambda: composite_perturbed_trapezoid(ft, Partition.uniform(0.0, 1.0, n).nodes),
             (n + 1, n + 1, n + 1), (n + 1, 0, 0)),
            (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "right")),
             (n + 1, 2, n + 1), (n + 1, 0, 0)),
            (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "random", 1)),
             (2 * n, 2 * n, n + 1), (2 * n, 0, n + 1)),
        ]
        for row, unshared_points, shared_points in rows:
            points.update(f=0, f1=0, f2=0)
            row()
            assert (points["f"], points["f1"], points["f2"]) == (
                shared_points if shared else unshared_points)


def _f1_fails(x):
    raise DomainError(f"f' fails at x={x!r}")


def test_midpoint_rows_do_not_need_f1():
    """Midpoint rows neither evaluate f' nor fail where only f' does; other
    rows still raise its error."""
    ft = SINE._replace(f1=_f1_fails)
    nodes = Partition.uniform(0.0, 1.0, 8).nodes
    wrapped = _wrapped(nodes, "midpoint")
    assert list(map(_bits, _columns(ft, wrapped))) == list(map(_bits, _columns(SINE, wrapped)))
    assert composite_midpoint(ft, nodes) == composite_midpoint(SINE, nodes)
    with pytest.raises(DomainError, match=r"^f' fails at x=0\.125$"):
        composite_perturbed_trapezoid(ft, nodes)


def test_uniform_right_rows_call_f1_at_the_two_end_nodes():
    """A stored uniform right row telescopes its corrections: over three
    blocks, a plain f' runs at x_n and x_0 only, where given nodes run it
    at all n + 1, and f at every node either way."""
    n = 10**4
    ft, calls = _counted(SINE)
    part = Partition.uniform(-1.0, 2.0, n, "right")
    composite_generalized(ft, part)
    assert calls == {"f": n + 1, "f1": 2, "f2": n + 1}
    calls.update(f=0, f1=0, f2=0)
    composite_perturbed_trapezoid(ft, part.nodes)
    assert calls == {"f": n + 1, "f1": n + 1, "f2": n + 1}


def _f1_fails_inside(lo, hi):
    """SINE with an f' that raises everywhere but at lo and hi."""
    def f1(x):
        if x in (lo, hi):
            return math.cos(x)
        raise DomainError(f"f' fails at x={x!r}")
    return SINE._replace(f1=f1)


@pytest.mark.parametrize("n", [8, 2 * _BLOCK + 3])
def test_right_row_failing_only_at_interior_f1_returns(n):
    """A stored uniform right row needs f' at its end nodes only, so one
    whose f' fails at interior nodes alone returns the sums of an f' that
    does not; given nodes still raise its error."""
    part = Partition.uniform(0.0, 1.0, n, "right")
    ft = _f1_fails_inside(0.0, 1.0)
    assert composite_generalized(ft, part) == composite_generalized(SINE, part)
    with pytest.raises(DomainError, match=r"^f' fails at x="):
        composite_perturbed_trapezoid(ft, part.nodes)


def _outcome(call):
    """The bits of a row's sums, or the type and message of its error."""
    try:
        res = call()
        return _bits((res.approx, res.remainder_bound))
    except (DomainError, ParameterError) as exc:
        return type(exc), str(exc)


def _at(point, value, g):
    """g, but ``value`` at ``point``: a number, or an exception to raise."""
    def at(x):
        if x != point:
            return g(x)
        if isinstance(value, Exception):
            raise value
        return value
    return at


@pytest.mark.parametrize("n", [8, 2 * _BLOCK + 3])
@pytest.mark.parametrize("name,failing", [
    # f' not finite, or raising, at an end node
    ("f1", lambda x_0, x_n, mid: (x_n, math.inf)),
    ("f1", lambda x_0, x_n, mid: (x_0, math.nan)),
    ("f1", lambda x_0, x_n, mid: (x_n, DomainError("f' fails at x_n"))),
    ("f1", lambda x_0, x_n, mid: (x_0, DomainError("f' fails at x_0"))),
    # f or f'' at an interior node
    ("f", lambda x_0, x_n, mid: (mid, math.inf)),
    ("f", lambda x_0, x_n, mid: (mid, DomainError("f fails inside"))),
    ("f2", lambda x_0, x_n, mid: (mid, math.nan)),
    ("f2", lambda x_0, x_n, mid: (mid, DomainError("f'' fails inside"))),
])
def test_telescoped_rows_fail_as_given_nodes_do(n, name, failing):
    """Where no f' fails at an interior node, a stored uniform right row
    fails as the same nodes given in full, whose corrections are computed
    per subinterval: with the error class and message of theirs. A row
    whose telescoped sums are not finite is computed again per
    subinterval."""
    part = Partition.uniform(0.0, 1.0, n, "right")
    nodes = part.nodes
    point, value = failing(nodes[0], nodes[-1], nodes[n // 2])
    ft = SINE._replace(**{name: _at(point, value, getattr(SINE, name))})
    outcome = _outcome(lambda: composite_generalized(ft, part))
    assert outcome == _outcome(lambda: composite_perturbed_trapezoid(ft, nodes))
    assert outcome[0] in (DomainError, ParameterError)


def test_telescoped_overflow_returns_the_per_subinterval_sums():
    """f' = 8e307 x runs from -1.2e308 to 1.2e308 on [-1.5, 1.5], so
    f'(x_n) - f'(x_0) overflows, while each subinterval's difference and the
    sums are finite: the row returns the per-subinterval sums."""
    ft = register_builtin("poly", [4e307, 0.0, 0.0])
    part = Partition.uniform(-1.5, 1.5, 4, "right")
    res = composite_generalized(ft, part)
    approx, bound = _reference_kernel(ft, part)[:2]
    assert _bits((res.approx, res.remainder_bound)) == _bits((approx, bound))
    assert math.isinf(_telescoped_reference(ft, part)[0])


# The rule's referee for the polynomial registry: f of each spec as float
# coefficients, highest degree first.
_REFEREE_SPECS = {"power:2": (1.0, 0.0, 0.0), "power:3": (1.0, 0.0, 0.0, 0.0),
                  "power:4": (1.0, 0.0, 0.0, 0.0, 0.0),
                  "poly:3,-2,1,0,5,-1": (3.0, -2.0, 1.0, 0.0, 5.0, -1.0)}
_U = Fraction(1, 2**53)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1 - k * _U)


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _derivative(coeffs):
    d = len(coeffs) - 1
    return [c * (d - i) for i, c in enumerate(coeffs[:-1])]


def _exact_rule(spec, part):
    """The rule of a uniform right row in exact arithmetic on its float
    nodes, per subinterval as stated, with f and f' exact:
    (rule, exact integral over [x_0, x_n], rounding bound of the
    telescoped float approx about the rule).

    The bound adds, with u = 2**-53 and F, F' the sums |c_i| |x|**i of f
    and f', each exact:
    - per trapezoid term (hi - lo)/2 * (F(lo) + F(hi)) * (e + gamma_4): e =
      gamma_2d bounds the error of f and f' at x relative to F and F'
      (Horner over degree d; math.pow within 1 ulp and a product), and the
      term rounds hi - lo, the sum and the product;
    - for the one correction h^2/8 * (F'(x_0) + F'(x_n)) * (e + gamma_8): h =
      (b - a)/n rounds twice, and its products and difference four times;
    - the gap between the rule and its telescoped form on float nodes, whose
      widths h_i are not h: max |h_i^2 - h^2| / 8 * sum |f'(x_i+1) - f'(x_i)|.
    The caller adds u |approx| for math.fsum, which rounds once.
    """
    coeffs = [Fraction(c) for c in _REFEREE_SPECS[spec]]
    deriv = _derivative(coeffs)
    d = len(coeffs) - 1
    a, b, n = map(Fraction, part._nodes)
    h = (b - a) / n
    xs = [Fraction(x) for x in part.nodes]
    f = [_horner(coeffs, x) for x in xs]
    f1 = [_horner(deriv, x) for x in xs]
    scale = [_horner([abs(c) for c in coeffs], abs(x)) for x in xs]
    scale1 = [_horner([abs(c) for c in deriv], abs(x)) for x in xs]
    widths = [hi - lo for lo, hi in zip(xs, xs[1:])]
    rule = sum(w / 2 * (u + v) - w * w / 8 * (dv - du)
               for w, u, v, du, dv in zip(widths, f, f[1:], f1, f1[1:]))
    antiderivative = [c / (d + 1 - i) for i, c in enumerate(coeffs)] + [Fraction(0)]
    integral = _horner(antiderivative, xs[-1]) - _horner(antiderivative, xs[0])
    e = _gamma(2 * d)
    gap = (max(abs(w * w - h * h) for w in widths) / 8
           * sum(abs(dv - du) for du, dv in zip(f1, f1[1:])))
    rounding = (sum(w / 2 * (s + t) for w, s, t in zip(widths, scale, scale[1:])) * (e + _gamma(4))
                + h * h / 8 * (scale1[0] + scale1[-1]) * (e + _gamma(8)))
    return rule, integral, rounding + gap


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(sorted(_REFEREE_SPECS)), a=st.floats(-2.0, 2.0),
       width=st.one_of(st.floats(1e-6, 2.0), st.floats(2.0**-20, 2.0**-10)), n=st.integers(2, 64))
@example(spec="power:2", a=1.8471158237695384, width=0.0054162091673882, n=2)
@example(spec="poly:3,-2,1,0,5,-1", a=-0.9, width=2.2, n=64)
def test_telescoped_rows_are_the_exact_rule_within_rounding(spec, a, width, n):
    """The telescoped approx of a uniform right row is within the rounding
    bound of `_exact_rule` of the rule computed exactly on the same float
    nodes, by a `fractions.Fraction` referee for power:2, 3, 4 and a
    quintic poly, plus u |approx| for the rounding of math.fsum; the bound
    is exact, computed in Fractions too."""
    part = Partition.uniform(a, a + width, n, "right")
    res = composite_generalized(parse_function_spec(spec), part)
    rule, _, bound = _exact_rule(spec, part)
    assert abs(Fraction(res.approx) - rule) <= bound + abs(Fraction(res.approx)) * _U


def test_midpoint_zero_values_keep_their_sign():
    """A zero value has the sign the per-subinterval loop gives it: f and f'
    returning -0.0 give +0.0, as f'(x) - f'(x) did before f' was skipped."""
    ft = NEGATIVE_ZERO
    part = Partition.uniform(-1.0, 1.0, 4)
    values, _ = _columns(ft, _wrapped(part.nodes, "midpoint"))
    assert _bits(values) == _bits(_reference_kernel(ft, part)[2]) == _bits((0.0,) * 4)
    assert _bits((composite_midpoint(ft, part.nodes).approx,)) == _bits((0.0,))


@pytest.mark.parametrize("call,match", [
    # f'' of power:400 overflows at 5.8 once the coefficient multiplies in
    (lambda: composite_midpoint(register_builtin("power", [400.0]),
                                Partition.uniform(1.0, 5.8, 4).nodes),
     r"^f'' of power:400 overflows the float range at x=5\.8$"),
    # f overflows at both midpoints; the first one raises
    (lambda: composite_midpoint(register_builtin("poly", [1e300, 0.0]), (-2e10, 0.0, 2e10)),
     r"^f of poly:1e\+300,0 overflows the float range at x=-10000000000\.0$"),
    # every evaluation is finite but the value of each subinterval is not
    (lambda: composite_midpoint(register_builtin("poly", [1.7e308]), (0.0, 1.0, 2.0)),
     r"^composite rule of poly:1\.7e\+308 is not finite on subinterval 0, \[0\.0, 1\.0\]: "
     r"value inf, bound 0\.0$"),
    # every value is finite but their sum is not
    (lambda: composite_midpoint(register_builtin("poly", [8e307]), (0.0, 1.0, 2.0, 3.0)),
     r"^composite sum of poly:8e\+307 overflows the float range on \[0\.0, 3\.0\]$"),
])
def test_non_finite_composite_is_a_domain_error(call, match):
    """A composite result never carries a non-finite approx or bound."""
    with pytest.raises(DomainError, match=match):
        call()


def _fsum(column):
    """math.fsum of ``column``, or inf where it raises: on an intermediate
    overflow or on inf - inf."""
    try:
        return math.fsum(column)
    except (OverflowError, ValueError):
        return math.inf


# Summands from subnormals to 1e300 in magnitude, signed zeros, and entries
# near the end of the float range or not finite, on which math.fsum raises
# OverflowError or ValueError.
_SUMMANDS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308, 1.7e308, -1.7e308,
                     math.inf, -math.inf, math.nan]))


@st.composite
def _cancelling_columns(draw):
    """Columns of summands and the negations of some of them, shuffled."""
    xs = draw(st.lists(_SUMMANDS, max_size=40))
    negated = [-x for x in draw(st.lists(st.sampled_from(xs), max_size=len(xs)))] if xs else []
    return draw(st.permutations(xs + negated))


@settings(max_examples=500, deadline=None)
@given(column=_cancelling_columns(), cut=st.integers(0, 80))
@example(column=[-0.0] * 3, cut=1)  # math.fsum([-0.0]) is 0.0 on 3.11
@example(column=[1.7e308, 1.7e308, -1.7e308], cut=1)  # math.fsum raises OverflowError
@example(column=[math.inf, -math.inf], cut=1)  # math.fsum raises ValueError
@example(column=[1.0, 1e-300, 5e-324, -1.0], cut=2)  # exact sum of 1075 bits
@example(column=[1.0, 2.0**-60, 3.0], cut=1)  # two parts, known exact without a third pass
def test_exact_parts_sum_exactly(column, cut):
    """The exact parts of a column sum to its exact sum, so math.fsum of
    them is math.fsum of the column, bit for bit, signed zeros included,
    and inf where that raises.

    Cut in two, the parts of the halves sum as the whole where no sum
    overflows. Where no entry is negative, as in bounds, they always do,
    but for which non-finite sum a NaN gives; values, which may cancel, are
    summed by one math.fsum over the row instead."""
    bounds = [abs(x) for x in column]
    for whole in (column, bounds):
        parts = composite._exact_parts(list(whole))
        assert _bits((_fsum(parts),)) == _bits((_fsum(whole),))
        if all(map(math.isfinite, parts)):
            assert sum(map(Fraction, parts)) == sum(map(Fraction, whole))

    def joined(whole):
        return _fsum([p for half in (whole[:cut], whole[cut:])
                      for p in composite._exact_parts(list(half))])

    if all(math.isfinite(_fsum(half)) for half in (column, column[:cut], column[cut:])):
        assert _bits((joined(column),)) == _bits((_fsum(column),))
    if math.isfinite(_fsum(bounds)):
        assert _bits((joined(bounds),)) == _bits((_fsum(bounds),))
    else:
        assert not math.isfinite(joined(bounds))


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("xi_policy", XI_POLICIES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_sums_are_fsum_of_the_columns(n, xi_policy, seed):
    """approx and remainder_bound are math.fsum of the kernel's whole
    columns, bit for bit, across block boundaries: on power:3 over [-2, 3],
    whose values change sign, and on f = f' = -0.0, whose right rows give a
    column of negative zeros."""
    part = Partition.uniform(-2.0, 3.0, n, xi_policy, seed)
    for ft in (register_builtin("power", [3.0]), NEGATIVE_ZERO):
        values, bounds = _columns(ft, part)
        res = composite_generalized(ft, part)
        assert _bits((res.approx, res.remainder_bound)) == \
            _bits((math.fsum(values), math.fsum(bounds)))


def test_convergence_order():
    """Midpoint errors and bounds on exp halve by ~4x per doubling."""
    ft = register_builtin("exp")
    exact = math.e - 1.0
    errors, bounds_ = [], []
    for n in (4, 8, 16, 32, 64):
        res = composite_midpoint(ft, Partition.uniform(0.0, 1.0, n).nodes)
        errors.append(abs(exact - res.approx))
        bounds_.append(res.remainder_bound)
    for seq in (errors, bounds_):
        rates = [math.log2(seq[i] / seq[i + 1]) for i in range(len(seq) - 1)]
        assert all(abs(r - 2.0) < 0.1 for r in rates)


def test_determinism():
    ft = register_builtin("exp")
    part = Partition.uniform(0.0, 1.0, 64, xi_policy="random", seed=3)
    r1 = composite_generalized(ft, part)
    r2 = composite_generalized(ft, part)
    assert r1.approx == r2.approx
    assert r1.remainder_bound == r2.remainder_bound
    assert _columns(ft, part) == _columns(ft, part)


def test_domain_enforcement():
    recip = register_builtin("reciprocal")
    with pytest.raises(DomainError):
        composite_midpoint(recip, (-1.0, 1.0))


def _in_order_two_scans(lows):
    """The node check as two whole scans: every node finite, every pair in
    order."""
    return all(map(math.isfinite, lows)) and all(map(operator.lt, lows, lows[1:]))


_NOT_FINITE = (math.nan, math.inf, -math.inf)


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8,
                      unique=True).map(sorted),
       specials=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_NOT_FINITE)), max_size=2),
       shuffled=st.booleans())
# finite ends whose difference, and whose neighbours' sum, overflows
@example(nodes=[-1.7976931348623157e308, 1.7976931348623157e308], specials=[], shuffled=False)
@example(nodes=[-1.7e308, 0.0, 1.7e308], specials=[(1, math.nan)], shuffled=False)
def test_in_order_is_the_two_scan_check(nodes, specials, shuffled):
    """`_in_order` tests the pairs, then only the ends for finiteness, and
    gives the verdict of the two whole scans wherever NaN or an infinity
    stands, and on lists out of order."""
    for i, special in specials:
        nodes.insert(min(i, len(nodes)), special)
    if shuffled:
        nodes.reverse()
    assert _in_order(nodes) is _in_order_two_scans(nodes)
