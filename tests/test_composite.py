"""Composite rules: partition validation, frozen examples, telescoping to
the single-interval rule, validity sweeps, convergence order, and
determinism."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_interval, single_cases
from quadcert import composite
from quadcert.bounds import bound_convex, bound_power_mean
from quadcert.composite import (
    _BLOCK,
    XI_POLICIES,
    Partition,
    composite_generalized,
    composite_midpoint,
    composite_perturbed_trapezoid,
)
from quadcert.errors import DomainError, ParameterError
from quadcert.functions import FunctionTriple, Interval, register_builtin
from quadcert.oracle import integrate
from quadcert.rules import generalized_rule, perturbed_trapezoid_rule

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
    assert _bits(composite_generalized(ft, part).values[:1]) == _bits(
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
    res = composite_midpoint(register_builtin("exp"), Partition.uniform(0.0, 1.0, 8).nodes)
    assert len(res.values) == len(res.bounds) == 8
    assert res.approx == math.fsum(res.values)
    assert res.remainder_bound == math.fsum(res.bounds)
    assert all(b >= 0.0 for b in res.bounds)
    assert res.per_interval == tuple(zip(res.values, res.bounds))


# f(x) = sin x as plain callables, outside the registry.
SINE = FunctionTriple("sin", math.sin, math.cos, lambda x: -math.sin(x),
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


def _bits(values):
    return tuple(map(float.hex, values))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000,
                               _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("xi_policy", ["midpoint", "right", "random"])
def test_kernel_matches_per_subinterval_reference(corpus, rng, xi_policy, n):
    """Column-wise partitions and sums are bit-identical to the loop, also
    across block boundaries."""
    for ft, lo, hi in corpus + [(SINE, -3.0, 3.0)]:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        seed = int(rng.integers(1 << 30))
        part = Partition.uniform(iv.a, iv.b, n, xi_policy=xi_policy, seed=seed)
        nodes, xi = _reference_uniform(iv.a, iv.b, n, xi_policy, seed)
        assert _bits(part.nodes) == _bits(nodes)
        assert _bits(part.xi) == _bits(xi)
        results = [composite_generalized(ft, part)]
        if xi_policy == "midpoint":
            results.append(composite_midpoint(ft, part.nodes))
        elif xi_policy == "right":
            results.append(composite_perturbed_trapezoid(ft, part.nodes))
        approx, bound, values, bounds = _reference_kernel(ft, part)
        for res in results:
            assert _bits((res.approx, res.remainder_bound)) == _bits((approx, bound))
            assert _bits(res.values) == _bits(values)
            assert _bits(res.bounds) == _bits(bounds)


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
    midpoint rows, where each mirror is its own xi, and 2n otherwise. f'
    runs 2n times, but not on midpoint rows, where its difference is 0."""
    ft, calls = _counted(register_builtin("exp"))
    rows = [
        (lambda: composite_midpoint(ft, Partition.uniform(0.0, 1.0, n).nodes), n, 0),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n)), n, 0),
        (lambda: composite_perturbed_trapezoid(ft, Partition.uniform(0.0, 1.0, n).nodes),
         2 * n, 2 * n),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "right")), 2 * n, 2 * n),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "random", 1)),
         2 * n, 2 * n),
    ]
    for row, f_calls, f1_calls in rows:
        calls.update(f=0, f1=0, f2=0)
        row()
        assert calls == {"f": f_calls, "f1": f1_calls, "f2": n + 1}


@pytest.mark.parametrize("n", [1, 7, _BLOCK + 1, 2 * _BLOCK + 3])
def test_columns_cover_each_point_once(monkeypatch, n):
    """The registry evaluators run as columns: f'' over the n+1 nodes, f
    over n points on midpoint rows and 2n otherwise, f' over none on
    midpoint rows and 2n otherwise."""
    ft = register_builtin("exp")
    names = {id(ft.f): "f", id(ft.f1): "f1", id(ft.f2): "f2"}
    points = dict.fromkeys(names.values(), 0)
    column = composite.column

    def counting_column(fn, xs, *within):
        points[names[id(fn)]] += len(xs)
        return column(fn, xs, *within)

    monkeypatch.setattr(composite, "column", counting_column)
    rows = [
        (lambda: composite_midpoint(ft, Partition.uniform(0.0, 1.0, n).nodes), n, 0),
        (lambda: composite_perturbed_trapezoid(ft, Partition.uniform(0.0, 1.0, n).nodes),
         2 * n, 2 * n),
        (lambda: composite_generalized(ft, Partition.uniform(0.0, 1.0, n, "random", 1)),
         2 * n, 2 * n),
    ]
    for row, f_points, f1_points in rows:
        points.update(f=0, f1=0, f2=0)
        row()
        assert points == {"f": f_points, "f1": f1_points, "f2": n + 1}


def _f1_fails(x):
    raise DomainError(f"f' fails at x={x!r}")


def test_midpoint_rows_do_not_need_f1():
    """Midpoint rows neither evaluate f' nor fail where only f' does; other
    rows still raise its error."""
    ft = SINE._replace(f1=_f1_fails)
    nodes = Partition.uniform(0.0, 1.0, 8).nodes
    assert _bits(composite_midpoint(ft, nodes).values) == _bits(
        composite_midpoint(SINE, nodes).values)
    with pytest.raises(DomainError, match=r"^f' fails at x=0\.125$"):
        composite_perturbed_trapezoid(ft, nodes)


def test_midpoint_zero_values_keep_their_sign():
    """A zero value has the sign the per-subinterval loop gives it: f and f'
    returning -0.0 give +0.0, as f'(x) - f'(x) did before f' was skipped."""
    ft = FunctionTriple("negzero", lambda x: -0.0, lambda x: -0.0, lambda x: 0.0,
                        -math.inf, math.inf)
    part = Partition.uniform(-1.0, 1.0, 4)
    res = composite_midpoint(ft, part.nodes)
    assert _bits(res.values) == _bits(_reference_kernel(ft, part)[2]) == _bits((0.0,) * 4)


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
    assert r1.per_interval == r2.per_interval


def test_domain_enforcement():
    recip = register_builtin("reciprocal")
    with pytest.raises(DomainError):
        composite_midpoint(recip, (-1.0, 1.0))
