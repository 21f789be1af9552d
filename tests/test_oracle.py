"""Reference integrator and norm estimators: closed-form corpus, polynomial
exactness, failure modes, and the Holder ordering of the norm estimates."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import convex_corpus, plain_callables, random_interval
from quadcert.errors import DomainError, IntegrationError, ParameterError
from quadcert.functions import FunctionTriple, Interval, parse_function_spec, register_builtin
from quadcert.oracle import SUP_SAMPLES, _golden_max, estimate_norm, integrate

# GK15's corpus. The tests wrap these registry evaluators as plain
# callables: unwrapped, they integrate in closed form and run no GK15 segment.
CLOSED_FORMS = [
    (register_builtin("power", [2.0]).f, 0.0, 1.0, 1.0 / 3.0),
    (register_builtin("reciprocal").f, 1.0, 2.0, math.log(2.0)),
    (register_builtin("exp").f, 0.0, 1.0, math.e - 1.0),
]


@pytest.mark.parametrize("g,a,b,expected", CLOSED_FORMS)
def test_closed_forms(g, a, b, expected):
    est = integrate(lambda x: g(x), a, b, tol=1e-12)
    assert est.subdivisions >= 1
    assert est.value == pytest.approx(expected, abs=1e-12)
    assert est.abs_error_estimate <= 1e-12


def test_polynomial_exactness_without_subdivision():
    """Degree <= 5 polynomials integrate exactly at the first GK15 level.
    The poly is wrapped as a plain callable: the registry evaluator has a
    closed form, which runs no GK15 segment."""
    ft = register_builtin("poly", [3.0, -2.0, 1.0, 0.0, 5.0, -1.0])
    exact = 3.0 / 6.0 - 2.0 / 5.0 + 1.0 / 4.0 + 5.0 / 2.0 - 1.0
    est = integrate(lambda x: ft.f(x), 0.0, 1.0, tol=1e-12)
    assert est.subdivisions == 1
    assert est.value == pytest.approx(exact, rel=1e-13)


def test_monotone_tolerance():
    """Halving the tolerance never worsens the error on the closed-form
    corpus (1 ulp slack for accumulation noise)."""
    for g, a, b, expected in CLOSED_FORMS:
        prev = None
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            err = abs(integrate(lambda x: g(x), a, b, tol=tol).value - expected)
            if prev is not None:
                assert err <= prev + 2e-16 * abs(expected)
            prev = err


def test_error_estimate_within_tolerance(corpus, rng):
    for ft, lo, hi in corpus:
        a = float(rng.uniform(lo, lo + 0.5))
        b = float(rng.uniform(hi - 0.5, hi))
        est = integrate(plain_callables(ft).f, a, b, tol=1e-10)
        assert est.subdivisions >= 1
        assert est.abs_error_estimate <= 1e-10


def test_bad_arguments():
    f = register_builtin("exp").f
    with pytest.raises(ParameterError):
        integrate(f, 1.0, 1.0)
    with pytest.raises(ParameterError):
        integrate(f, 2.0, 1.0)
    for tol in (1e-15, math.nan, -1.0):
        with pytest.raises(ParameterError, match=f"tol={tol!r} must be at least 1e-14"):
            integrate(f, 0.0, 1.0, tol=tol)


def test_nonconvergence_raises():
    # integrable singularity: bisection towards it runs into the depth cap
    with pytest.raises(IntegrationError, match="cannot be refined further"):
        integrate(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, tol=1e-12)
    # ~16000 oscillations: each needs segments of its own, past the 4096 cap
    with pytest.raises(IntegrationError, match="needs more than 4096 segments"):
        integrate(lambda x: math.sin(1e5 * x), 0.0, 1.0, tol=1e-12)


def test_points_is_keyword_only():
    with pytest.raises(TypeError):
        integrate(math.exp, 0.0, 1.0, 1e-12, 64)


def test_nonfinite_sample_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0, tol=1e-10)


def test_sup_norms():
    iv = Interval(0.0, 1.0)
    est = estimate_norm(register_builtin("power", [2.0]), iv, "sup_f2")
    assert est.value == 2.0
    assert est.method == "exact" and est.samples is None
    est = estimate_norm(register_builtin("reciprocal"), Interval(1.0, 2.0), "sup_f2")
    assert est.value == pytest.approx(2.0, rel=1e-12)  # max of 2/x^3 at x=1
    est = estimate_norm(register_builtin("power", [2.0]), iv, "sup_f1")
    assert est.value == pytest.approx(2.0, rel=1e-12)  # |2x| at x=1


def _numpy_sup(ft, iv, kind, samples):
    """Reference sup estimate on a numpy.linspace grid with np.argmax."""
    g = ft.f1 if kind == "sup_f1" else ft.f2
    xs = np.linspace(iv.a, iv.b, samples)
    vals = [abs(g(float(x))) for x in xs]
    i = int(np.argmax(vals))
    best = vals[i]
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, samples - 1)])
    if hi > lo:
        best = max(best, _golden_max(lambda x: abs(g(x)), lo, hi))
    return best


@pytest.mark.parametrize("samples", [SUP_SAMPLES])
def test_sup_norms_match_numpy_grid(corpus, rng, samples):
    for ft, lo, hi in corpus:
        plain = plain_callables(ft)
        for _ in range(3):
            iv = random_interval(rng, lo, hi)
            for kind in ("sup_f1", "sup_f2"):
                est = estimate_norm(plain, iv, kind)
                assert est.value == _numpy_sup(ft, iv, kind, samples), (ft.id, iv, kind)
                assert (est.method, est.samples) == ("sampled", samples)


def test_sup_norm_sample_count():
    ft = register_builtin("power", [2.0])
    iv = Interval(1.0, 2.0)
    assert estimate_norm(plain_callables(ft), iv, "sup_f1").samples == 4097


def test_sup_norm_rejects_nan_sample():
    # the NaN sits away from the maximum at b, where max() alone would skip it
    nan_f2 = lambda x: math.nan if 0.3 < x < 0.4 else 1.0 + x
    ft = FunctionTriple("nan_f2", math.exp, math.exp, nan_f2, -math.inf, math.inf)
    iv = Interval(0.0, 1.0)
    assert math.isnan(_numpy_sup(ft, iv, "sup_f2", SUP_SAMPLES))  # np.argmax picks the NaN
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "sup_f2")


def test_interior_maximum_is_refined():
    # f'' of x^4 - x^2 is 12x^2 - 2; on [-0.51, 0.5] the maximum of |f''|
    # sits strictly inside, at x = 0, off the sampling grid
    ft = register_builtin("poly", [1.0, 0.0, -1.0, 0.0, 0.0])
    est = estimate_norm(plain_callables(ft), Interval(-0.51, 0.5), "sup_f2")
    assert est.value == pytest.approx(2.0, rel=1e-9)
    assert estimate_norm(ft, Interval(-0.51, 0.5), "sup_f2").value == 2.0


# Registry functions for the exact sup norms, with the ranges intervals are
# drawn from: the conftest corpus, |f''| concave (power:2.5) and unbounded
# at 0 (power:1.5), and polys whose |f'| or |f''| peak inside the interval.
# x^5 - 5x^3 + 4x has two interior bumps in f' and one in f''.
SUP_SPECS = {ft.id: (lo, hi) for ft, lo, hi in convex_corpus()} | {
    "power:2.5": (0.1, 5.0), "power:1.5": (0.1, 5.0),
    "poly:3,-2,1,0,5,-1": (-3.0, 3.0), "poly:1,0,-1,0,0": (-1.5, 1.5),
    "poly:1,0,-5,0,4,0": (-2.5, 2.5)}


def _mp_sup(spec, deriv, a, b):
    """(sup |g| on [a, b], scale) at 50 digits, g the deriv-th derivative:
    the max at a, b and, for poly, the real roots of g' in (a, b). The scale
    is that max for every kind but poly; for poly it is the max of
    sum |c_i| |x|^i over the same points: the size of the Horner terms,
    whose rounding stays in the value where they cancel."""
    kind, _, tail = spec.partition(":")
    params = [mpmath.mpf(float(t)) for t in tail.split(",")] if tail else []
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        points = [a, b]
        if kind == "poly":
            coeffs = params
            for _ in range(deriv):
                coeffs = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
            slope = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
            if len(slope) > 1:
                points += [r.real for r in mpmath.polyroots(slope, maxsteps=200, extraprec=200)
                           if abs(r.imag) < 1e-30 and a < r.real < b]
            g = lambda x: mpmath.polyval(coeffs, x)
            size = lambda x: mpmath.polyval([abs(c) for c in coeffs], abs(x))
        else:
            if kind == "power":
                p = params[0]
                coef = p if deriv == 1 else p * (p - 1)
                g = lambda x: coef * x ** (p - deriv)
            else:
                g = {("exp", 1): mpmath.exp, ("exp", 2): mpmath.exp,
                     ("reciprocal", 1): lambda x: -1 / x ** 2,
                     ("reciprocal", 2): lambda x: 2 / x ** 3,
                     ("neglog", 1): lambda x: -1 / x,
                     ("neglog", 2): lambda x: 1 / x ** 2}[kind, deriv]
            size = lambda x: abs(g(x))
        return float(max(abs(g(x)) for x in points)), float(max(map(size, points)))


@st.composite
def sup_cases(draw):
    spec = draw(st.sampled_from(sorted(SUP_SPECS)))
    lo, hi = SUP_SPECS[spec]
    a = draw(st.floats(lo, hi - 1e-3))
    return spec, Interval(a, draw(st.floats(a + 1e-3, hi)))


@settings(max_examples=150, deadline=None)
@given(sup_cases())
def test_exact_sup_norms(case):
    """Registry sup norms are exact: never below the sampled estimate by
    more than 4 ulp, and within 8 ulp of the 50-digit maximum over the
    endpoints and the interior critical points. For poly the ulp is that of
    the terms' scale: near a root of g, as in 12x^2 - 2 at x = 0.386, the
    evaluator's own rounding is some 20 ulp of the value."""
    spec, iv = case
    ft = parse_function_spec(spec)
    for deriv, kind in ((1, "sup_f1"), (2, "sup_f2")):
        est = estimate_norm(ft, iv, kind)
        assert (est.method, est.samples) == ("exact", None)
        ref, scale = _mp_sup(spec, deriv, iv.a, iv.b)
        sampled = estimate_norm(plain_callables(ft), iv, kind).value
        assert est.value >= sampled - 4 * math.ulp(scale), (spec, iv, kind, est.value, sampled)
        assert abs(est.value - ref) <= 8 * math.ulp(scale), (spec, iv, kind, est.value, ref)


def test_lp_norms():
    iv = Interval(0.0, 1.0)
    ft = register_builtin("power", [2.0])
    assert estimate_norm(ft, iv, "lp_f2", p=2.0).value == pytest.approx(2.0, rel=1e-12)
    assert estimate_norm(ft, iv, "l1_f2").value == pytest.approx(2.0, rel=1e-12)
    assert estimate_norm(ft, iv, "l1_f2").method == "exact"
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="lp_f2 needs a finite p >= 1"):
            estimate_norm(ft, iv, "lp_f2", p=p)
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "lp_f2")
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "sup")


@pytest.mark.parametrize("spec, a, b", [("power:2", 0.0, 1.0), ("power:3", -1.0, 2.0),
                                        ("exp", -1.0, 1.0), ("neglog", 0.5, 3.0),
                                        ("poly:1,0,-3,1", -2.0, 2.0)])
def test_l1_norm_of_plain_callables_is_integrated(spec, a, b):
    """An f' without the registry's cuts has ||f''||_1 by quadrature of
    |f''|, and it agrees with the registry's exact total variation of f'."""
    ft, iv = parse_function_spec(spec), Interval(a, b)
    exact = estimate_norm(ft, iv, "l1_f2")
    est = estimate_norm(plain_callables(ft), iv, "l1_f2")
    assert exact.method == "exact" and est.method == "quadrature"
    assert est.value == pytest.approx(exact.value, rel=1e-11)


def test_holder_norm_ordering(corpus):
    """||f''||_1 <= len^(1-1/p) ||f''||_p <= len ||f''||_inf within 1e-9
    relative, for each corpus function on a generic interval."""
    for ft, lo, hi in corpus:
        iv = Interval(lo + 0.1, hi - 0.1)
        length = iv.length
        n1 = estimate_norm(ft, iv, "l1_f2").value
        ninf = estimate_norm(ft, iv, "sup_f2").value
        for p in (1.5, 2.0, 3.0):
            np_ = estimate_norm(ft, iv, "lp_f2", p=p).value
            mid = length ** (1.0 - 1.0 / p) * np_
            scale = max(n1, mid, length * ninf)
            assert n1 <= mid + 1e-9 * scale
            assert mid <= length * ninf + 1e-9 * scale


# ------------------------------------------------------------ closed forms

# Registry functions, with the ranges intervals are drawn from: every kind,
# fractional, negative, odd and even powers, x**1 and x**0 (whose f'' and
# f', f'' are 0), and polys. The integer powers and polys draw intervals
# across 0. For f of power:1.3, 0.3 and 1e-20, k = e + 1 is not a float.
CLOSED_SPECS = {"exp": (-50.0, 50.0), "reciprocal": (1e-6, 1e6), "neglog": (1e-6, 1e6),
                "power:2.5": (1e-6, 1e6), "power:-3": (1e-3, 1e3), "power:0.5": (1e-6, 1e6),
                "power:1.3": (1e-6, 1e6), "power:0.3": (1e-6, 1e6), "power:1e-20": (1e-6, 1e6),
                "power:0": (-50.0, 50.0), "power:1": (-50.0, 50.0), "power:2": (-50.0, 50.0),
                "power:3": (-50.0, 50.0), "power:7": (-20.0, 20.0),
                "poly:3,-2,1,0,5,-1": (-10.0, 10.0), "poly:1,0,-1,0,0": (-10.0, 10.0),
                "poly:2": (-10.0, 10.0)}


def _mp_integral(spec, deriv, a, b):
    """The integral over [a, b] of the deriv-th derivative of ``spec`` as its
    evaluator computes it, with the coefficients and exponents it rounded
    to floats, at 50 digits."""
    kind, _, tail = spec.partition(":")
    params = [float(t) for t in tail.split(",")] if tail else []
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if kind == "exp":  # e**b - e**a would cancel where a and b are near 0
            return mpmath.exp(a) * mpmath.expm1(b - a)
        if kind == "neglog" and deriv == 0:
            return b - b * mpmath.log(b) - (a - a * mpmath.log(a))
        if kind == "poly":
            coeffs = params
            for _ in range(deriv):
                n = len(coeffs) - 1
                coeffs = [coeffs[i] * (n - i) for i in range(n)] or [0.0]
            n = len(coeffs) - 1
            return sum(mpmath.mpf(c) * (b ** (n - i + 1) - a ** (n - i + 1)) / (n - i + 1)
                       for i, c in enumerate(coeffs))
        if kind == "neglog":
            coef, expo = ((-1.0, -1.0), (1.0, -2.0))[deriv - 1]
        else:
            p = params[0] if kind == "power" else -1.0
            coef, expo = ((1.0, p), (p, p - 1.0), (p * (p - 1.0), p - 2.0))[deriv]
        if coef == 0.0:
            return mpmath.mpf(0)
        k = mpmath.mpf(expo) + 1
        if k == 0:
            return coef * (mpmath.log(b) - mpmath.log(a))
        # x**k for x < 0 only arises for integer k
        power = lambda x: x ** k if x >= 0 else (-1) ** int(k) * (-x) ** k  # noqa: E731
        return coef * (power(b) - power(a)) / k


@st.composite
def closed_form_cases(draw):
    """(spec, deriv, a, b), b - a either from 1 down to 1e-12 of max(|a|, 1)
    or anywhere in the range."""
    spec = draw(st.sampled_from(sorted(CLOSED_SPECS)))
    lo, hi = CLOSED_SPECS[spec]
    a = draw(st.floats(lo, hi))
    if draw(st.booleans()):
        b = a + max(abs(a), 1.0) * 10.0 ** -draw(st.floats(0.0, 12.0))
    else:
        b = draw(st.floats(a, hi).filter(lambda b: b > a))
    return spec, draw(st.integers(0, 2)), a, b


def _outcome(g, a, b):
    try:
        return integrate(g, a, b)
    except (DomainError, IntegrationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(closed_form_cases())
# e**709.9 overflows, so GK15 runs and fails as for a plain callable
@example(("exp", 0, 0.0, 709.9))
@example(("exp", 2, 700.0, 709.9))
@example(("power:2.5", 0, 1e-3, 1.000000000001e-3))
@example(("poly:3,-2,1,0,5,-1", 0, -1.0, 1.0))
@example(("exp", 0, -8.568110029432892e-247, 0.0))
def test_closed_forms_match_mpmath(case):
    """A registry evaluator is integrated in closed form, with 0
    subdivisions, within its error estimate of the 50-digit integral. Where
    the closed form is not finite, GK15 runs: the value or the error is the
    one a plain callable gets."""
    spec, deriv, a, b = case
    g = parse_function_spec(spec)[1 + deriv]
    fn, args = g.integral
    try:
        value, bound = fn(a, b, *args)
    except OverflowError:
        value = bound = math.inf
    if not (math.isfinite(value) and bound < math.inf):
        assert _outcome(g, a, b) == _outcome(lambda x: g(x), a, b)
        return
    est = integrate(g, a, b)
    assert est == (value, bound, 0)
    exact = _mp_integral(spec, deriv, a, b)
    assert abs(mpmath.mpf(est.value) - exact) <= est.abs_error_estimate, (case, est, exact)


def test_closed_form_error_estimate_is_honest():
    """exp on [0, 40]: GK15 took 542 segments and reported an error
    estimate of 2.2e-14, below the value's one-ulp spacing of 32. The
    closed form's bound covers its rounding."""
    est = integrate(register_builtin("exp").f, 0.0, 40.0)
    assert est.subdivisions == 0
    assert math.ulp(est.value) == 32.0 <= est.abs_error_estimate <= 16 * 32.0
    exact = _mp_integral("exp", 0, 0.0, 40.0)
    assert abs(mpmath.mpf(est.value) - exact) <= est.abs_error_estimate


@pytest.mark.parametrize("spec", ["exp", "reciprocal", "neglog", "power:2.5", "poly:1,0,-3"])
def test_every_registry_evaluator_has_a_closed_form(spec):
    """0 subdivisions for f, f' and f'' of every kind, whatever the
    tolerance; a plain callable runs at least one GK15 segment."""
    ft = parse_function_spec(spec)
    for g in (ft.f, ft.f1, ft.f2):
        est = integrate(g, 0.5, 2.0)
        assert est.subdivisions == 0
        assert integrate(g, 0.5, 2.0, tol=1.0) == est
        assert integrate(lambda x, g=g: g(x), 0.5, 2.0).subdivisions >= 1


def test_an_unrelated_integral_attribute_runs_gk15():
    """Only a ``(fn, args)`` pair is a closed form: a callable whose
    ``integral`` is a method, as a spline's is, integrates with GK15."""
    class Spline:
        def __call__(self, x):
            return x * x

        def integral(self, a, b):
            raise AssertionError("not a closed form of the oracle")

    est = integrate(Spline(), 0.0, 1.0)
    assert est.subdivisions >= 1
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-12)
