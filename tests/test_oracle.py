"""Reference integrator and norm estimators: closed-form corpus, polynomial
exactness, failure modes, and the Holder ordering of the norm estimates."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import convex_corpus, plain_callables, random_interval
from quadcert.errors import IntegrationError, ParameterError
from quadcert.functions import FunctionTriple, Interval, parse_function_spec, register_builtin
from quadcert.oracle import SUP_SAMPLES, _golden_max, estimate_norm, integrate

CLOSED_FORMS = [
    (register_builtin("power", [2.0]).f, 0.0, 1.0, 1.0 / 3.0),
    (register_builtin("reciprocal").f, 1.0, 2.0, math.log(2.0)),
    (register_builtin("exp").f, 0.0, 1.0, math.e - 1.0),
]


@pytest.mark.parametrize("g,a,b,expected", CLOSED_FORMS)
def test_closed_forms(g, a, b, expected):
    est = integrate(g, a, b, tol=1e-12)
    assert est.value == pytest.approx(expected, abs=1e-12)
    assert est.abs_error_estimate <= 1e-12


def test_polynomial_exactness_without_subdivision():
    """Degree <= 5 polynomials integrate exactly at the first level."""
    ft = register_builtin("poly", [3.0, -2.0, 1.0, 0.0, 5.0, -1.0])
    exact = 3.0 / 6.0 - 2.0 / 5.0 + 1.0 / 4.0 + 5.0 / 2.0 - 1.0
    est = integrate(ft.f, 0.0, 1.0, tol=1e-12)
    assert est.subdivisions == 1
    assert est.value == pytest.approx(exact, rel=1e-13)


def test_monotone_tolerance():
    """Halving the tolerance never worsens the error on the closed-form
    corpus (1 ulp slack for accumulation noise)."""
    for g, a, b, expected in CLOSED_FORMS:
        prev = None
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            err = abs(integrate(g, a, b, tol=tol).value - expected)
            if prev is not None:
                assert err <= prev + 2e-16 * abs(expected)
            prev = err


def test_error_estimate_within_tolerance(corpus, rng):
    for ft, lo, hi in corpus:
        a = float(rng.uniform(lo, lo + 0.5))
        b = float(rng.uniform(hi - 0.5, hi))
        est = integrate(ft.f, a, b, tol=1e-10)
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
