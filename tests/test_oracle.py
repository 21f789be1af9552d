"""Reference integrator and norm estimators: closed-form corpus, polynomial
exactness, failure modes, and the Holder ordering of the norm estimates."""

import math

import numpy as np
import pytest

from conftest import random_interval
from quadcert.errors import IntegrationError, ParameterError
from quadcert.functions import FunctionTriple, Interval, register_builtin
from quadcert.oracle import _golden_max, estimate_norm, integrate

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
    with pytest.raises(ParameterError):
        integrate(f, 0.0, 1.0, tol=1e-15)


def test_nonconvergence_raises():
    # integrable endpoint singularity: bisection cannot meet 1e-12 within
    # a small segment budget
    with pytest.raises(IntegrationError):
        integrate(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, tol=1e-12, limit=64)


def test_nonfinite_sample_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0, tol=1e-10)


def test_sup_norms():
    iv = Interval(0.0, 1.0)
    est = estimate_norm(register_builtin("power", [2.0]), iv, "sup_f2")
    assert est.value == 2.0
    assert est.samples is not None
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


@pytest.mark.parametrize("samples", [1, 2, 3, 33, 4097])
def test_sup_norms_match_numpy_grid(corpus, rng, samples):
    for ft, lo, hi in corpus:
        for _ in range(3):
            iv = random_interval(rng, lo, hi)
            for kind in ("sup_f1", "sup_f2"):
                est = estimate_norm(ft, iv, kind, samples=samples)
                assert est.value == _numpy_sup(ft, iv, kind, samples), (ft.id, iv, kind)


def test_sup_norm_sample_count():
    ft = register_builtin("power", [2.0])
    iv = Interval(1.0, 2.0)
    assert estimate_norm(ft, iv, "sup_f1", samples=1).value == 2.0  # |f'(a)| only
    for bad in (0, -1):
        with pytest.raises(ParameterError):
            estimate_norm(ft, iv, "sup_f1", samples=bad)


def test_sup_norm_rejects_nan_sample():
    # the NaN sits away from the maximum at b, where max() alone would skip it
    nan_f2 = lambda x: math.nan if 0.3 < x < 0.4 else 1.0 + x
    ft = FunctionTriple("nan_f2", math.exp, math.exp, nan_f2, -math.inf, math.inf, False)
    iv = Interval(0.0, 1.0)
    assert math.isnan(_numpy_sup(ft, iv, "sup_f2", 33))  # np.argmax picks the NaN
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "sup_f2", samples=33)


def test_interior_maximum_is_refined():
    # f'' of x^4 - x^2 is 12x^2 - 2; on [-0.51, 0.5] the maximum of |f''|
    # sits strictly inside, at x = 0, off the sampling grid
    ft = register_builtin("poly", [1.0, 0.0, -1.0, 0.0, 0.0])
    est = estimate_norm(ft, Interval(-0.51, 0.5), "sup_f2")
    assert est.value == pytest.approx(2.0, rel=1e-9)


def test_lp_norms():
    iv = Interval(0.0, 1.0)
    ft = register_builtin("power", [2.0])
    assert estimate_norm(ft, iv, "lp_f2", p=2.0).value == pytest.approx(2.0, rel=1e-12)
    assert estimate_norm(ft, iv, "l1_f2").value == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "lp_f2", p=0.5)
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "lp_f2")
    with pytest.raises(ParameterError):
        estimate_norm(ft, iv, "sup")


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
