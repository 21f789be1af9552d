"""Error certificates: frozen example values, validity sweeps against the
oracle, algebraic reductions, endpoint/midpoint closed forms, and
hypothesis flags."""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (INTERIOR_PEAK, SINGLE_SPECS, convex_corpus, plain_callables,
                      random_interval, random_x, single_cases)
from quadcert.bounds import (
    HolderPair,
    bound_cerone_dragomir,
    bound_convex,
    bound_holder,
    bound_ostrowski,
    bound_power_mean,
)
from quadcert.errors import IntegrationError, ParameterError
from quadcert.functions import Interval, parse_function_spec, register_builtin
from quadcert.oracle import estimate_norm, integrate
from quadcert.rules import perturbed_trapezoid_rule

POWER2 = register_builtin("power", [2.0])
UNIT = Interval(0.0, 1.0)


def actual_avg_error(ft, iv, cert):
    avg = integrate(ft.f, iv.a, iv.b).value / iv.length
    return abs(avg - cert.rule.value_avg)


def holds(actual, bound):
    return actual <= bound * (1.0 + 1e-9) + 1e-12


# ------------------------------------------------------------------ convex

@pytest.mark.parametrize("x,expected", [(1.0, 1.0 / 12.0), (0.75, 1.0 / 48.0), (0.5, 1.0 / 12.0)])
def test_convex_constant_f2_equality(x, expected):
    cert = bound_convex(POWER2, UNIT, x)
    assert cert.bound_avg == pytest.approx(expected, abs=1e-15)
    assert actual_avg_error(POWER2, UNIT, cert) == pytest.approx(cert.bound_avg, abs=1e-12)


def test_convex_sharp_for_any_constant_f2(rng):
    """With f'' constant the certificate equals the actual deviation at
    every admissible x."""
    ft = register_builtin("poly", [2.5, 1.0, -3.0])  # f'' = 5
    for _ in range(20):
        iv = random_interval(rng, -2.0, 2.0)
        x = random_x(rng, iv)
        cert = bound_convex(ft, iv, x)
        assert actual_avg_error(ft, iv, cert) == pytest.approx(cert.bound_avg, abs=1e-12)


# ------------------------------------------------------------------ holder

def test_holder_example():
    cert = bound_holder(POWER2, UNIT, 1.0, HolderPair(2.0, 2.0))
    assert cert.bound_total == pytest.approx(1.0 / (4.0 * math.sqrt(5.0)), rel=1e-14)
    assert actual_avg_error(POWER2, UNIT, cert) == pytest.approx(1.0 / 12.0, abs=1e-13)
    assert holds(actual_avg_error(POWER2, UNIT, cert), cert.bound_avg)


def test_holder_midpoint_example():
    cert = bound_holder(POWER2, UNIT, 0.5, HolderPair(2.0, 2.0))
    assert cert.bound_avg == pytest.approx(1.0 / (4.0 * math.sqrt(5.0)), rel=1e-14)
    assert holds(1.0 / 12.0, cert.bound_avg)


def test_holder_zero_for_linear():
    ft = register_builtin("poly", [1.0, 1.0])
    cert = bound_holder(ft, UNIT, 0.9, HolderPair(2.0, 2.0))
    assert cert.bound_avg == 0.0
    assert actual_avg_error(ft, UNIT, cert) == pytest.approx(0.0, abs=1e-14)


def test_holder_pair_validation():
    """HolderPair admits finite conjugate p, q > 1 and nothing else; 1e20
    has the conjugate 1.0 in floats."""
    for p, q in ((1.0, 2.0), (2.0, 3.0), (None, None), (0.5, None), (None, 1.0), (1e20, None),
                 (math.nan, None), (None, math.nan), (2.0, math.nan), (math.nan, math.nan),
                 (math.inf, None), (None, math.inf), (math.inf, 1.0000000000001),
                 (-math.inf, None)):
        with pytest.raises(ParameterError):
            HolderPair(p, q)


def test_holder_pair_completes_the_missing_exponent():
    hp = HolderPair.conjugate(1.5)
    assert hp.q == pytest.approx(3.0, rel=1e-15)
    assert HolderPair(1.5) == HolderPair(p=1.5) == hp == (1.5, 1.5 / 0.5)
    assert HolderPair(q=3.0) == (3.0 / 2.0, 3.0)
    assert HolderPair(2.0, 2.0) == HolderPair(2.0) == HolderPair(q=2.0)


# -------------------------------------------------------------- power mean

def test_power_mean_q1_is_convex(corpus, rng):
    for ft, lo, hi in corpus:
        for _ in range(30):
            iv = random_interval(rng, lo + 0.05, hi - 0.05)
            x = random_x(rng, iv)
            pm = bound_power_mean(ft, iv, x, 1.0)
            cv = bound_convex(ft, iv, x)
            assert pm.bound_avg == pytest.approx(cv.bound_avg, rel=1e-14)


def test_power_mean_examples():
    cert = bound_power_mean(POWER2, UNIT, 1.0, 1.0)
    assert cert.bound_total == pytest.approx(1.0 / 12.0, abs=1e-15)

    recip = register_builtin("reciprocal")
    iv = Interval(1.0, 2.0)
    cert = bound_power_mean(recip, iv, 2.0, 2.0)
    assert cert.bound_total == pytest.approx(math.sqrt((4.0 + 0.0625) / 2.0) / 24.0, rel=1e-14)
    actual = abs(math.log(2.0) - cert.rule.value_avg)
    assert actual == pytest.approx(0.036897180559945296, abs=1e-12)
    assert holds(actual, cert.bound_avg)

    cert = bound_power_mean(POWER2, UNIT, 0.5, 3.0)
    assert cert.bound_avg == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert actual_avg_error(POWER2, UNIT, cert) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_power_mean_q_validation():
    """At q = inf the bound read inf**0 = 1 as the mean of |f''| and fell
    below the actual error, with the convexity flag set."""
    for q in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="must be finite and >= 1"):
            bound_power_mean(POWER2, UNIT, 0.75, q)
        with pytest.raises(ParameterError):
            bound_power_mean(register_builtin("exp"), UNIT, 1.0, q)


# ---------------------------------------------------------- validity sweep

def test_validity_sweep(corpus, rng):
    """Actual deviation never exceeds the bound for any family on functions
    with convex |f''| (module-scale sweep; the acceptance suite runs the
    full 100-sample version)."""
    for ft, lo, hi in corpus:
        for _ in range(20):
            iv = random_interval(rng, lo + 0.05, hi - 0.05)
            x = random_x(rng, iv)
            avg = integrate(ft.f, iv.a, iv.b).value / iv.length
            certs = [bound_convex(ft, iv, x)]
            certs += [bound_holder(ft, iv, x, HolderPair.conjugate(p)) for p in (1.5, 2.0, 3.0)]
            certs += [bound_power_mean(ft, iv, x, q) for q in (1.0, 2.0, 5.0)]
            for cert in certs:
                actual = abs(avg - cert.rule.value_avg)
                assert holds(actual, cert.bound_avg), (ft.id, iv, x, cert.family)


# ----------------------------------------------- specialization closed forms

def test_specialization_closed_forms(corpus, rng):
    """At x = b and x = midpoint each family reduces to a simple closed
    form in (b - a) and the endpoint second derivatives."""
    for ft, lo, hi in corpus:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        length = iv.length
        fa, fb = abs(ft.f2(iv.a)), abs(ft.f2(iv.b))

        assert bound_convex(ft, iv, iv.b).bound_total == pytest.approx(
            length ** 3 / 48.0 * (fa + fb), rel=1e-14)
        assert bound_convex(ft, iv, iv.midpoint).bound_avg == pytest.approx(
            length ** 2 / 48.0 * (fa + fb), rel=1e-14)

        for p in (1.5, 2.0, 3.0):
            hp = HolderPair.conjugate(p)
            mean_q = ((fa ** hp.q + fb ** hp.q) / 2.0) ** (1.0 / hp.q)
            scale = length ** 2 / (8.0 * (2.0 * p + 1.0) ** (1.0 / p)) * mean_q
            assert bound_holder(ft, iv, iv.b, hp).bound_total == pytest.approx(
                scale * length, rel=1e-13)
            assert bound_holder(ft, iv, iv.midpoint, hp).bound_avg == pytest.approx(
                scale, rel=1e-13)

        for q in (1.0, 2.0, 5.0):
            mean_q = ((fa ** q + fb ** q) / 2.0) ** (1.0 / q)
            assert bound_power_mean(ft, iv, iv.b, q).bound_total == pytest.approx(
                length ** 3 / 24.0 * mean_q, rel=1e-14)
            assert bound_power_mean(ft, iv, iv.midpoint, q).bound_avg == pytest.approx(
                length ** 2 / 24.0 * mean_q, rel=1e-14)


# --------------------------------------------------------- hypothesis flags

def test_trapezoid_hypothesis_flag():
    """A certificate at x = b certifies the perturbed trapezoid, which keeps
    the derivative correction: it carries only its convexity flag, however
    f'(a) and f'(b) compare, as at an interior x."""
    linear = register_builtin("poly", [1.0, 0.0])
    for ft, x in ((POWER2, 1.0), (linear, 1.0), (POWER2, 0.75)):
        assert bound_convex(ft, UNIT, x).hypothesis_flags == (("abs_f2_convex", True),)
    exp = register_builtin("exp")
    cert = bound_convex(exp, UNIT, 1.0)
    assert cert.hypothesis_flags == (("abs_f2_convex", True),)
    error = abs(math.e - 1.0 - cert.rule.value_total)
    assert 0.07 < error <= cert.bound_total


def test_power_q_convexity_flag():
    flags = dict(bound_power_mean(POWER2, UNIT, 0.75, 2.0).hypothesis_flags)
    assert flags["abs_f2_pow_q_convex"] is True
    concave = register_builtin("power", [2.5])
    flags = dict(bound_convex(concave, Interval(0.1, 1.0), 0.9).hypothesis_flags)
    assert flags["abs_f2_convex"] is False


# --------------------------------------------------------------- ostrowski

def test_ostrowski_examples():
    cert = bound_ostrowski(POWER2, UNIT, 0.5, f1_sup=2.0)
    assert cert.bound_avg == pytest.approx(0.5, abs=1e-15)
    assert actual_avg_error(POWER2, UNIT, cert) == pytest.approx(1.0 / 12.0, abs=1e-13)

    cert = bound_ostrowski(POWER2, UNIT, 1.0, f1_sup=2.0)
    assert cert.bound_avg == pytest.approx(1.0, abs=1e-15)


def test_ostrowski_sharpness_witness():
    """f(x) = x at x = 0 with sup|f'| = 1 attains the bound exactly."""
    ft = register_builtin("poly", [1.0, 0.0])
    cert = bound_ostrowski(ft, UNIT, 0.0, f1_sup=1.0)
    assert cert.bound_avg == pytest.approx(0.5, abs=1e-15)
    assert actual_avg_error(ft, UNIT, cert) == pytest.approx(0.5, abs=1e-14)


def test_ostrowski_full_interval_and_estimation():
    cert = bound_ostrowski(POWER2, UNIT, 0.1)  # left half: allowed here
    assert cert.params["f1_sup"] == pytest.approx(2.0, rel=1e-9)
    assert cert.params["norm_method"] == "exact"
    assert "norm_samples" not in cert.params
    with pytest.raises(ParameterError):
        bound_ostrowski(POWER2, UNIT, 1.5)


def test_plain_callables_record_sampled_norms():
    """Plain callables carry no exact sup: their certificates record the
    sampled estimate and its density."""
    plain = plain_callables(POWER2)
    cert = bound_ostrowski(plain, UNIT, 0.1)
    assert cert.params == {"norm_method": "sampled", "norm_samples": 4097, "f1_sup": 2.0}
    cert = bound_cerone_dragomir(plain, UNIT, "inf")
    assert cert.params == {"case": "inf", "norm_method": "sampled", "norm_samples": 4097,
                           "norm": 2.0}


def test_ostrowski_inconsistent_sup_rejected():
    for bad in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="must be finite and >= the exact"):
            bound_ostrowski(POWER2, UNIT, 0.5, f1_sup=bad)
    ft = parse_function_spec(INTERIOR_PEAK)
    with pytest.raises(ParameterError):
        bound_ostrowski(ft, UNIT, 0.5, f1_sup=0.9996)
    assert bound_ostrowski(ft, UNIT, 0.5, f1_sup=1.0).params == {"norm_method": "supplied",
                                                                 "f1_sup": 1.0}
    with pytest.raises(ParameterError, match="the sampled sup_f1"):
        bound_ostrowski(plain_callables(ft), UNIT, 0.5, f1_sup=0.9996)


def test_ostrowski_tiny_interval():
    """length**2 underflows to 0.0 on [0, 1e-300]; the factor from
    (x - a) / length - 1/2 does not divide by it."""
    iv = Interval(0.0, 1e-300)
    cert = bound_ostrowski(parse_function_spec("exp"), iv, 9e-301)
    assert cert.bound_avg == pytest.approx((0.25 + 0.4 ** 2) * 1e-300 * math.exp(1e-300))


@settings(max_examples=300, deadline=None)
@given(case=single_cases())
@example(case=(parse_function_spec("neglog"), Interval(4.0, 4.001), 4.001))
def test_ostrowski_matches_exact_formula(case):
    """bound_avg is within 4 ulp of [1/4 + (x - mid)^2/(b-a)^2] * (b-a) * f1_sup
    evaluated exactly on the same floats. A rounded midpoint subtracted from
    x cancels on short intervals: 4096 ulp low on the example."""
    ft, iv, x = case
    cert = bound_ostrowski(ft, iv, x)
    a, b, x, sup = map(Fraction, (iv.a, iv.b, x, cert.params["f1_sup"]))
    exact = float((Fraction(1, 4) + ((x - (a + b) / 2) / (b - a)) ** 2) * (b - a) * sup)
    assert abs(cert.bound_avg - exact) <= 4 * math.ulp(exact)


@st.composite
def holder_cases(draw):
    """(FunctionTriple, Interval, x, p): a registry function on an interval
    1e-9 to 1 long whose left end is at least 0.01 from 0, x in the right
    half, x = midpoint and x = b included, and p in [1.05, 6]."""
    spec = draw(st.sampled_from(sorted(SINGLE_SPECS)))
    lo, hi = SINGLE_SPECS[spec]
    a = draw(st.floats(lo, hi - 1e-3).filter(lambda v: abs(v) >= 0.01))
    iv = Interval(a, min(a + 10.0 ** draw(st.floats(-9.0, 0.0)), hi))
    u = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    x = min(iv.midpoint + u * (iv.b - iv.midpoint), iv.b)
    return parse_function_spec(spec), iv, x, draw(st.floats(1.05, 6.0))


@settings(max_examples=300, deadline=None)
@given(case=holder_cases())
@example(case=(parse_function_spec("exp"), Interval(2.5856764892051434, 2.585676494578846),
               2.5856764936825285, 3.0))
@example(case=(POWER2, Interval(0.0, 1e100), 1e100, 2.0))  # (b-x)^(2p+1) would overflow
def test_holder_matches_exact_formula(case):
    """bound_total and bound_avg are within 1e-14 relative of the printed
    formula, 2^(1/p-1) / ((2p+1)^(1/p) (b-a)^(1/p)) * [(b-x)^(2p+1) +
    (x-mid)^(2p+1)]^(1/p) * M_q in average form, at 50 digits on the same
    floats and the same |f''(a)|, |f''(b)|. The first example lost 2.9e-7
    to the rounded midpoint; the second overflowed in (b-x)^(2p+1)."""
    ft, iv, x, p = case
    hp = HolderPair.conjugate(p)
    cert = bound_holder(ft, iv, x, hp)
    with mpmath.workdps(50):
        a, b, x, p, q = map(mpmath.mpf, (iv.a, iv.b, x, hp.p, hp.q))
        fa, fb = (mpmath.mpf(abs(ft.f2(v))) for v in (iv.a, iv.b))
        e = 2 * p + 1
        # the float midpoint can sit half an ulp below the exact one
        moment = (b - x) ** e + max(x - (a + b) / 2, 0) ** e
        avg = (2 ** (1 / p - 1) / (e ** (1 / p) * (b - a) ** (1 / p)) * moment ** (1 / p)
               * ((fa ** q + fb ** q) / 2) ** (1 / q))
        for got, want in ((cert.bound_avg, avg), (cert.bound_total, avg * (b - a))):
            assert abs(got - want) <= 1e-14 * want, (got, want)


# --------------------------------------------------------- cerone-dragomir

def test_cerone_dragomir_cases():
    cert = bound_cerone_dragomir(POWER2, UNIT, "inf", norm=2.0)
    assert cert.bound_total == pytest.approx(1.0 / 12.0, abs=1e-16)
    actual = abs(integrate(POWER2.f, 0.0, 1.0).value - cert.rule.value_total)
    assert actual == pytest.approx(1.0 / 12.0, abs=1e-13)

    cert = bound_cerone_dragomir(POWER2, UNIT, "l1", norm=2.0)
    assert cert.bound_total == pytest.approx(0.25, abs=1e-16)

    cert = bound_cerone_dragomir(POWER2, UNIT, "lp", norm=2.0, p=2.0, q=2.0)
    assert cert.bound_total == pytest.approx(1.0 / (4.0 * math.sqrt(5.0)), rel=1e-14)


def test_cerone_dragomir_oracle_norms(corpus, rng):
    """With oracle-estimated norms, every case dominates the actual
    perturbed-trapezoid error."""
    for ft, lo, hi in corpus:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        reference = integrate(ft.f, iv.a, iv.b).value
        actual = abs(reference - perturbed_trapezoid_rule(ft, iv).value_total)
        for case, kwargs in (("inf", {}), ("lp", {"p": 2.0}), ("l1", {})):
            cert = bound_cerone_dragomir(ft, iv, case, **kwargs)
            assert holds(actual, cert.bound_total), (ft.id, case)
            assert cert.params["norm"] > 0.0
            assert cert.params["norm_method"] == "exact"
            assert "norm_samples" not in cert.params


def test_cerone_dragomir_validation():
    with pytest.raises(ParameterError):
        bound_cerone_dragomir(POWER2, UNIT, "sup")
    with pytest.raises(ParameterError):
        bound_cerone_dragomir(POWER2, UNIT, "lp")  # p missing
    with pytest.raises(ParameterError):
        bound_cerone_dragomir(POWER2, UNIT, "inf", norm=0.0)
    linear = register_builtin("poly", [1.0, 0.0])
    cert = bound_cerone_dragomir(linear, UNIT, "inf", norm=0.0)
    assert cert.bound_total == 0.0
    for case in ("inf", "l1"):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="must be finite and >= the exact"):
                bound_cerone_dragomir(linear, UNIT, case, norm=bad)
    for case in ("inf", "l1"):  # 1.9 is below both sup|f''| = 2 and its L1 norm 2
        kind = "sup_f2" if case == "inf" else "l1_f2"
        with pytest.raises(ParameterError, match=rf"^norm=1\.9 must be finite and >= the exact "
                                                 rf"{kind} 2\.0$"):
            bound_cerone_dragomir(POWER2, UNIT, case, norm=1.9)
    assert bound_cerone_dragomir(POWER2, UNIT, "l1", norm=2.0).params == {
        "case": "l1", "norm_method": "supplied", "norm": 2.0}
    with pytest.raises(ParameterError):
        bound_cerone_dragomir(POWER2, UNIT, "lp", norm=0.0, p=2.0)


# f'' = 27720 * prod_{i=0..8} (8x - i) vanishes at x = 0, 1/8, ..., 1, the
# nine points a 9-point grid on [0, 1] sees, but its sup there is 1.37e8
NINE_ROOTS = ("poly:33822867456,-186025771008,440842321920,-588597166080,485501829120,"
              "-254650023936,83824570368,-16200898560,1490227200,0,0,0")


def test_zero_norm_needs_f2_to_vanish():
    ft = parse_function_spec(NINE_ROOTS)
    assert [ft.f2(i / 8.0) for i in range(9)] == [0.0] * 9
    for case, kind in (("inf", r"exact sup_f2 136636372\.4"), ("l1", "exact l1_f2 ")):
        with pytest.raises(ParameterError, match=f"norm=0.0 must be finite and >= the {kind}"):
            bound_cerone_dragomir(ft, UNIT, case, norm=0.0)
    # the Lp norm at an integer p is exact too; GK15 could not meet the
    # oracle's absolute tolerance on this f'' and raised IntegrationError
    with pytest.raises(ParameterError, match="norm=0.0 must be finite and >= the lower end "
                                             r"of the exact lp_f2 4\d{7}\."):
        bound_cerone_dragomir(ft, UNIT, "lp", norm=0.0, p=2.0)


# ---------------------------------------------------------- supplied norms

CORPUS = {ft.id: (ft, lo, hi) for ft, lo, hi in convex_corpus()}
# the norm each certificate uses: Ostrowski's, then the three Cerone-Dragomir cases
NORM_OF = {"ostrowski": "sup_f1", "inf": "sup_f2", "lp": "lp_f2", "l1": "l1_f2"}


@st.composite
def corpus_intervals(draw):
    """(spec, plain, a, b): a corpus function, whether to take its
    plain-callable copy, and an interval of its range."""
    spec = draw(st.sampled_from(sorted(CORPUS)))
    _, lo, hi = CORPUS[spec]
    a = draw(st.floats(lo, hi - 0.05))
    return spec, draw(st.booleans()), a, draw(st.floats(a + 0.05, hi))


def _supplied_certificate(ft, iv, which, p, supplied=None):
    if which == "ostrowski":
        return bound_ostrowski(ft, iv, iv.b, f1_sup=supplied)
    return bound_cerone_dragomir(ft, iv, which, norm=supplied, p=p)


@settings(max_examples=150, deadline=None)
@given(inputs=corpus_intervals(), which=st.sampled_from(sorted(NORM_OF)),
       p=st.sampled_from((1.5, 2.0, 3.0)), supplied=st.none() | st.floats(0.0, 100.0),
       scale=st.just(1.0) | st.floats(0.0, 2.0), ulps=st.integers(-2, 2))
# a 1e-9 L1 norm of exp gave a bound 1.25e-10 below the error 0.0739
@example(inputs=("exp", False, 0.0, 1.0), which="l1", p=2.0, supplied=1e-9, scale=1.0, ulps=0)
# 1.9 is below the exact L1 norm 2.0 of f'' = 2, yet sup-based checks let it pass
@example(inputs=("power:2", False, 0.0, 1.0), which="l1", p=2.0, supplied=1.9, scale=1.0,
         ulps=0)
# one ulp below a sampled sup is refused
@example(inputs=("power:2", True, 0.0, 1.0), which="ostrowski", p=2.0, supplied=None,
         scale=1.0, ulps=-1)
# the exact Lp norm 2.0 of f'' = 2 on [0, 1] lies inside the enclosure
@example(inputs=("power:2", False, 0.0, 1.0), which="lp", p=2.0, supplied=2.0, scale=1.0,
         ulps=0)
# one ulp below the enclosure's lower end is refused
@example(inputs=("reciprocal", False, 0.5, 2.0), which="lp", p=3.0, supplied=None, scale=1.0,
         ulps=-1)
def test_supplied_norm_is_admitted_from_the_estimate_up(inputs, which, p, supplied, scale, ulps):
    """A supplied norm below the least the package admits for the same norm
    is refused: the estimate, or for an exact Lp norm, whose estimate is the
    upper end of an enclosure, the enclosure's lower end. The least, or any
    finite value above it, is recorded as supplied, and from the estimate
    up it gives a bound no smaller than the default certificate's. Without
    a drawn value the supplied one is the least times ``scale``, moved by
    ``ulps`` units in the last place."""
    spec, plain, a, b = inputs
    ft = plain_callables(CORPUS[spec][0]) if plain else CORPUS[spec][0]
    iv = Interval(a, b)
    try:
        norm = estimate_norm(ft, iv, NORM_OF[which], p=p if which == "lp" else None)
    except IntegrationError:
        # an Lp quadrature that misses the oracle's absolute tolerance
        # (ROADMAP item 3) fails with a supplied norm too
        with pytest.raises(IntegrationError):
            _supplied_certificate(ft, iv, which, p, supplied or 1.0)
        return
    est = norm.value
    least = getattr(norm, "lower", est)
    assert least <= est
    if supplied is None:
        supplied = least * scale
        for _ in range(abs(ulps)):
            supplied = math.nextafter(supplied, math.copysign(math.inf, ulps))
    if supplied < least:
        with pytest.raises(ParameterError,
                           match=f"must be finite and >= the .* {re.escape(repr(least))}$"):
            _supplied_certificate(ft, iv, which, p, supplied)
        return
    cert = _supplied_certificate(ft, iv, which, p, supplied)
    assert cert.params["norm_method"] == "supplied"
    assert "norm_samples" not in cert.params
    if supplied >= est:
        assert cert.bound_total >= _supplied_certificate(ft, iv, which, p).bound_total


# ------------------------------------------------------------- certificates

def test_certificate_total_avg_consistency(corpus, rng):
    for ft, lo, hi in corpus:
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        x = random_x(rng, iv)
        for cert in (bound_convex(ft, iv, x),
                     bound_holder(ft, iv, x, HolderPair(2.0, 2.0)),
                     bound_power_mean(ft, iv, x, 2.0),
                     bound_cerone_dragomir(ft, iv, "inf")):
            assert cert.bound_avg >= 0.0
            assert cert.bound_total == pytest.approx(cert.bound_avg * iv.length, rel=1e-15)
