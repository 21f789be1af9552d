"""Special means and proposition checkers: frozen values with oracle
cross-checks, the mean chain, p-logarithmic monotonicity and limits, and
consistency between proposition right sides and the midpoint bounds."""

import math

import pytest

from quadcert.bounds import HolderPair, bound_convex, bound_holder, bound_power_mean
from quadcert.errors import ParameterError
from quadcert.functions import Interval, register_builtin
from quadcert.means import check_proposition, mean_value, means_chain_check
from quadcert.oracle import integrate


def test_mean_examples():
    assert mean_value("arithmetic", 1.0, 2.0) == 1.5
    assert mean_value("geometric", 1.0, 4.0) == 2.0
    assert mean_value("harmonic", 1.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert mean_value("logarithmic", 1.0, 2.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert mean_value("identric", 1.0, 2.0) == pytest.approx(4.0 / math.e, rel=1e-14)
    assert mean_value("p_logarithmic", 1.0, 2.0, p=2.0) == pytest.approx(
        math.sqrt(7.0 / 3.0), rel=1e-15)


def test_means_against_oracle():
    """The logarithmic and identric means are averages in disguise:
    1/L = avg of 1/x and ln I = avg of ln x."""
    inv_l = integrate(register_builtin("reciprocal").f, 1.0, 2.0).value
    assert mean_value("logarithmic", 1.0, 2.0) == pytest.approx(1.0 / inv_l, abs=1e-12)
    ln_i = -integrate(register_builtin("neglog").f, 1.0, 2.0).value
    assert math.log(mean_value("identric", 1.0, 2.0)) == pytest.approx(ln_i, abs=1e-12)
    assert ln_i == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)


def test_equal_arguments_collapse():
    for kind in ("arithmetic", "geometric", "harmonic", "logarithmic", "identric"):
        assert mean_value(kind, 3.0, 3.0) == 3.0
    assert mean_value("p_logarithmic", 3.0, 3.0, p=2.0) == 3.0


def test_mean_validation():
    with pytest.raises(ParameterError):
        mean_value("median", 1.0, 2.0)
    with pytest.raises(ParameterError):
        mean_value("arithmetic", 2.0, 1.0)
    with pytest.raises(ParameterError):
        mean_value("geometric", 0.0, 1.0)
    with pytest.raises(ParameterError):
        mean_value("arithmetic", -1.0, 1.0)
    for bad_p in (-1.0, 0.0, None, math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            mean_value("p_logarithmic", 1.0, 2.0, p=bad_p)
    # the limit p -> inf is max(a, b) = 2, but the formula read inf**0 = 1
    with pytest.raises(ParameterError, match="needs a finite exponent p, got inf"):
        mean_value("p_logarithmic", 1.0, 2.0, p=math.inf)


@pytest.mark.parametrize("kind,a,b", [
    ("harmonic", 1e300, 1.7e308),    # 2ab overflows
    ("geometric", 1e300, 1.7e308),   # ab overflows
    ("identric", 1e300, 1.7e308),    # b ln b overflows
    ("arithmetic", 1e308, 1.7e308),  # a + b overflows
])
def test_mean_that_overflows_raises(kind, a, b):
    with pytest.raises(ParameterError, match=rf"^{kind} mean overflows the float range"):
        mean_value(kind, a, b)


def test_p_logarithmic_monotone(rng):
    grid = (-3.0, -2.0, -0.5, 0.5, 1.0, 2.0, 3.0, 5.0)
    for _ in range(20):
        a = float(rng.uniform(0.1, 5.0))
        b = a + float(rng.uniform(0.1, 5.0))
        values = [mean_value("p_logarithmic", a, b, p=p) for p in grid]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))


@pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (0.25, 0.75)])
def test_p_logarithmic_limits(a, b):
    """Approaching the removable exponents recovers the logarithmic and
    identric means.

    One-sided values at p = limit +- 1e-6 carry a first-order approach
    error of about 1e-6 * dL_p/dp (a few 1e-8 relative here); averaging the
    two sides cancels that term and lands within 1e-9.
    """
    L = mean_value("logarithmic", a, b)
    I = mean_value("identric", a, b)
    eps = 1e-6
    for limit, target in ((-1.0, L), (0.0, I)):
        above = mean_value("p_logarithmic", a, b, p=limit + eps)
        below = mean_value("p_logarithmic", a, b, p=limit - eps)
        assert above == pytest.approx(target, rel=2e-7)
        assert below == pytest.approx(target, rel=2e-7)
        assert 0.5 * (above + below) == pytest.approx(target, rel=1e-9)


def test_chain(rng):
    assert means_chain_check(1.0, 2.0)
    assert means_chain_check(3.0, 3.0)
    assert means_chain_check(0.5, 8.0)
    for _ in range(100):
        a = float(rng.uniform(1e-3, 100.0))
        b = float(rng.uniform(a, 100.0))
        assert means_chain_check(a, b)
    with pytest.raises(ParameterError):
        means_chain_check(0.0, 1.0)


def test_chain_example_values():
    chain = [mean_value(k, 1.0, 2.0)
             for k in ("harmonic", "geometric", "logarithmic", "identric", "arithmetic")]
    expected = (4.0 / 3.0, math.sqrt(2.0), 1.0 / math.log(2.0), 4.0 / math.e, 1.5)
    assert chain == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- propositions

def test_prop1_counterexample():
    rep = check_proposition(1, 1.0, 2.0, p=2.0)
    assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert rep.rhs == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert not rep.holds
    assert "f'(a) = f'(b)" in rep.hypothesis_note


def test_prop2_holds():
    rep = check_proposition(2, 1.0, 2.0)
    assert rep.lhs == pytest.approx(abs(math.log(2.0) - 2.0 / 3.0), abs=1e-15)
    assert rep.rhs == pytest.approx(0.046875, abs=1e-15)
    assert rep.holds
    assert rep.slack == pytest.approx(rep.rhs - rep.lhs, abs=1e-15)


def test_prop5_counterexample():
    rep = check_proposition(5, 1.0, 2.0, q=1.0)
    assert rep.lhs == pytest.approx(abs(math.log(2.0) - 0.75), abs=1e-13)
    assert rep.rhs == pytest.approx(0.046875, abs=1e-15)
    assert not rep.holds


def test_prop6_holds():
    rep = check_proposition(6, 1.0, 2.0, q=1.0)
    assert rep.lhs == pytest.approx(abs(2.0 * math.log(2.0) - 1.0 - math.log(1.5)), abs=1e-13)
    assert rep.rhs == pytest.approx((1.0 + 0.25) / 2.0 / 24.0, abs=1e-15)
    assert rep.holds


def test_props_2_4_6_sweep():
    """The midpoint-derived propositions hold across the grid."""
    for a in (0.5, 1.0, 2.0):
        for delta in (0.1, 0.5, 1.0, 2.0):
            b = a + delta
            for q in (1.0, 2.0):
                assert check_proposition(2, a, b).holds
                assert check_proposition(6, a, b, q=q).holds
            assert check_proposition(4, a, b, p=2.0, q=2.0).holds


def test_prop3_recorded_without_mandate():
    """Proposition 3 is derived from a misapplied trapezoid bound; its
    numeric status is recorded, not asserted."""
    results = {}
    for a in (0.5, 1.0, 2.0):
        for delta in (0.1, 0.5, 1.0, 2.0):
            rep = check_proposition(3, a, a + delta, p=2.0)
            results[(a, delta)] = rep.holds
            assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert len(results) == 12


def test_corrected_variants_always_hold(rng):
    """Restoring the derivative correction makes propositions 1, 3, 5 valid."""
    for _ in range(50):
        a = float(rng.uniform(0.1, 3.0))
        b = a + float(rng.uniform(0.05, 3.0))
        assert check_proposition(1, a, b, p=2.0, corrected=True).holds
        assert check_proposition(1, a, b, p=3.5, corrected=True).holds
        assert check_proposition(3, a, b, p=2.0, corrected=True).holds
        assert check_proposition(5, a, b, q=1.0, corrected=True).holds
        assert check_proposition(5, a, b, q=2.0, corrected=True).holds
    stated = check_proposition(2, 1.0, 2.0)
    corrected = check_proposition(2, 1.0, 2.0, corrected=True)
    assert corrected.lhs == stated.lhs and corrected.rhs == stated.rhs


def test_prop_rhs_matches_midpoint_bounds(rng):
    """For the valid propositions the right side equals the matching bound
    family evaluated at x = midpoint on the generating function."""
    recip = register_builtin("reciprocal")
    neglog = register_builtin("neglog")
    power2 = register_builtin("power", [2.0])
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        b = a + float(rng.uniform(0.1, 2.0))
        iv = Interval(a, b)
        assert check_proposition(2, a, b).rhs == pytest.approx(
            bound_convex(recip, iv, iv.midpoint).bound_avg, rel=1e-13)
        assert check_proposition(4, a, b, p=2.0, q=2.0).rhs == pytest.approx(
            bound_holder(power2, iv, iv.midpoint, HolderPair(2.0, 2.0)).bound_avg, rel=1e-13)
        for q in (1.0, 2.0):
            assert check_proposition(6, a, b, q=q).rhs == pytest.approx(
                bound_power_mean(neglog, iv, iv.midpoint, q).bound_avg, rel=1e-13)


def test_proposition_side_that_overflows_to_inf_is_bad_input():
    """a ** (p - 2) of a subnormal a times (b - a) ** 2 overflows to inf
    without raising; a side that is not finite raises, as one that raises
    OverflowError does."""
    with pytest.raises(ParameterError, match=r"^proposition 1 overflows the float range at "
                                             r"a=5e-324, b=10000000000\.0, p=1\.0625, q=None$"):
        check_proposition(1, 5e-324, 1e10, p=1.0625)


def test_proposition_validation():
    with pytest.raises(ParameterError):
        check_proposition(7, 1.0, 2.0)
    with pytest.raises(ParameterError):
        check_proposition(2, 0.0, 2.0)
    with pytest.raises(ParameterError):
        check_proposition(2, 2.0, 1.0)
    with pytest.raises(ParameterError):
        check_proposition(1, 1.0, 2.0)  # p missing
    with pytest.raises(ParameterError):
        check_proposition(1, 1.0, 2.0, p=1.0)
    with pytest.raises(ParameterError):
        check_proposition(3, 1.0, 2.0, p=2.0, q=3.0)  # not conjugate
    with pytest.raises(ParameterError):
        check_proposition(5, 1.0, 2.0, q=0.5)
    for bad in (math.nan, math.inf):
        for prop in (1, 3, 4):
            with pytest.raises(ParameterError, match="needs a finite p > 1"):
                check_proposition(prop, 1.0, 2.0, p=bad)
        for prop in (3, 4):
            with pytest.raises(ParameterError, match="both must be finite"):
                check_proposition(prop, 1.0, 2.0, p=2.0, q=bad)
        for prop in (5, 6):
            with pytest.raises(ParameterError, match="needs a finite q >= 1"):
                check_proposition(prop, 1.0, 2.0, q=bad)
