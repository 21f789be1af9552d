"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; the oracle runs two orders tighter than any
assertion it feeds.
"""

import math
import time

import numpy as np
import pytest

from conftest import convex_corpus, random_interval, random_x
from quadcert import cli
from quadcert.bounds import (
    HolderPair,
    bound_cerone_dragomir,
    bound_convex,
    bound_holder,
    bound_power_mean,
)
from quadcert.composite import Partition, composite_midpoint, composite_perturbed_trapezoid
from quadcert.functions import Interval, parse_function_spec, register_builtin
from quadcert.kernel import KernelSpec, identity_residual
from quadcert.means import check_proposition, mean_value, means_chain_check
from quadcert.oracle import estimate_norm, integrate
from quadcert.rules import perturbed_trapezoid_rule

POWER2 = register_builtin("power", [2.0])
UNIT = Interval(0.0, 1.0)


def report(num, started, detail):
    print(f"criterion {num} PASS ({time.perf_counter() - started:.2f}s): {detail}")


def test_criterion_1_identity_verification():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    cases = [
        ("power:2", -1.5, 1.5), ("power:3", -1.5, 1.5), ("power:4", -1.5, 1.5),
        ("exp", -1.5, 1.5), ("reciprocal", 1.0, 2.0), ("neglog", 1.0, 2.0),
    ]
    worst = 0.0
    for spec, lo, hi in cases:
        ft = parse_function_spec(spec)
        for _ in range(20):
            iv = random_interval(rng, lo, hi, min_len=0.3)
            residual = identity_residual(ft, KernelSpec(iv, random_x(rng, iv)))
            worst = max(worst, abs(residual))
            assert abs(residual) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, started, f"120 residuals, worst |residual| = {worst:.2e}")


def test_criterion_2_constant_f2_sharpness():
    started = time.perf_counter()
    reference = integrate(POWER2.f, 0.0, 1.0).value
    for x in (0.5, 0.6, 0.75, 0.9, 1.0):
        cert = bound_convex(POWER2, UNIT, x)
        deviation = abs(reference - cert.rule.value_total)
        assert deviation == pytest.approx(cert.bound_total, abs=1e-12)
    # perturbed trapezoid (x = 1) and midpoint (x = 1/2) closed forms both
    # give 1/12 for f'' = 2 on the unit interval
    assert bound_convex(POWER2, UNIT, 1.0).bound_total == pytest.approx(
        UNIT.length ** 3 / 48.0 * 4.0, abs=1e-16)
    assert bound_convex(POWER2, UNIT, 1.0).bound_total == pytest.approx(1.0 / 12.0, abs=1e-16)
    assert bound_convex(POWER2, UNIT, 0.5).bound_avg == pytest.approx(1.0 / 12.0, abs=1e-16)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, started, "deviation equals the bound at all five x; closed-form values = 1/12")


def test_criterion_3_bound_validity_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    checked = 0
    for ft, lo, hi in convex_corpus():
        for _ in range(100):
            iv = random_interval(rng, lo + 0.05, hi - 0.05)
            x = random_x(rng, iv)
            avg = integrate(ft.f, iv.a, iv.b).value / iv.length
            certs = [bound_convex(ft, iv, x)]
            certs += [bound_holder(ft, iv, x, HolderPair.conjugate(p))
                      for p in (1.5, 2.0, 3.0)]
            certs += [bound_power_mean(ft, iv, x, q) for q in (1.0, 2.0, 5.0)]
            for cert in certs:
                actual = abs(avg - cert.rule.value_avg)
                assert actual <= cert.bound_avg * (1.0 + 1e-9) + 1e-12, \
                    (ft.id, iv, x, cert.family)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, started, f"{checked} certificates, zero violations")


def test_criterion_4_power_mean_reduces_to_convex():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    corpus = convex_corpus()
    for i in range(1000):
        ft, lo, hi = corpus[i % len(corpus)]
        iv = random_interval(rng, lo + 0.05, hi - 0.05)
        x = random_x(rng, iv)
        pm = bound_power_mean(ft, iv, x, 1.0).bound_avg
        cv = bound_convex(ft, iv, x).bound_avg
        assert pm == pytest.approx(cv, rel=1e-14)
    report(4, started, "power-mean bound at q = 1 equals the convex bound on 1000 inputs")


def test_criterion_5_baseline_bounds_dominate():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    for ft, lo, hi in convex_corpus():
        for _ in range(5):
            iv = random_interval(rng, lo + 0.05, hi - 0.05)
            actual = abs(integrate(ft.f, iv.a, iv.b).value
                         - perturbed_trapezoid_rule(ft, iv).value_total)
            for case, kwargs in (("inf", {}), ("lp", {"p": 2.0}), ("l1", {})):
                cert = bound_cerone_dragomir(ft, iv, case, **kwargs)
                assert actual <= cert.bound_total * (1.0 + 1e-9) + 1e-12, (ft.id, case)
    # the sup-norm case is exact for constant f'': (b-a)^3/24 * 2 = 1/12
    cert = bound_cerone_dragomir(POWER2, UNIT, "inf")
    assert cert.params["norm"] == 2.0
    assert cert.bound_total == 1.0 / 12.0
    actual = abs(integrate(POWER2.f, 0.0, 1.0).value - cert.rule.value_total)
    assert actual == pytest.approx(cert.bound_total, abs=1e-13)
    report(5, started, "all three norm cases dominate; sup case equals 1/12 for x^2")


def test_criterion_6_composite_convergence():
    started = time.perf_counter()
    ft = register_builtin("exp")
    exact = math.e - 1.0
    ns = [2, 4, 8, 16, 32, 64, 128, 256]
    for build in (composite_midpoint, composite_perturbed_trapezoid):
        errors, bounds_ = [], []
        for n in ns:
            res = build(ft, Partition.uniform(0.0, 1.0, n).nodes)
            err = abs(exact - res.approx)
            assert err <= res.remainder_bound
            errors.append(err)
            bounds_.append(res.remainder_bound)
        log_h = np.log([1.0 / n for n in ns])
        for series in (errors, bounds_):
            slope = np.polyfit(log_h, np.log(series), 1)[0]
            assert abs(slope - 2.0) <= 0.1, (build.__name__, slope)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(6, started, "order-2 slopes for error and bound, bound dominates on every row")


def test_criterion_7_means():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(500):
        a = float(rng.uniform(1e-3, 100.0))
        b = float(rng.uniform(a, 100.0))
        assert means_chain_check(a, b)
    grid = (-3.0, -2.0, -0.5, 0.5, 1.0, 2.0, 3.0, 5.0)
    values = [mean_value("p_logarithmic", 1.0, 2.0, p=p) for p in grid]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))
    inv_l = integrate(register_builtin("reciprocal").f, 1.0, 2.0).value
    assert mean_value("logarithmic", 1.0, 2.0) == pytest.approx(1.0 / inv_l, abs=1e-12)
    assert mean_value("logarithmic", 1.0, 2.0) == pytest.approx(1.0 / math.log(2.0), abs=1e-12)
    ln_i = -integrate(register_builtin("neglog").f, 1.0, 2.0).value
    assert math.log(mean_value("identric", 1.0, 2.0)) == pytest.approx(ln_i, abs=1e-12)
    assert ln_i == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)
    report(7, started, "chain on 500 pairs, L_p monotone, L and ln I match the oracle")


def test_criterion_8_propositions():
    started = time.perf_counter()
    for a in (0.5, 1.0, 2.0):
        for delta in (0.1, 0.5, 1.0, 2.0):
            b = a + delta
            for q in (1.0, 2.0):
                assert check_proposition(2, a, b).holds
                assert check_proposition(6, a, b, q=q).holds
            assert check_proposition(4, a, b, p=2.0, q=2.0).holds

    rep = check_proposition(1, 1.0, 2.0, p=2.0)
    assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert not rep.holds

    rep = check_proposition(5, 1.0, 2.0, q=1.0)
    assert rep.lhs == pytest.approx(0.05685281944005469, abs=1e-12)
    assert rep.rhs == pytest.approx(0.046875, abs=1e-15)
    assert not rep.holds

    # proposition 3: numeric status recorded, no pass/fail mandate
    prop3 = {(a, round(d, 3)): check_proposition(3, a, a + d, p=2.0).holds
             for a in (0.5, 1.0, 2.0) for d in (0.1, 0.5, 1.0, 2.0)}

    assert cli.main(["props", "--prop", "1", "--p", "2", "--a", "1", "--b", "2"]) == 1
    assert cli.main(["props", "--prop", "2", "--a", "1", "--b", "2"]) == 0
    assert cli.main(["certify", "--function", "power:2", "--a", "0", "--b", "1",
                     "--x", "1", "--family", "convex"]) == 0
    assert cli.main(["props", "--prop", "2", "--a", "-1", "--b", "2"]) == 2

    held = sum(prop3.values())
    report(8, started,
           f"2/4/6 hold on the grid; 1 and 5 fail as expected; prop 3 held in "
           f"{held}/{len(prop3)} grid cells (recorded); exit codes 0/1/2 as contracted")


def test_criterion_9_oracle_self_test():
    started = time.perf_counter()
    closed = [
        (POWER2.f, 0.0, 1.0, 1.0 / 3.0),
        (register_builtin("reciprocal").f, 1.0, 2.0, math.log(2.0)),
        (register_builtin("exp").f, 0.0, 1.0, math.e - 1.0),
    ]
    for g, a, b, expected in closed:
        # a plain callable, so GK15 runs: a registry evaluator takes its closed form
        est = integrate(lambda x, g=g: g(x), a, b)
        assert est.subdivisions >= 1
        assert est.value == pytest.approx(expected, abs=1e-12)
    for ft, lo, hi in convex_corpus():
        iv = Interval(lo + 0.1, hi - 0.1)
        n1 = estimate_norm(ft, iv, "l1_f2").value
        ninf = estimate_norm(ft, iv, "sup_f2").value
        for p in (1.5, 2.0, 3.0):
            np_ = estimate_norm(ft, iv, "lp_f2", p=p).value
            mid = iv.length ** (1.0 - 1.0 / p) * np_
            scale = max(n1, mid, iv.length * ninf)
            assert n1 <= mid + 1e-9 * scale
            assert mid <= iv.length * ninf + 1e-9 * scale
    report(9, started, "closed-form integrals at 1e-12; norm estimators Holder-ordered")
