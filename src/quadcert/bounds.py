"""A-priori error certificates for the two-point rule.

Three bound families for twice-differentiable f with convex |f''| (or
convex |f''|**q), plus the two classical baselines: the Ostrowski bound on
a single function value and the Cerone-Dragomir perturbed-trapezoid bound.
Each certificate pairs a rule value with a bound computable from f'/f''
data alone -- no knowledge of the true integral is needed.
"""

import math

from . import oracle
from .errors import ParameterError
from .functions import (  # noqa: F401  (grid_midpoint_convex stays importable from here)
    FunctionTriple, Interval, abs_f2_convexity, grid_midpoint_convex, record_base,
    require_domain)
from .kernel import KernelSpec, convex_bounds, kernel_lp_moment, overflow_error
from .rules import RuleValue, generalized_rule, perturbed_trapezoid_rule

CD_CASES = ("inf", "lp", "l1")


class HolderPair(record_base("HolderPair", [("p", float), ("q", float)])):
    """Finite conjugate exponents p, q > 1 with 1/p + 1/q = 1. Given one of
    them, the other is completed as its conjugate: ``HolderPair(p)`` or
    ``HolderPair(q=q)``."""

    __slots__ = ()

    def __new__(cls, p=None, q=None):
        if q is None and p is not None and p > 1.0:
            q = p / (p - 1.0)
        elif p is None and q is not None and q > 1.0:
            p = q / (q - 1.0)
        if not (p is not None and q is not None and 1.0 < p < math.inf and 1.0 < q < math.inf):
            raise ParameterError(
                f"need p > 1 and q > 1, got p={p!r}, q={q!r}; both must be finite")
        if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
            raise ParameterError(f"p={p!r}, q={q!r} are not conjugate exponents")
        return tuple.__new__(cls, (p, q))

    @classmethod
    def conjugate(cls, p: float) -> "HolderPair":
        return cls(p)


class Certificate(record_base("Certificate", [
        ("rule", RuleValue), ("bound_avg", float), ("bound_total", float), ("family", str),
        ("params", dict), ("hypothesis_flags", tuple)])):
    """A rule value with an a-priori bound on its deviation from the integral.

    ``bound_avg`` bounds |average integral - rule.value_avg| and
    ``bound_total`` the same in total form; a convex certificate is the n = 1
    composite. ``hypothesis_flags`` holds ``(name, satisfied)`` pairs for the
    assumptions behind the bound: one convexity flag for the convex, holder
    and power_mean families, none for the two baselines. A False flag means
    the certificate is advisory, not that the arithmetic is wrong.
    Certificates with a flag record in ``params`` how it was found:
    ``flag_method`` "exact" (registry functions) or "sampled", with
    ``flag_samples``.
    ``params`` defaults to a new dict and ``hypothesis_flags`` to (). A
    ``bound_total`` that is not finite raises ParameterError.
    """

    __slots__ = ()

    def __new__(cls, rule, bound_avg, bound_total, family, params=None, hypothesis_flags=()):
        if bound_total - bound_total:  # inf or NaN: a product overflowed without raising
            raise ParameterError(f"{family} bound overflows the float range at x={rule.x!r}")
        return tuple.__new__(cls, (rule, bound_avg, bound_total, family,
                                   {} if params is None else params, hypothesis_flags))


def _hypothesis_flags(ft, iv, params, q=None):
    """The one hypothesis of the convex-type bounds: convexity of |f''| (or
    |f''|**q), exact for registry functions and sampled on a 101-point grid
    otherwise. Records ``flag_method`` (and ``flag_samples``) in ``params``.
    At x = b the rule keeps its derivative correction (it is the perturbed
    trapezoid), so no condition on f'(a) and f'(b) is needed there."""
    convex, samples = abs_f2_convexity(ft, iv, 1.0 if q is None else q)
    params["flag_method"] = "exact" if samples is None else "sampled"
    if samples is not None:
        params["flag_samples"] = samples
    return (("abs_f2_convex" if q is None else "abs_f2_pow_q_convex", convex),)


def _record_method(params, est):
    """How an estimated norm was obtained, and its density if sampled."""
    params["norm_method"] = est.method
    if est.samples is not None:
        params["norm_samples"] = est.samples


def bound_convex(ft: FunctionTriple, iv: Interval, x: float) -> Certificate:
    """Certificate from convexity of |f''|.

    bound_avg = [(b-x)^3 + (x-mid)^3] * (|f''(a)| + |f''(b)|) / (6(b-a)).
    Sharp whenever f'' is constant. The convexity hypothesis is checked and
    recorded in hypothesis_flags, not enforced.
    """
    rule = generalized_rule(ft, iv, x)
    g = (abs(ft.f2(iv.a)), abs(ft.f2(iv.b)))
    try:
        (total,) = convex_bounds((iv.a,), (iv.b,), (x,), g)
    except OverflowError:
        raise overflow_error("convex bound", iv, x=x) from None
    params: dict = {}
    flags = _hypothesis_flags(ft, iv, params)
    return Certificate(rule, total / iv.length, total, "convex", params, flags)


def bound_holder(ft: FunctionTriple, iv: Interval, x: float, hp: HolderPair) -> Certificate:
    """Certificate from convexity of |f''|**q via the Holder split.

    bound_avg = 2^(1/p-1) / ((2p+1)^(1/p) (b-a)^(1/p))
                * [(b-x)^(2p+1) + (x-mid)^(2p+1)]^(1/p) * M_q,
    M_q = ((|f''(a)|^q + |f''(b)|^q)/2)^(1/q), computed in total form as
    (b-a)^3/2 * `kernel_lp_moment`^(1/p) * M_q.
    """
    rule = generalized_rule(ft, iv, x)
    p, q = hp.p, hp.q
    fa, fb = abs(ft.f2(iv.a)), abs(ft.f2(iv.b))
    try:
        total = (0.5 * iv.length ** 3 * kernel_lp_moment(KernelSpec(iv, x), p) ** (1.0 / p)
                 * ((fa ** q + fb ** q) / 2.0) ** (1.0 / q))
        params = {"p": p, "q": q}
        flags = _hypothesis_flags(ft, iv, params, q=q)
    except OverflowError:
        raise overflow_error("holder bound", iv, p=p, q=q) from None
    return Certificate(rule, total / iv.length, total, "holder", params, flags)


def bound_power_mean(ft: FunctionTriple, iv: Interval, x: float, q: float) -> Certificate:
    """Certificate from convexity of |f''|**q via the power-mean split.

    bound_avg = [(b-x)^3 + (x-mid)^3] / (3(b-a))
                * ((|f''(a)|^q + |f''(b)|^q)/2)^(1/q).
    At q = 1 this equals `bound_convex` bit for bit: M_1 + M_1 = |f''(a)| + |f''(b)|.
    """
    if not 1.0 <= q < math.inf:
        raise ParameterError(f"q={q!r} must be finite and >= 1")
    rule = generalized_rule(ft, iv, x)
    fa, fb = abs(ft.f2(iv.a)), abs(ft.f2(iv.b))
    try:
        mq = ((fa ** q + fb ** q) / 2.0) ** (1.0 / q)
        (total,) = convex_bounds((iv.a,), (iv.b,), (x,), (mq, mq))
        params = {"q": q}
        flags = _hypothesis_flags(ft, iv, params, q=q)
    except OverflowError:
        raise overflow_error("power_mean bound", iv, q=q) from None
    return Certificate(rule, total / iv.length, total, "power_mean", params, flags)


def bound_ostrowski(ft: FunctionTriple, iv: Interval, x: float,
                    f1_sup: float | None = None) -> Certificate:
    """Classical bound on |f(x) - average integral| from sup|f'|.

    bound_avg = [1/4 + t^2] * (b-a) * f1_sup, t = (x-a)/(b-a) - 1/2 = (x-mid)/(b-a),
    for any x in [a, b]. When f1_sup is omitted it comes from
    `oracle.estimate_norm`: exact for registry functions, sampled for plain
    callables. The params record its ``norm_method``, plus ``norm_samples``
    for a sampled one. A supplied value must be finite and at least that
    estimate.
    """
    require_domain(ft, iv)
    if not iv.a <= x <= iv.b:
        raise ParameterError(f"x={x!r} outside [{iv.a!r}, {iv.b!r}]")
    params: dict = {}
    est = oracle.estimate_norm(ft, iv, "sup_f1")
    if f1_sup is None:
        f1_sup = est.value
        _record_method(params, est)
    elif not est.value <= f1_sup < math.inf:
        raise ParameterError(
            f"f1_sup={f1_sup!r} must be finite and >= the {est.method} sup|f'| {est.value!r}")
    params["f1_sup"] = f1_sup
    fx = ft.f(x)
    avg = (0.25 + ((x - iv.a) / iv.length - 0.5) ** 2) * iv.length * f1_sup
    rule = RuleValue(fx, fx * iv.length, "point", x)
    return Certificate(rule, avg, avg * iv.length, "ostrowski", params)


def bound_cerone_dragomir(ft: FunctionTriple, iv: Interval, case: str,
                          norm: float | None = None,
                          p: float | None = None,
                          q: float | None = None) -> Certificate:
    """Classical perturbed-trapezoid bound from a norm of f''.

    Cases (matching the printed statement of the inequality):
      inf: bound_total = (b-a)^3/24 * sup|f''|
      lp:  bound_total = (b-a)^(2+1/q) / (8(2q+1)^(1/q)) * ||f''||_p,
           with p > 1 and 1/p + 1/q = 1
      l1:  bound_total = (b-a)^2/8 * integral of |f''|
    Omitted norms come from `oracle.estimate_norm` and are recorded in the
    certificate params for auditability, with their ``norm_method``: sup|f''|
    and the L1 norm are exact for registry functions; sup|f''| is sampled
    for plain callables (then ``norm_samples`` records the density); the
    other p-norms come from quadrature. A supplied norm must be finite and
    not negative, may be 0 only where the estimated sup|f''| is 0, and in
    case inf may not be below that sup.
    """
    require_domain(ft, iv)
    if case not in CD_CASES:
        raise ParameterError(f"unknown case {case!r}; expected one of {CD_CASES}")
    params: dict = {"case": case}
    if case == "lp":
        hp = HolderPair(p, q)
        params["p"] = hp.p
        params["q"] = hp.q

    if norm is None:
        if case == "inf":
            est = oracle.estimate_norm(ft, iv, "sup_f2")
        elif case == "lp":
            est = oracle.estimate_norm(ft, iv, "lp_f2", p=hp.p)
        else:
            est = oracle.estimate_norm(ft, iv, "l1_f2")
        norm = est.value
        _record_method(params, est)
    else:
        sup = oracle.estimate_norm(ft, iv, "sup_f2")
        if not ((sup.value if case == "inf" else 0.0) <= norm < math.inf
                and (norm > 0.0 or sup.value == 0.0)):
            raise ParameterError(
                f"norm={norm!r} does not fit f'', whose {sup.method} sup|f''| is {sup.value!r}")
    params["norm"] = norm

    try:
        if case == "inf":
            total = iv.length ** 3 / 24.0 * norm
        elif case == "lp":
            total = (iv.length ** (2.0 + 1.0 / hp.q) / (8.0 * (2.0 * hp.q + 1.0) ** (1.0 / hp.q))
                     * norm)
        else:
            total = iv.length ** 2 / 8.0 * norm
    except OverflowError:
        raise overflow_error("cerone_dragomir bound", iv, case=case) from None

    rule = perturbed_trapezoid_rule(ft, iv)
    return Certificate(rule, total / iv.length, total, "cerone_dragomir", params)
