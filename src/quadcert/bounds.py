"""A-priori error certificates for the two-point rule.

Three bound families for twice-differentiable f with convex |f''| (or
convex |f''|**q), plus the two classical baselines: the Ostrowski bound on
a single function value and the Cerone-Dragomir perturbed-trapezoid bound.
Each certificate pairs a rule value with a bound computable from f'/f''
data alone -- no knowledge of the true integral is needed.
"""

from . import oracle
from .errors import ParameterError
from .functions import (  # noqa: F401  (grid_midpoint_convex stays importable from here)
    FunctionTriple, Interval, abs_f2_convexity, grid_midpoint_convex, record_base,
    require_domain)
from .kernel import convex_bounds, overflow_error
from .rules import RuleValue, generalized_rule, perturbed_trapezoid_rule

CD_CASES = ("inf", "lp", "l1")

_ENDPOINT_DERIV_TOL = 1e-12
_FLAG_GRID = 101


class HolderPair(record_base("HolderPair", [("p", float), ("q", float)])):
    """Conjugate exponents p, q > 1 with 1/p + 1/q = 1."""

    __slots__ = ()

    def __new__(cls, p, q):
        if not (p > 1.0 and q > 1.0):
            raise ParameterError(f"need p > 1 and q > 1, got p={p!r}, q={q!r}")
        if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
            raise ParameterError(f"p={p!r}, q={q!r} are not conjugate exponents")
        return tuple.__new__(cls, (p, q))

    @classmethod
    def conjugate(cls, p: float) -> "HolderPair":
        if not p > 1.0:
            raise ParameterError(f"need p > 1, got {p!r}")
        return cls(p, p / (p - 1.0))


class Certificate(record_base("Certificate", [
        ("rule", RuleValue), ("bound_avg", float), ("bound_total", float), ("family", str),
        ("params", dict), ("hypothesis_flags", tuple)])):
    """A rule value with an a-priori bound on its deviation from the integral.

    ``bound_avg`` bounds |average integral - rule.value_avg| and
    ``bound_total`` the same in total form; a convex certificate is the n = 1
    composite. ``hypothesis_flags`` holds ``(name, satisfied)`` pairs for the
    assumptions behind the bound; a False flag means the certificate is
    advisory, not that the arithmetic is wrong. Certificates with flags
    record in ``params`` how the convexity flag was found: ``flag_method``
    "exact" (registry functions) or "sampled", with ``flag_samples``.
    ``params`` defaults to a new dict and ``hypothesis_flags`` to ().
    """

    __slots__ = ()

    def __new__(cls, rule, bound_avg, bound_total, family, params=None, hypothesis_flags=()):
        return tuple.__new__(cls, (rule, bound_avg, bound_total, family,
                                   {} if params is None else params, hypothesis_flags))


def _hypothesis_flags(ft, iv, x, params, q=None):
    """Convexity of |f''| (or |f''|**q), exact for registry functions and
    sampled on a grid otherwise, plus the equal-endpoint-derivative
    hypothesis for certificates taken at x = b, where dropping the
    derivative correction turns the rule into the plain trapezoid. Records
    ``flag_method`` (and ``flag_samples``) in ``params``."""
    convex, samples = abs_f2_convexity(ft, iv, 1.0 if q is None else q, _FLAG_GRID)
    flags = [("abs_f2_convex" if q is None else "abs_f2_pow_q_convex", convex)]
    params["flag_method"] = "exact" if samples is None else "sampled"
    if samples is not None:
        params["flag_samples"] = samples
    if abs(iv.b - x) <= 1e-12 * iv.length:
        flags.append(("f1_endpoints_equal",
                      abs(ft.f1(iv.a) - ft.f1(iv.b)) <= _ENDPOINT_DERIV_TOL))
    return tuple(flags)


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
    flags = _hypothesis_flags(ft, iv, x, params)
    return Certificate(rule, total / iv.length, total, "convex", params, flags)


def bound_holder(ft: FunctionTriple, iv: Interval, x: float, hp: HolderPair) -> Certificate:
    """Certificate from convexity of |f''|**q via the Holder split.

    bound_avg = 2^(1/p-1) / ((2p+1)^(1/p) (b-a)^(1/p))
                * [(b-x)^(2p+1) + (x-mid)^(2p+1)]^(1/p)
                * ((|f''(a)|^q + |f''(b)|^q)/2)^(1/q).
    """
    rule = generalized_rule(ft, iv, x)
    p, q = hp.p, hp.q
    fa, fb = abs(ft.f2(iv.a)), abs(ft.f2(iv.b))
    e = 2.0 * p + 1.0
    try:
        moment = (iv.b - x) ** e + (x - iv.midpoint) ** e
        avg = (2.0 ** (1.0 / p - 1.0) / (e ** (1.0 / p) * iv.length ** (1.0 / p))
               * moment ** (1.0 / p)
               * ((fa ** q + fb ** q) / 2.0) ** (1.0 / q))
        params = {"p": p, "q": q}
        flags = _hypothesis_flags(ft, iv, x, params, q=q)
    except OverflowError:
        raise overflow_error("holder bound", iv, p=p, q=q) from None
    return Certificate(rule, avg, avg * iv.length, "holder", params, flags)


def bound_power_mean(ft: FunctionTriple, iv: Interval, x: float, q: float) -> Certificate:
    """Certificate from convexity of |f''|**q via the power-mean split.

    bound_avg = [(b-x)^3 + (x-mid)^3] / (3(b-a))
                * ((|f''(a)|^q + |f''(b)|^q)/2)^(1/q).
    At q = 1 this equals `bound_convex` bit for bit: M_1 + M_1 = |f''(a)| + |f''(b)|.
    """
    if q < 1.0:
        raise ParameterError(f"q={q!r} must be >= 1")
    rule = generalized_rule(ft, iv, x)
    fa, fb = abs(ft.f2(iv.a)), abs(ft.f2(iv.b))
    try:
        mq = ((fa ** q + fb ** q) / 2.0) ** (1.0 / q)
        (total,) = convex_bounds((iv.a,), (iv.b,), (x,), (mq, mq))
        params = {"q": q}
        flags = _hypothesis_flags(ft, iv, x, params, q=q)
    except OverflowError:
        raise overflow_error("power_mean bound", iv, q=q) from None
    return Certificate(rule, total / iv.length, total, "power_mean", params, flags)


def bound_ostrowski(ft: FunctionTriple, iv: Interval, x: float,
                    f1_sup: float | None = None) -> Certificate:
    """Classical bound on |f(x) - average integral| from sup|f'|.

    bound_avg = [1/4 + (x - mid)^2/(b-a)^2] * (b-a) * f1_sup, valid for any
    x in [a, b] (no half-interval restriction). When f1_sup is omitted it
    comes from `oracle.estimate_norm`: exact for registry functions,
    sampled for plain callables. The params record its ``norm_method``,
    plus ``norm_samples`` for a sampled one. A supplied value is sanity-
    checked against sampled |f'| and rejected when it is below any sample.
    """
    require_domain(ft, iv)
    if not iv.a <= x <= iv.b:
        raise ParameterError(f"x={x!r} outside [{iv.a!r}, {iv.b!r}]")
    params: dict = {}
    if f1_sup is None:
        est = oracle.estimate_norm(ft, iv, "sup_f1")
        f1_sup = est.value
        _record_method(params, est)
    else:
        step = iv.length / 32.0
        observed = max(abs(ft.f1(iv.a + i * step)) for i in range(33))
        if f1_sup < observed:
            raise ParameterError(
                f"f1_sup={f1_sup!r} is below the sampled |f'| maximum {observed!r}")
    params["f1_sup"] = f1_sup
    fx = ft.f(x)
    avg = (0.25 + ((x - iv.midpoint) / iv.length) ** 2) * iv.length * f1_sup
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
    other p-norms come from quadrature.
    """
    require_domain(ft, iv)
    if case not in CD_CASES:
        raise ParameterError(f"unknown case {case!r}; expected one of {CD_CASES}")
    params: dict = {"case": case}
    hp = None
    if case == "lp":
        if p is None and q is None:
            raise ParameterError("lp case needs the exponent p (q is derived)")
        if p is None:
            if not q > 1.0:
                raise ParameterError(f"need q > 1, got {q!r}")
            p = q / (q - 1.0)
        hp = HolderPair(p, q) if q is not None else HolderPair.conjugate(p)
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
    elif norm <= 0.0:
        step = iv.length / 8.0
        if any(abs(ft.f2(iv.a + i * step)) > 0.0 for i in range(9)):
            raise ParameterError(f"norm={norm!r} is not positive but f'' is not identically 0")
    params["norm"] = norm

    if case == "inf":
        total = iv.length ** 3 / 24.0 * norm
    elif case == "lp":
        total = iv.length ** (2.0 + 1.0 / hp.q) / (8.0 * (2.0 * hp.q + 1.0) ** (1.0 / hp.q)) * norm
    else:
        total = iv.length ** 2 / 8.0 * norm

    rule = perturbed_trapezoid_rule(ft, iv)
    return Certificate(rule, total / iv.length, total, "cerone_dragomir", params)
