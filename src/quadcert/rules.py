"""Quadrature rule values: the generalized two-point rule and its named
specializations. Rules only evaluate f and f'; the error certificates for
them live in `quadcert.bounds`.
"""

import operator
from itertools import compress, count
from typing import NamedTuple

from .errors import ParameterError
from .functions import FunctionTriple, Interval, require_domain


class RuleValue(NamedTuple):
    """Approximation in both average ((1/(b-a)) * integral) and total form.

    Carrying both eliminates off-by-(b-a) rescaling mistakes. The two-point
    rules compute the total, as the composite rules do, and divide it by
    b-a; the midpoint and trapezoid rules scale the average. ``x`` is the
    evaluation point for kinds that have one (b for the perturbed trapezoid).
    """

    value_avg: float
    value_total: float
    rule_kind: str
    x: float | None = None


def _check_x_range(iv: Interval, x: float) -> None:
    if not (iv.midpoint <= x <= iv.b):
        raise ParameterError(
            f"x={x!r} outside [midpoint, b] = [{iv.midpoint!r}, {iv.b!r}]"
        )


def mirror_points(lows, highs, xs):
    """The reflection lo + hi - x of each point, lo itself where x is hi:
    (lo + hi) - hi rounds away from lo, to 0 when lo < ulp(hi)/2. A column
    with every x at hi is ``lows`` sliced; other columns patch only the
    entries where x is hi."""
    if xs == highs:
        return lows[:len(xs)]
    out = list(map(operator.sub, map(operator.add, lows, highs), xs))
    if any(map(operator.eq, xs, highs)):
        for i in compress(count(), map(operator.eq, xs, highs)):
            out[i] = lows[i]
    return out


def two_point_totals(lows, highs, xs, fx, fm, dx, dm):
    """Two-point rule values in total form from f and f' at x (fx, dx) and at its
    mirror (fm, dm, see `mirror_points`); run per block by the composite rules, on
    one-element columns by the rules."""
    return [(hh := 0.5 * (hi - lo)) * (u + v) - hh * (x - (lo + 3.0 * hi) / 4.0) * (du - dv)
            for lo, hi, x, u, v, du, dv in zip(lows, highs, xs, fx, fm, dx, dm)]


def generalized_rule(ft: FunctionTriple, iv: Interval, x: float) -> RuleValue:
    """Two-point rule with a free evaluation point x in [midpoint, b].

    value_avg = (f(x) + f(a+b-x))/2 - (x - (a+3b)/4)/2 * (f'(x) - f'(a+b-x)),
    with the mirror a+b-x taken as a itself at x = b. At x = midpoint this
    collapses to the midpoint rule; at x = b it is the perturbed trapezoid
    rule (in average form).
    """
    require_domain(ft, iv)
    _check_x_range(iv, x)
    (mirror,) = mirror_points((iv.a,), (iv.b,), (x,))
    (total,) = two_point_totals((iv.a,), (iv.b,), (x,), (ft.f(x),), (ft.f(mirror),),
                                (ft.f1(x),), (ft.f1(mirror),))
    return RuleValue(total / iv.length, total, "generalized", x)


def midpoint_rule(ft: FunctionTriple, iv: Interval) -> RuleValue:
    """value_avg = f((a+b)/2)."""
    require_domain(ft, iv)
    avg = ft.f(iv.midpoint)
    return RuleValue(avg, avg * iv.length, "midpoint", iv.midpoint)


def trapezoid_rule(ft: FunctionTriple, iv: Interval) -> RuleValue:
    """value_avg = (f(a) + f(b))/2.

    The trapezoid-form bounds additionally require f'(a) = f'(b); that
    hypothesis is recorded by the bound operations, not enforced here --
    the rule value exists regardless.
    """
    require_domain(ft, iv)
    avg = 0.5 * (ft.f(iv.a) + ft.f(iv.b))
    return RuleValue(avg, avg * iv.length, "trapezoid")


def perturbed_trapezoid_rule(ft: FunctionTriple, iv: Interval) -> RuleValue:
    """Trapezoid rule corrected by the first-derivative jump.

    value_total = (b-a)/2 * (f(a)+f(b)) - (b-a)^2/8 * (f'(b)-f'(a)): the
    generalized rule at x = b.
    """
    rule = generalized_rule(ft, iv, iv.b)
    return RuleValue(rule.value_avg, rule.value_total, "perturbed_trapezoid", iv.b)
