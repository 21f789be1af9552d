"""Piecewise-quadratic weight behind the generalized two-point rule.

The weight on the unit interval is t^2, then (t - 1/2)^2, then (t - 1)^2,
with breakpoints t1 = (b-x)/(b-a) and t2 = (x-a)/(b-a). Its moments produce
every bound constant in `quadcert.bounds`; `identity_residual` verifies
numerically that the weighted integral of f'' reproduces the rule's
deviation from the average integral.
"""

import math

from . import oracle
from .errors import ParameterError
from .functions import FunctionTriple, Interval, record_base, require_domain
from .rules import _check_x_range, generalized_rule

_CENTRES = (0.0, 0.5, 1.0)  # c of each piece (t - c)^2 of the weight


class KernelSpec(record_base("KernelSpec", [("iv", Interval), ("x", float)])):
    """Weight configuration for interval ``iv`` and evaluation point ``x``.

    x ranges over the right half [midpoint, b]; degenerate placements
    (x = midpoint or x = b) collapse one piece to zero width. The
    breakpoints satisfy 0 <= t1 <= 1/2 <= t2 <= 1 and t1 + t2 = 1.
    """

    __slots__ = ()

    def __new__(cls, iv, x):
        _check_x_range(iv, x)
        return tuple.__new__(cls, (iv, x))

    @property
    def t1(self) -> float:
        return (self.iv.b - self.x) / self.iv.length

    @property
    def t2(self) -> float:
        return (self.x - self.iv.a) / self.iv.length


def convex_bounds(lows, highs, xs, g):
    """Convex-|f''| bounds in total form from |f''| at the nodes (g[i] at lows[i]);
    run per block by the composite rules, on one-element columns by the certificates."""
    return [((hi - x) ** 3 + (x - 0.5 * (lo + hi)) ** 3) * (glo + ghi) / 6.0
            for lo, hi, x, glo, ghi in zip(lows, highs, xs, g, g[1:])]


# convex_bounds of blocks whose shape makes one of its cubes a zero. The
# cube kept is of a difference that is >= 0 and never -0.0, and adding
# +-0.0 to it changes no bit, so these give the bits of convex_bounds, and
# an OverflowError rises from the same cube as there.

def _mirrored_bounds(highs, xs, g):
    """convex_bounds where every mirror fl(s - x), s = fl(lo + hi), equals its
    x and no x is hi: (hi - x)**3 * (|f''(lo)| + |f''(hi)|) / 6.

    Such an x is mid = fl(s/2), so (x - mid)**3 is a zero. For x > 0,
    fl(s - x) > 0 needs s > x, so x, being >= mid, is in [s/2, s] where s/2
    is exact, and s - x is then exact (Sterbenz); for x < 0, s - x <= s/2
    <= x, so fl(s - x) = x forces x = s/2. Where s/2 rounds, |s| < 2**-1021
    and s - x is exact, so x = s/2 would be a float. x = 0 needs s = 0."""
    return [(hi - x) ** 3 * (glo + ghi) / 6.0 for hi, x, glo, ghi in zip(highs, xs, g, g[1:])]


def _right_bounds(lows, highs, g):
    """convex_bounds where every x equals hi: (hi - mid)**3 * (|f''(lo)| +
    |f''(hi)|) / 6. (hi - x)**3 is a zero, and x - mid is hi - mid, which
    validation keeps >= 0; it is never -0.0, as mid is +0.0 only where
    lo + hi >= 0, and then hi > 0."""
    return [(hi - 0.5 * (lo + hi)) ** 3 * (glo + ghi) / 6.0
            for lo, hi, glo, ghi in zip(lows, highs, g, g[1:])]


def overflow_error(subject, iv, **named):
    """ParameterError for a bound quantity that overflows the float range
    on ``iv``, naming the arguments it was taken at."""
    at = ", ".join(f"{k}={v!r}" for k, v in named.items())
    return ParameterError(
        f"{subject} overflows the float range on [{iv.a!r}, {iv.b!r}] at {at}")


def kernel_lp_moment(ks: KernelSpec, p: float) -> float:
    """Integral of |weight|**p over [0, 1] in closed form, for finite p >= 1.

    Equals 2/((2p+1)(b-a)^(2p+1)) * [(b-x)^(2p+1) + (x - (a+b)/2)^(2p+1)],
    computed scale-free as 2/e * [t1^e + (t2 - 1/2)^e], e = 2p+1. At
    x = midpoint t2 - 1/2 can round below 0, which is taken as 0. The
    weight is a square on each piece, so p = 1 gives its plain integral.
    """
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"p={p!r} must be finite and >= 1")
    e = 2.0 * p + 1.0
    return 2.0 / e * (ks.t1 ** e + max(ks.t2 - 0.5, 0.0) ** e)


def identity_residual(ft: FunctionTriple, ks: KernelSpec, tol: float = oracle.DEFAULT_TOL) -> float:
    """Numeric residual of the integral identity behind the two-point rule.

    Left side: average integral of f minus the generalized rule value.
    Right side: (b-a)^2/2 times the weighted integral of f'' along the
    affine path t*a + (1-t)*b, integrated piece by piece (the weight jumps
    at the breakpoints). The left side integrates a registry f in closed
    form, to within its rounding, and the right side runs GK15 at ``tol``,
    so the residual reflects identity error rather than quadrature error.
    Expect |residual| below 1e-9 for the smooth registry functions.
    """
    iv = ks.iv
    require_domain(ft, iv)
    a, b = iv.a, iv.b

    avg = oracle.integrate(ft.f, a, b, tol).value / iv.length
    lhs = avg - generalized_rule(ft, iv, ks.x).value_avg

    breaks = (0.0, ks.t1, ks.t2, 1.0)
    rhs = 0.0
    for lo, hi, c in zip(breaks, breaks[1:], _CENTRES):
        if hi > lo:
            integrand = lambda t, c=c: (t - c) ** 2 * ft.f2(t * a + (1.0 - t) * b)
            rhs += oracle.integrate(integrand, lo, hi, tol).value
    rhs *= 0.5 * iv.length ** 2
    return lhs - rhs
