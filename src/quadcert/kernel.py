"""Piecewise-quadratic weight behind the generalized two-point rule.

The weight on the unit interval is t^2, then (t - 1/2)^2, then (t - 1)^2,
with breakpoints t1 = (b-x)/(b-a) and t2 = (x-a)/(b-a). Its moments produce
every bound constant in `quadcert.bounds`; `identity_residual` verifies
numerically that the weighted integral of f'' reproduces the rule's
deviation from the average integral.
"""

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


def kernel_eval(ks: KernelSpec, t: float) -> float:
    """Evaluate the weight at t in [0, 1].

    Breakpoint membership: t1 belongs to the middle piece and t2 to the
    last piece (half-open pieces). Note the pieces generally do not agree
    in value at the breakpoints; they do exactly when x = (a+3b)/4.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t={t!r} outside [0, 1]")
    piece = 0 if t < ks.t1 else 1 if t < ks.t2 else 2
    return (t - _CENTRES[piece]) ** 2


def convex_bounds(lows, highs, xs, g):
    """Convex-|f''| bounds in total form from |f''| at the nodes (g[i] at lows[i]);
    run per block by the composite rules, on one-element columns by the certificates."""
    return [((hi - x) ** 3 + (x - 0.5 * (lo + hi)) ** 3) * (glo + ghi) / 6.0
            for lo, hi, x, glo, ghi in zip(lows, highs, xs, g, g[1:])]


def overflow_error(subject, iv, **named):
    """ParameterError for a bound quantity that overflows the float range
    on ``iv``, naming the arguments it was taken at."""
    at = ", ".join(f"{k}={v!r}" for k, v in named.items())
    return ParameterError(
        f"{subject} overflows the float range on [{iv.a!r}, {iv.b!r}] at {at}")


def kernel_abs_moment(ks: KernelSpec) -> float:
    """Integral of |weight| over [0, 1] in closed form.

    Equals 2/(3(b-a)^3) * [(b-x)^3 + (x - (a+b)/2)^3]; the weight is a
    square on each piece, so |weight| = weight.
    """
    return kernel_lp_moment(ks, 1.0)


def kernel_lp_moment(ks: KernelSpec, p: float) -> float:
    """Integral of |weight|**p over [0, 1] in closed form, for p >= 1.

    Equals 2/((2p+1)(b-a)^(2p+1)) * [(b-x)^(2p+1) + (x - (a+b)/2)^(2p+1)],
    computed scale-free as 2/e * [t1^e + (t2 - 1/2)^e], e = 2p+1. At
    x = midpoint t2 - 1/2 can round below 0, which is taken as 0.
    """
    if p < 1.0:
        raise ParameterError(f"p={p!r} must be >= 1")
    e = 2.0 * p + 1.0
    return 2.0 / e * (ks.t1 ** e + max(ks.t2 - 0.5, 0.0) ** e)


def identity_residual(ft: FunctionTriple, ks: KernelSpec, tol: float = oracle.DEFAULT_TOL) -> float:
    """Numeric residual of the integral identity behind the two-point rule.

    Left side: average integral of f minus the generalized rule value.
    Right side: (b-a)^2/2 times the weighted integral of f'' along the
    affine path t*a + (1-t)*b, integrated piece by piece (the weight jumps
    at the breakpoints). Both sides use the same oracle tolerance, so the
    residual reflects identity error rather than quadrature asymmetry.
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
