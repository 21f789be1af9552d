"""Piecewise-quadratic weight behind the generalized two-point rule.

The weight on the unit interval is t^2, then (t - 1/2)^2, then (t - 1)^2,
with breakpoints t1 = (b-x)/(b-a) and t2 = (x-a)/(b-a). Its moments produce
every bound constant in `quadcert.bounds`; `identity_residual` verifies
numerically that the weighted integral of f'' reproduces the rule's
deviation from the average integral.
"""

from dataclasses import dataclass

from . import oracle
from .errors import ParameterError
from .functions import FunctionTriple, Interval, require_domain
from .rules import generalized_rule


@dataclass(frozen=True)
class KernelSpec:
    """Weight configuration for interval ``iv`` and evaluation point ``x``.

    x ranges over the right half [midpoint, b]; degenerate placements
    (x = midpoint or x = b) collapse one piece to zero width. The
    breakpoints satisfy 0 <= t1 <= 1/2 <= t2 <= 1 and t1 + t2 = 1.
    """

    iv: Interval
    x: float

    def __post_init__(self):
        if not (self.iv.midpoint <= self.x <= self.iv.b):
            raise ParameterError(
                f"x={self.x!r} outside [midpoint, b] = [{self.iv.midpoint!r}, {self.iv.b!r}]"
            )

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
    if t < ks.t1:
        return t * t
    if t < ks.t2:
        return (t - 0.5) ** 2
    return (t - 1.0) ** 2


def moment_factor(iv: Interval, x: float, e: float) -> float:
    """(b-x)^e + (x - (a+b)/2)^e: the moment factor behind every bound
    constant of the two-point rule at x in [midpoint, b]. Raises
    OverflowError beyond the float range; callers map it with
    `overflow_error`."""
    return (iv.b - x) ** e + (x - iv.midpoint) ** e


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
    iv = ks.iv
    try:
        return 2.0 / (3.0 * iv.length ** 3) * moment_factor(iv, ks.x, 3)
    except OverflowError:
        raise overflow_error("kernel moment", iv, x=ks.x) from None


def kernel_lp_moment(ks: KernelSpec, p: float) -> float:
    """Integral of |weight|**p over [0, 1] in closed form, for p >= 1.

    Equals 2/((2p+1)(b-a)^(2p+1)) * [(b-x)^(2p+1) + (x - (a+b)/2)^(2p+1)].
    """
    if p < 1.0:
        raise ParameterError(f"p={p!r} must be >= 1")
    iv = ks.iv
    e = 2.0 * p + 1.0
    try:
        return 2.0 / (e * iv.length ** e) * moment_factor(iv, ks.x, e)
    except OverflowError:
        raise overflow_error("kernel moment", iv, x=ks.x, p=p) from None


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

    pieces = (
        (0.0, ks.t1, lambda t: t * t),
        (ks.t1, ks.t2, lambda t: (t - 0.5) ** 2),
        (ks.t2, 1.0, lambda t: (t - 1.0) ** 2),
    )
    rhs = 0.0
    for lo, hi, weight in pieces:
        if hi > lo:
            integrand = lambda t, w=weight: w(t) * ft.f2(t * a + (1.0 - t) * b)
            rhs += oracle.integrate(integrand, lo, hi, tol).value
    rhs *= 0.5 * iv.length ** 2
    return lhs - rhs
