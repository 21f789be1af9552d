"""Registry of twice-differentiable test functions with exact derivatives.

Every certificate in the package consumes f'' at interval endpoints (and f'
at interior points), so derivatives are analytic, never numeric: finite
differences would contaminate the bounds with truncation error.
"""

import math
from typing import Callable, NamedTuple

from . import _backend
from .errors import DomainError, ParameterError

BUILTIN_IDS = ("power", "reciprocal", "neglog", "exp", "poly")

_CONVEXITY_TOL = 1e-12


def record_base(name, fields):
    """NamedTuple base for a record whose subclass defines ``__new__`` to
    validate or to fill a default, which a NamedTuple class body cannot.
    ``_make``, and so ``_replace``, builds through that ``__new__`` too."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Interval(record_base("Interval", [("a", float), ("b", float)])):
    """Ordered pair a < b with derived length and midpoint."""

    __slots__ = ()

    def __new__(cls, a, b):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ParameterError("interval endpoints must be finite")
        if not a < b:
            raise ParameterError(f"interval needs a < b, got [{a!r}, {b!r}]")
        if not (math.isfinite(b - a) and math.isfinite(0.5 * (a + b))):
            raise ParameterError("interval length/midpoint overflow")
        return tuple.__new__(cls, (a, b))

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


class FunctionTriple(NamedTuple):
    """A function together with its exact first and second derivatives.

    The three callables share the open domain (domain_lo, domain_hi) and
    raise DomainError outside it instead of returning non-finite values.
    """

    id: str
    f: Callable[[float], float]
    f1: Callable[[float], float]
    f2: Callable[[float], float]
    domain_lo: float
    domain_hi: float


def register_builtin(func_id: str, params=()) -> FunctionTriple:
    """Construct a registry FunctionTriple.

    func_id: "power" (params: [exponent]), "reciprocal" (1/x), "neglog"
    (-ln x), "exp", or "poly"/"polynomial" (params: coefficients, highest
    degree first). Domains are (0, inf) for reciprocal, neglog, and power
    with a non-integer or negative exponent; all reals otherwise.
    """
    kind = "poly" if func_id == "polynomial" else func_id
    if kind not in BUILTIN_IDS:
        raise ParameterError(f"unknown function id {func_id!r}; expected one of {BUILTIN_IDS}")
    params = [float(v) for v in params]
    if not all(math.isfinite(v) for v in params):
        raise ParameterError("function parameters must be finite")

    lo, hi = -math.inf, math.inf
    if kind == "power":
        if len(params) != 1:
            raise ParameterError("power needs exactly one parameter: the exponent")
        p = params[0]
        if not (p.is_integer() and p >= 0):
            lo = 0.0
    elif kind in ("reciprocal", "neglog"):
        if params:
            raise ParameterError(f"{kind} takes no parameters")
        lo = 0.0
    elif kind == "exp":
        if params:
            raise ParameterError("exp takes no parameters")
    else:  # poly
        if not params:
            raise ParameterError("poly needs at least one coefficient")

    return FunctionTriple(
        id=_backend.spec_string(kind, params),
        f=_backend.make_func(kind, params, 0, lo, hi),
        f1=_backend.make_func(kind, params, 1, lo, hi),
        f2=_backend.make_func(kind, params, 2, lo, hi),
        domain_lo=lo,
        domain_hi=hi,
    )


def parse_function_spec(spec: str) -> FunctionTriple:
    """Parse a CLI function spec: "power:2.5", "reciprocal", "poly:1,0,-3"."""
    name, _, tail = spec.strip().partition(":")
    if tail:
        try:
            params = [float(tok) for tok in tail.split(",")]
        except ValueError as exc:
            raise ParameterError(f"bad parameter list in function spec {spec!r}") from exc
    else:
        params = []
    return register_builtin(name, params)


def require_domain(ft: FunctionTriple, iv: Interval) -> None:
    """Raise DomainError unless [iv.a, iv.b] lies inside the open domain."""
    if not (ft.domain_lo < iv.a and iv.b < ft.domain_hi):
        raise DomainError(
            f"interval [{iv.a!r}, {iv.b!r}] not inside domain "
            f"({ft.domain_lo!r}, {ft.domain_hi!r}) of {ft.id}"
        )


def grid_midpoint_convex(g, a, b, grid_n, tol=_CONVEXITY_TOL):
    """Sampled midpoint-convexity test of g on [a, b].

    True when g(x_i) <= (g(x_{i-1}) + g(x_{i+1}))/2 + tol on every adjacent
    triple of the uniform grid. A heuristic, not a proof.
    """
    if grid_n < 3:
        raise ParameterError("grid_n must be at least 3")
    m = grid_n - 1
    vals = [g(((m - i) * a + i * b) / m) for i in range(grid_n)]
    for i in range(1, m):
        if vals[i] > 0.5 * (vals[i - 1] + vals[i + 1]) + tol:
            return False
    return True


def abs_f2_convexity(ft: FunctionTriple, iv: Interval, q: float = 1.0,
                     grid_n: int = 101) -> tuple:
    """Whether |f''|**q (q >= 1) is convex on the interval, and how that was
    found: ``(convex, samples)``. For a registry f'' the answer is exact
    (its ``abs_pow_convex`` test, see `_backend.make_func`) and samples is
    None; otherwise `grid_midpoint_convex` samples ``grid_n`` (>= 3,
    validated on both paths) points, a heuristic.
    """
    if grid_n < 3:
        raise ParameterError("grid_n must be at least 3")
    test = getattr(ft.f2, "abs_pow_convex", None)
    if test is not None:
        convex = test[0](iv.a, iv.b, q, *test[1])
        if convex is not None:
            return convex, None
    return grid_midpoint_convex(lambda x: abs(ft.f2(x)) ** q, iv.a, iv.b, grid_n), grid_n


def check_abs_f2_convexity(ft: FunctionTriple, iv: Interval, grid_n: int = 101) -> bool:
    """Whether |f''| is convex on the interval: exact for registry
    functions, a ``grid_n``-point midpoint-convexity sample otherwise."""
    require_domain(ft, iv)
    return abs_f2_convexity(ft, iv, 1.0, grid_n)[0]
