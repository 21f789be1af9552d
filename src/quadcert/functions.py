"""Registry of twice-differentiable test functions with exact derivatives.

Every certificate in the package consumes f'' at interval endpoints (and f'
at interior points), so derivatives are analytic, never numeric: finite
differences would contaminate the bounds with truncation error.
"""

import functools
import math
from typing import Callable, NamedTuple

from . import _backend
from .errors import DomainError, ParameterError

BUILTIN_IDS = ("power", "reciprocal", "neglog", "exp", "poly")

_CONVEXITY_TOL = 1e-12
_CONVEXITY_GRID = 101
# distinct specs `parse_function_spec` keeps built, per builder
_SPEC_CACHE_SIZE = 128
# `_backend.make_func` as imported, the builder of `_parse_cached`'s
# triples; held in a tuple, so that rebinding every module attribute that
# is `make_func` (as a call-counting tracer does) leaves it alone
_BUILDER = (_backend.make_func,)
# {builder: {spec: triple}} for the replaced `make_func` of the last parse
_replaced = {}


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
    (-ln x), "exp", or "poly" (params: coefficients, highest degree first).
    Domains are (0, inf) for reciprocal, neglog, and power with a
    non-integer or negative exponent; all reals otherwise.
    """
    if func_id not in BUILTIN_IDS:
        raise ParameterError(f"unknown function id {func_id!r}; expected one of {BUILTIN_IDS}")
    params = [float(v) for v in params]
    if not all(math.isfinite(v) for v in params):
        raise ParameterError("function parameters must be finite")

    lo, hi = -math.inf, math.inf
    if func_id == "power":
        if len(params) != 1:
            raise ParameterError("power needs exactly one parameter: the exponent")
        p = params[0]
        if not (p.is_integer() and p >= 0):
            lo = 0.0
    elif func_id in ("reciprocal", "neglog"):
        if params:
            raise ParameterError(f"{func_id} takes no parameters")
        lo = 0.0
    elif func_id == "exp":
        if params:
            raise ParameterError("exp takes no parameters")
    else:  # poly
        if not params:
            raise ParameterError("poly needs at least one coefficient")

    return FunctionTriple(
        id=_backend.spec_string(func_id, params),
        f=_backend.make_func(func_id, params, 0, lo, hi),
        f1=_backend.make_func(func_id, params, 1, lo, hi),
        f2=_backend.make_func(func_id, params, 2, lo, hi),
        domain_lo=lo,
        domain_hi=hi,
    )


def parse_function_spec(spec: str) -> FunctionTriple:
    """Parse a CLI function spec: "power:2.5", "reciprocal", "poly:1,0,-3".

    The triple is built once per spec and shared by every caller that
    parses that spec (a bounded number of recent specs stay cached), so
    set no attributes on its evaluators.
    """
    if not isinstance(spec, str):
        raise ParameterError(f"function spec must be a str, got {type(spec).__name__}")
    builder = _backend.make_func
    if builder is _BUILDER[0]:
        if _replaced:
            _replaced.clear()
        return _parse_cached(spec)
    # `make_func` is replaced (by a wrapper that counts calls, say): its
    # triples are kept apart, and dropped at the first parse under another
    # builder, so none of them is returned, or kept, after it is restored
    triples = _replaced.get(builder)
    if triples is None:
        _replaced.clear()
        triples = _replaced[builder] = {}
    ft = triples.get(spec)
    if ft is None:
        if len(triples) >= _SPEC_CACHE_SIZE:
            triples.clear()
        ft = triples[spec] = _parse_cached.__wrapped__(spec)
    return ft


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _parse_cached(spec):
    """`parse_function_spec`'s triple, built by `_backend.make_func` as
    imported. A failing spec is not cached and raises on every call."""
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


def grid_midpoint_convex(g, a, b):
    """Sampled midpoint-convexity test of g on [a, b].

    True when g(x_i) <= (g(x_{i-1}) + g(x_{i+1}))/2 + 1e-12 on every
    adjacent triple of the uniform 101-point grid. A heuristic, not a proof.
    """
    m = _CONVEXITY_GRID - 1
    vals = [g(((m - i) * a + i * b) / m) for i in range(_CONVEXITY_GRID)]
    for i in range(1, m):
        if vals[i] > 0.5 * (vals[i - 1] + vals[i + 1]) + _CONVEXITY_TOL:
            return False
    return True


def abs_f2_convexity(ft: FunctionTriple, iv: Interval, q: float = 1.0) -> tuple:
    """Whether |f''|**q (q >= 1) is convex on the interval, and how that was
    found: ``(convex, samples)``. For a registry f'' the answer is exact
    (the ``abs_pow_convex`` test of its `_backend.Exact` record) and
    samples is None; otherwise, as for any callable without a record,
    `grid_midpoint_convex` samples 101 points, a heuristic, and samples is
    101.
    """
    record = _backend.exact(ft.f2)
    if record is not None and record.abs_pow_convex is not None:
        convex = record.abs_pow_convex[0](iv.a, iv.b, q, *record.abs_pow_convex[1])
        if convex is not None:
            return convex, None
    return grid_midpoint_convex(lambda x: abs(ft.f2(x)) ** q, iv.a, iv.b), _CONVEXITY_GRID

