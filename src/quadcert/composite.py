"""Composite form of the two-point rule over a partition, with a
per-subinterval remainder bound summed into a certificate for the whole
integral.

Intermediate points are restricted to the right half of each subinterval,
[(x_i + x_{i+1})/2, x_{i+1}]: that is where the per-subinterval bound is
established, even though the composite sum itself could be formed for any
placement.
"""

import math
import operator
import random
from itertools import pairwise, repeat
from typing import NamedTuple

from ._backend import column
from .errors import DomainError, ParameterError
from .functions import FunctionTriple, Interval, record_base, require_domain
from .kernel import convex_bounds, overflow_error
from .rules import mirror_points, two_point_totals

XI_POLICIES = ("midpoint", "right", "random")

# Subintervals per block of column evaluation: large enough that per-block
# overhead vanishes, small enough that a block's columns stay under 1 MB
# where full-size ones would add ~128 MB at n = 1e6.
_BLOCK = 4096


def _midpoints(nodes):
    """Lazy 0.5 * (lo + hi) over consecutive nodes."""
    return map(operator.mul, repeat(0.5), map(operator.add, nodes, nodes[1:]))


class Partition(record_base("Partition", [("nodes", tuple), ("xi", tuple)])):
    """Division nodes x_0 < ... < x_n with intermediate points xi_i, stored
    as tuples of floats."""

    __slots__ = ()

    def __new__(cls, nodes, xi):
        self = tuple.__new__(cls, (tuple(map(float, nodes)), tuple(map(float, xi))))
        self.__post_init__()
        return self

    def __post_init__(self):
        """Validation, run by ``__new__`` on the float tuples. perfbench's
        tracer wraps it by this name as ``composite.Partition.init``."""
        nodes, xi = self
        if len(nodes) < 2:
            raise ParameterError("a partition needs at least two nodes")
        if not (all(map(math.isfinite, nodes)) and all(map(math.isfinite, xi))):
            raise ParameterError("partition values must be finite")
        # Whole-column checks first; the offending entry is located only
        # when one fails, so the messages name the first bad pair or point.
        rights = nodes[1:]
        if not all(map(operator.lt, nodes, rights)):
            lo, hi = next((lo, hi) for lo, hi in zip(nodes, rights) if not lo < hi)
            raise ParameterError(f"nodes must be strictly increasing, got {lo!r} >= {hi!r}")
        if len(xi) != len(nodes) - 1:
            raise ParameterError(
                f"expected {len(nodes) - 1} intermediate points, got {len(xi)}")
        if not (all(map(operator.le, xi, rights)) and all(map(operator.le, _midpoints(nodes), xi))):
            for i, (lo, hi, v) in enumerate(zip(nodes, rights, xi)):
                mid = 0.5 * (lo + hi)
                if not mid <= v <= hi:
                    raise ParameterError(
                        f"xi[{i}]={v!r} outside the admissible right half [{mid!r}, {hi!r}]")

    @classmethod
    def uniform(cls, a: float, b: float, n: int, xi_policy: str = "midpoint",
                seed: int = 0) -> "Partition":
        """n equal subintervals of [a, b] with intermediate points chosen by
        policy: the subinterval midpoint, the right node, or uniform random
        within the admissible right half (deterministic under ``seed``)."""
        if n < 1:
            raise ParameterError(f"need n >= 1 subintervals, got {n!r}")
        if not a < b:
            raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
        nodes = [((n - i) * a + i * b) / n for i in range(n + 1)]
        if xi_policy == "midpoint":
            xi = _midpoints(nodes)
        elif xi_policy == "right":
            xi = nodes[1:]
        elif xi_policy == "random":
            rng = random.Random(seed)
            xi = [(mid := 0.5 * (lo + hi)) + rng.random() * (hi - mid)
                  for lo, hi in pairwise(nodes)]
        else:
            raise ParameterError(f"unknown xi policy {xi_policy!r}; expected one of {XI_POLICIES}")
        return cls(nodes, xi)


class CompositeResult(NamedTuple):
    """Composite approximation with its summed remainder bound.

    ``values`` and ``bounds`` hold the per-subinterval rule values and
    remainder bounds, in partition order. ``approx`` and ``remainder_bound``
    are their exact-rounded sums (``math.fsum``), so results do not depend
    on how the per-subinterval work is scheduled.
    """

    approx: float
    remainder_bound: float
    values: tuple
    bounds: tuple

    @property
    def per_interval(self) -> tuple:
        """(value, bound) pairs, one per subinterval."""
        return tuple(zip(self.values, self.bounds))


def composite_generalized(ft: FunctionTriple, part: Partition) -> CompositeResult:
    """Two-point rule with derivative correction summed over the partition.

    Per subinterval [lo, hi] with intermediate point xi:
      value = h/2 * [f(xi) + f(lo+hi-xi)]
              - h/2 * (xi - (lo+3hi)/4) * [f'(xi) - f'(lo+hi-xi)]
      bound = [(hi-xi)^3 + (xi-mid)^3] * (|f''(lo)| + |f''(hi)|) / 6
    where the mirror lo+hi-xi of xi = hi is lo itself (`rules.mirror_points`).

    The partition is processed in blocks of subintervals, each evaluator
    running as one column per block (`_backend.column`). f and f' are
    evaluated once per distinct point: in a block where every mirror
    lo+hi-xi equals its xi (the midpoint rule), one column of f serves both,
    and f' is not evaluated, since its difference is 0.
    f'' is evaluated once per node. Raises DomainError when a value or bound
    is not finite, and ParameterError when a bound overflows.
    """
    nodes, xi = part.nodes, part.xi
    span = Interval(nodes[0], nodes[-1])
    require_domain(ft, span)
    values, bounds = [], []
    g_last = None
    for start in range(0, len(xi), _BLOCK):
        lows = nodes[start:start + _BLOCK + 1]
        highs = lows[1:]
        xs = xi[start:start + _BLOCK]
        mirrors = mirror_points(lows, highs, xs)
        if all(map(operator.eq, mirrors, xs)):
            # f'(x) - f'(x) is +0.0 wherever f' is finite: skip f'.
            fx = fm = column(ft.f, xs)
            dx = dm = repeat(0.0)
        else:
            fx, fm = column(ft.f, xs), column(ft.f, mirrors)
            dx, dm = column(ft.f1, xs), column(ft.f1, mirrors)
        if g_last is None:
            g = list(map(abs, column(ft.f2, lows)))
        else:
            g = [g_last]
            g += map(abs, column(ft.f2, highs))
        g_last = g[-1]
        values += two_point_totals(lows, highs, xs, fx, fm, dx, dm)
        try:
            bounds += convex_bounds(lows, highs, xs, g)
        except OverflowError:
            raise overflow_error("composite bound", span, n=len(xi)) from None
    try:
        approx, total = math.fsum(values), math.fsum(bounds)
    except (OverflowError, ValueError):
        approx = total = math.inf
    if not (math.isfinite(approx) and math.isfinite(total)):
        raise _not_finite(ft, nodes, values, bounds)
    return CompositeResult(approx, total, tuple(values), tuple(bounds))


def _not_finite(ft, nodes, values, bounds):
    """DomainError naming the first subinterval whose value or bound is not
    finite, or the whole partition when only the sum overflows."""
    for i, (value, bound) in enumerate(zip(values, bounds)):
        if not (math.isfinite(value) and math.isfinite(bound)):
            return DomainError(
                f"composite rule of {ft.id} is not finite on subinterval {i}, "
                f"[{nodes[i]!r}, {nodes[i + 1]!r}]: value {value!r}, bound {bound!r}")
    return DomainError(
        f"composite sum of {ft.id} overflows the float range on [{nodes[0]!r}, {nodes[-1]!r}]")


def composite_perturbed_trapezoid(ft: FunctionTriple, nodes) -> CompositeResult:
    """Composite rule with every intermediate point at the right node.

    Equivalent per subinterval to the trapezoid value corrected by
    h^2/8 times the first-derivative jump, with remainder bound
    h^3/48 * (|f''(lo)| + |f''(hi)|).
    """
    nodes = tuple(map(float, nodes))
    return composite_generalized(ft, Partition(nodes, nodes[1:]))


def composite_midpoint(ft: FunctionTriple, nodes) -> CompositeResult:
    """Composite midpoint rule: h * f(mid) per subinterval, remainder bound
    h^3/48 * (|f''(lo)| + |f''(hi)|)."""
    nodes = tuple(map(float, nodes))
    return composite_generalized(ft, Partition(nodes, _midpoints(nodes)))
