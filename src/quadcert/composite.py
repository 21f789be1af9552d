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


def _outside(nodes, xi, start=0):
    """ParameterError naming the first point xi[i] outside the right half of
    [nodes[i], nodes[i+1]], counting i from ``start``."""
    for i, (lo, hi, v) in enumerate(zip(nodes, nodes[1:], xi), start):
        mid = 0.5 * (lo + hi)
        if not mid <= v <= hi:
            return ParameterError(
                f"xi[{i}]={v!r} outside the admissible right half [{mid!r}, {hi!r}]")


def _is_policy(stored):
    """Whether a partition stores the ``(name, seed)`` of its xi policy in
    place of the points: given points are floats."""
    return bool(stored) and stored[0].__class__ is str


def _draw(policy, rng, nodes):
    """The points of ``policy`` over consecutive ``nodes``; random ones come
    from ``rng``, in subinterval order."""
    if policy == "midpoint":
        return list(_midpoints(nodes))
    if policy == "right":
        return nodes[1:]
    return [(mid := 0.5 * (lo + hi)) + rng.random() * (hi - mid) for lo, hi in pairwise(nodes)]


def _blocks(nodes, stored):
    """(lows, xs) per block of subintervals: the block's nodes and its
    intermediate points, sliced from ``stored`` or drawn by its policy.

    A random point mid + u*(hi - mid) is at least mid, but rounding could
    carry it past hi: a block where it does raises the validation error."""
    if not _is_policy(stored):
        for start in range(0, len(stored), _BLOCK):
            yield nodes[start:start + _BLOCK + 1], stored[start:start + _BLOCK]
        return
    policy, seed = stored
    rng = random.Random(seed)
    for start in range(0, len(nodes) - 1, _BLOCK):
        lows = nodes[start:start + _BLOCK + 1]
        xs = _draw(policy, rng, lows)
        if policy == "random":
            if not all(map(math.isfinite, xs)):
                raise ParameterError("partition values must be finite")
            if not all(map(operator.le, xs, lows[1:])):
                raise _outside(lows, xs, start)
        yield lows, xs


class Partition(record_base("Partition", [("nodes", tuple), ("xi", tuple)])):
    """Division nodes x_0 < ... < x_n, a tuple of floats, with intermediate
    points xi_i.

    A partition built from given points stores them as a tuple of floats.
    One built by `uniform`, or by the composite wrappers, stores its xi
    policy as ``(name, seed)`` instead and draws the points where they are
    used: the kernel draws them block by block and never holds them all,
    and ``.xi``, iteration and unpacking materialise them as a tuple on
    each access. Equality and hashing compare what is stored, so such a
    partition equals one built with the same arguments, not one built
    from its points.
    """

    __slots__ = ()

    def __new__(cls, nodes, xi):
        self = tuple.__new__(cls, (tuple(map(float, nodes)), tuple(map(float, xi))))
        self.__post_init__()
        return self

    @classmethod
    def _of_policy(cls, nodes, policy, seed=None):
        """Partition of the float tuple ``nodes`` with the points of
        ``policy``; ``seed`` seeds the random one."""
        self = tuple.__new__(cls, (nodes, (policy, seed)))
        self.__post_init__()
        return self

    @property
    def xi(self) -> tuple:
        stored = self[1]
        if not _is_policy(stored):
            return stored
        out = []
        for _, xs in _blocks(self.nodes, stored):
            out += xs
        return tuple(out)

    def __iter__(self):
        # unpacking, _replace, _asdict, copying and pickling see the points
        return iter((self.nodes, self.xi))

    def __repr__(self):
        return f"Partition(nodes={self.nodes!r}, xi={self.xi!r})"

    def __post_init__(self):
        """Validation, run once by ``__new__``, `uniform` and the composite
        wrappers. perfbench's tracer wraps it by this name as
        ``composite.Partition.init``.

        A policy's points need no check once the nodes are finite and
        strictly increasing and lo + hi is finite at both ends: lo + hi
        grows with i, so it is finite throughout, 0.5 * (lo + hi) then lies
        in [lo, hi], and a random point mid + u*(hi - mid), u >= 0, is at
        least mid. Otherwise the points are drawn and checked as given
        points are, so the error is the one they raise."""
        nodes, xi = self.nodes, self[1]
        if _is_policy(xi):
            if (len(nodes) > 1 and all(map(math.isfinite, nodes))
                    and all(map(operator.lt, nodes, nodes[1:]))
                    and math.isfinite(nodes[0] + nodes[1])
                    and math.isfinite(nodes[-2] + nodes[-1])):
                return
            xi = _draw(xi[0], random.Random(xi[1]), nodes)
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
            raise _outside(nodes, xi)

    @classmethod
    def uniform(cls, a: float, b: float, n: int, xi_policy: str = "midpoint",
                seed: int = 0) -> "Partition":
        """n equal subintervals of [a, b] with intermediate points chosen by
        policy: the subinterval midpoint, the right node, or uniform random
        within the admissible right half (deterministic under ``seed``)."""
        try:
            n = operator.index(n)
        except TypeError:
            raise ParameterError(f"need an integer number of subintervals, got {n!r}") from None
        if n < 1:
            raise ParameterError(f"need n >= 1 subintervals, got {n!r}")
        if not a < b:
            raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
        if xi_policy not in XI_POLICIES:
            raise ParameterError(f"unknown xi policy {xi_policy!r}; expected one of {XI_POLICIES}")
        nodes = tuple([((n - i) * a + i * b) / n for i in range(n + 1)])
        if nodes[0].__class__ is not float:  # a and b of another number type
            nodes = tuple(map(float, nodes))
        return cls._of_policy(nodes, xi_policy, seed if xi_policy == "random" else None)


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
    running as one column per block (`_backend.column`); the points of a
    policy partition are drawn per block. Validation has placed a block's
    nodes and points in [lows[0], lows[-1]], so their columns are given
    that range in place of a domain pass over the points; mirrors, which
    nothing validates, get the full pass. f and f' are evaluated once per
    distinct point: in a block where every mirror lo+hi-xi equals its xi
    (the midpoint rule), one column of f serves both, and f' is not
    evaluated, since its difference is 0.
    f'' is evaluated once per node. Raises DomainError when a value or bound
    is not finite, and ParameterError when a bound overflows, or when a
    random point drawn here falls outside its right half.
    """
    nodes = part.nodes
    span = Interval(nodes[0], nodes[-1])
    require_domain(ft, span)
    values, bounds = [], []
    g_last = None
    for lows, xs in _blocks(nodes, part[1]):
        highs = lows[1:]
        within = (lows[0], lows[-1])
        mirrors = mirror_points(lows, highs, xs)
        if all(map(operator.eq, mirrors, xs)):
            # f'(x) - f'(x) is +0.0 wherever f' is finite: skip f'.
            fx = fm = column(ft.f, xs, within)
            dx = dm = repeat(0.0)
        else:
            fx, fm = column(ft.f, xs, within), column(ft.f, mirrors)
            dx, dm = column(ft.f1, xs, within), column(ft.f1, mirrors)
        if g_last is None:
            g = list(map(abs, column(ft.f2, lows, within)))
        else:
            g = [g_last]
            g += map(abs, column(ft.f2, highs, within))
        g_last = g[-1]
        values += two_point_totals(lows, highs, xs, fx, fm, dx, dm)
        try:
            bounds += convex_bounds(lows, highs, xs, g)
        except OverflowError:
            raise overflow_error("composite bound", span, n=len(nodes) - 1) from None
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
    return composite_generalized(ft, Partition._of_policy(tuple(map(float, nodes)), "right"))


def composite_midpoint(ft: FunctionTriple, nodes) -> CompositeResult:
    """Composite midpoint rule: h * f(mid) per subinterval, remainder bound
    h^3/48 * (|f''(lo)| + |f''(hi)|)."""
    return composite_generalized(ft, Partition._of_policy(tuple(map(float, nodes)), "midpoint"))
