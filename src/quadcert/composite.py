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
from itertools import chain, count, islice, repeat

from ._backend import column, same_column
from .errors import DomainError, ParameterError
from .functions import FunctionTriple, Interval, require_domain
from .kernel import _mirrored_bounds, _right_bounds, convex_bounds, overflow_error
from .rules import mirror_points, mirrored_totals, two_point_totals

XI_POLICIES = ("midpoint", "right", "random")

# Subintervals per block of column evaluation: large enough that per-block
# overhead vanishes, small enough that a block's columns stay under 1 MB
# where full-size ones would add ~128 MB at n = 1e6.
_BLOCK = 4096


def _midpoints(nodes):
    """0.5 * (lo + hi) over consecutive nodes."""
    return [0.5 * (lo + hi) for lo, hi in zip(nodes, nodes[1:])]


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


def _is_uniform(nodes):
    """Whether a partition stores ``(a, b, n)`` of uniform nodes in place of
    its nodes: stored nodes are floats, n is an int."""
    return len(nodes) == 3 and nodes[2].__class__ is int


def _subintervals(nodes):
    """The number of subintervals of a partition's stored nodes."""
    return nodes[2] if _is_uniform(nodes) else len(nodes) - 1


def _nodes_of(nodes, start=0, stop=None):
    """Nodes ``start`` to ``stop - 1`` of a partition's stored nodes: a slice
    of the tuple, or, of a stored ``(a, b, n)``, a list of the expression
    `Partition.uniform` gives, ((n - i) * a + i * b) / n.

    n - i runs as one float count j, with i = n - j, and n is converted
    once: they are integers of at most 2**53, exact as floats, as is their
    difference, so each term is the same IEEE operation on the same
    operands as the expression over ints."""
    if not _is_uniform(nodes):
        return nodes[start:stop]
    a, b, n = nodes
    stop = n + 1 if stop is None else min(stop, n + 1)
    fn, counts = float(n), islice(count(float(n - start), -1.0), stop - start)
    return [(j * a + (fn - j) * b) / fn for j in counts]


def _node_blocks(nodes):
    """(start, lows) per block of ``_BLOCK`` subintervals of a partition's
    stored nodes: its nodes ``start`` to ``start + _BLOCK`` (`_nodes_of`),
    so that consecutive blocks share a node."""
    for start in range(0, _subintervals(nodes), _BLOCK):
        yield start, _nodes_of(nodes, start, start + _BLOCK + 1)


def _proven_uniform(a, b, n):
    """Whether the nodes ((n - i) * a + i * b) / n of float a and b are proven
    finite and strictly increasing, with lo + hi finite at both ends,
    without computing them.

    Let u = 2**-53 and M = max(|a|, |b|). For 1 <= n <= 2**53, n - i, i and
    n are exact floats, and the exact products and their sum are at most
    n*M, so they stay finite when 4*n*M is, as do the nodes, about M at
    most, and each lo + hi, about 2*M. Each product and the quotient round
    by a relative u plus, where subnormal, 2**-1075; a sum rounds by a
    relative u. So each node is within about 3*u*M + 3 * 2**-1075 of its
    exact value, while exact consecutive nodes are (b - a)/n apart: the
    bound b - a > 16*n*(u*M + 2**-1074) keeps more than twice that error
    between them, with room for the rounding of the test itself."""
    m = max(abs(a), abs(b))
    return (1 <= n <= 2**53 and math.isfinite(4.0 * n * m)
            and b - a > 16.0 * n * (m * 2**-53 + 2**-1074))


def _draw(policy, rng, nodes):
    """The points of ``policy`` over consecutive ``nodes``; random ones come
    from ``rng``, in subinterval order."""
    if policy == "midpoint":
        return _midpoints(nodes)
    if policy == "right":
        return nodes[1:]
    draw = rng.random
    return [(mid := 0.5 * (lo + hi)) + draw() * (hi - mid) for lo, hi in zip(nodes, nodes[1:])]


def _halves_exact(lows):
    """Whether 0.5 * s is exact for every s = lo + hi of a block of strictly
    increasing nodes with finite sums: s does not decrease along the block,
    so |s| >= 2**-1021 at both ends, with the same sign, holds throughout,
    and halving such an s rounds nothing."""
    return lows[0] + lows[1] >= 2.0**-1021 or lows[-2] + lows[-1] <= -2.0**-1021


def _blocks(nodes, stored):
    """(lows, xs, mirrored) per block of subintervals: the block's nodes,
    from the stored ``nodes`` (`_node_blocks`), its intermediate points,
    sliced from ``stored`` or drawn by its policy, and whether every mirror
    lo + hi - x (`rules.mirror_points`) is known to equal its x without
    computing it.

    That is known of a midpoint block whose halves are exact
    (`_halves_exact`) and where no x is hi: there x = s/2 for s = lo + hi,
    and s - s/2 is s/2 exactly (Sterbenz). Where x is hi, adjacent nodes
    whose sum rounds to 2*hi, `mirror_points` takes lo as its mirror.

    A random point mid + u*(hi - mid) is at least mid, but rounding could
    carry it past hi: a block where it does raises the validation error.
    That cannot happen in a block whose first node is >= 0, which skips the
    scans: there s is in [hi, 2*hi], so mid is in [hi/2, hi] and
    d = hi - mid is exact (Sterbenz, or both multiples of 2**-1074 below
    2**-1021 where halving s rounds), fl(u*d) <= d for u < 1, and
    mid + fl(u*d) rounds to at most mid + d = hi."""
    if not _is_policy(stored):
        for start in range(0, len(stored), _BLOCK):
            yield nodes[start:start + _BLOCK + 1], stored[start:start + _BLOCK], False
        return
    policy, seed = stored
    rng = random.Random(seed)
    for start, lows in _node_blocks(nodes):
        xs = _draw(policy, rng, lows)
        mirrored = False
        if policy == "midpoint":
            mirrored = _halves_exact(lows) and not any(map(operator.eq, xs, lows[1:]))
        elif policy == "random" and not lows[0] >= 0.0:
            if not all(map(math.isfinite, xs)):
                raise ParameterError("partition values must be finite")
            if not all(map(operator.le, xs, lows[1:])):
                raise _outside(lows, xs, start)
        yield lows, xs, mirrored


def _first_fault(blocks, misfit=None):
    """The ParameterError of the first check that fails over ``blocks`` of
    (start, lows, xs), or None: a node or point that is not finite, in any
    block, then the first pair of nodes out of order, then ``misfit``, then
    the first point outside its right half. A block adds its points'
    check only while every pair so far is in order."""
    unordered = outside = None
    for start, lows, xs in blocks:
        if not (all(map(math.isfinite, lows)) and all(map(math.isfinite, xs))):
            return ParameterError("partition values must be finite")
        if unordered is not None:
            continue
        # Whole-column checks first; the offending entry is located only
        # when one fails, so the messages name the first bad pair or point.
        highs = lows[1:]
        if not all(map(operator.lt, lows, highs)):
            lo, hi = next((lo, hi) for lo, hi in zip(lows, highs) if not lo < hi)
            unordered = ParameterError(f"nodes must be strictly increasing, got {lo!r} >= {hi!r}")
        elif outside is None and not (all(map(operator.le, xs, highs))
                                      and all(map(operator.le, _midpoints(lows), xs))):
            outside = _outside(lows, xs, start)
    return unordered or misfit or outside


def _in_order(lows):
    """Whether the nodes ``lows``, at least one, are finite and strictly
    increasing. Strictly increasing pairs admit no NaN, which compares
    false, and infinities only at the ends, so only the ends need a
    finiteness test."""
    return (all(map(operator.lt, lows, lows[1:]))
            and math.isfinite(lows[0]) and math.isfinite(lows[-1]))


def _admits_policy(nodes):
    """Whether stored nodes are finite and strictly increasing, with lo + hi
    finite at both ends, checked block by block, one block held at a
    time. A stored tuple is one block, as its full slice is itself."""
    n = _subintervals(nodes)
    size = _BLOCK if _is_uniform(nodes) else n
    return (all(_in_order(_nodes_of(nodes, start, start + size + 1))
                for start in range(0, n, size))
            and math.isfinite(sum(_nodes_of(nodes, 0, 2)))
            and math.isfinite(sum(_nodes_of(nodes, n - 1, n + 1))))


def _floats(values):
    """``values`` as a tuple of floats. A value too large for a float is not
    finite, so it gets the error an infinite one gets. ldexp(v, 0) is v
    converted as a real number is, by ``__float__`` or ``__index__``, where
    float(v) would also parse a str, bytes or buffer; None, complex and
    text are not real numbers."""
    values = tuple(values)
    if set(map(type, values)) <= {float}:
        return values
    try:
        return tuple(map(math.ldexp, values, repeat(0)))
    except OverflowError:
        raise ParameterError("partition values must be finite") from None
    except TypeError:
        raise ParameterError("partition values must be real numbers") from None


class Partition:
    """Division nodes x_0 < ... < x_n with intermediate points xi_i.

    ``Partition(nodes, xi)`` stores the given nodes and points as tuples of
    floats. `uniform` stores ``(a, b, n)`` in place of the nodes, and it
    and the composite wrappers store the xi policy as ``(name, seed)`` in
    place of the points: the kernel computes them block by block and never
    holds them all, and ``.nodes`` and ``.xi`` build them as tuples on each
    access. Equality, hashing, copies and pickles go by what is stored, so
    a uniform partition does not equal one of its nodes and points given in
    full; pickle protocols 0 and 1 refuse it.
    """

    __slots__ = ("_nodes", "_xi")

    def __init__(self, nodes, xi):
        self._nodes, self._xi = _floats(nodes), _floats(xi)
        self.__post_init__()

    @classmethod
    def _of_policy(cls, nodes, policy, seed=None):
        """Partition of the float tuple ``nodes``, or of the uniform nodes of
        ``(a, b, n)``, with the points of ``policy``; ``seed`` seeds the
        random one."""
        self = object.__new__(cls)
        self._nodes, self._xi = nodes, (policy, seed)
        self.__post_init__()
        return self

    @property
    def nodes(self) -> tuple:
        return tuple(_nodes_of(self._nodes))

    @property
    def xi(self) -> tuple:
        if not _is_policy(self._xi):
            return self._xi
        return tuple(chain.from_iterable(xs for _, xs, _ in _blocks(self._nodes, self._xi)))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._nodes == other._nodes and self._xi == other._xi

    def __hash__(self):
        return hash((self._nodes, self._xi))

    def __repr__(self):
        """A stored ``(a, b, n)`` reads as the `uniform` call that builds it,
        without computing a node; given nodes and points read in full."""
        if _is_uniform(self._nodes):
            policy, seed = self._xi
            return (f"Partition.uniform({', '.join(map(repr, self._nodes))}, "
                    f"xi_policy={policy!r}, seed={seed or 0!r})")
        return f"Partition(nodes={self.nodes!r}, xi={self.xi!r})"

    def __post_init__(self):
        """Validation, run once by each constructor: ``__init__``,
        `uniform` and the composite wrappers. perfbench's tracer wraps it by
        this name as ``composite.Partition.init``.

        Stored ``(a, b, n)`` needs n <= 2**53, and no pass over its nodes
        where `_proven_uniform` holds; otherwise its nodes are computed and
        checked block by block, never as a whole tuple, with the errors and
        the order of checks of given nodes. A policy's points need no check
        once the nodes are finite and strictly increasing and lo + hi is
        finite at both ends: lo + hi grows with i, so it is finite
        throughout, 0.5 * (lo + hi) then lies in [lo, hi], and a random
        point mid + u*(hi - mid), u >= 0, is at least mid. Otherwise the
        points are drawn block by block and checked as given points are, so
        the error is the one they raise (`_first_fault`)."""
        nodes, xi = self._nodes, self._xi
        if _is_uniform(nodes):
            if nodes[2] > 2**53:
                raise ParameterError(f"need n <= 2**53 subintervals, got {nodes[2]!r}")
            if _proven_uniform(*nodes):
                return
        if _subintervals(nodes) < 1:
            raise ParameterError("a partition needs at least two nodes")
        if _is_policy(xi):
            if _admits_policy(nodes):
                return
            policy, rng = xi[0], random.Random(xi[1])
            fault = _first_fault((start, lows, _draw(policy, rng, lows))
                                 for start, lows in _node_blocks(nodes))
        else:
            misfit = None if len(xi) == len(nodes) - 1 else ParameterError(
                f"expected {len(nodes) - 1} intermediate points, got {len(xi)}")
            fault = _first_fault([(0, nodes, xi)], misfit)
        if fault is not None:
            raise fault

    @classmethod
    def uniform(cls, a: float, b: float, n: int, xi_policy: str = "midpoint",
                seed: int = 0) -> "Partition":
        """n equal subintervals of [a, b] with intermediate points chosen by
        policy: the subinterval midpoint, the right node, or uniform random
        within the admissible right half (deterministic under the integer
        ``seed``). The endpoints are stored as ``(float(a), float(b), n)``,
        with 1 <= n <= 2**53, and a < b is decided on those floats."""
        try:
            n = operator.index(n)
        except TypeError:
            raise ParameterError(f"need an integer number of subintervals, got {n!r}") from None
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ParameterError(f"need an integer seed, got {seed!r}") from None
        if n < 1:
            raise ParameterError(f"need n >= 1 subintervals, got {n!r}")
        a, b = _floats((a, b))
        if not a < b:
            raise ParameterError(f"need a < b, got [{a!r}, {b!r}]")
        if xi_policy not in XI_POLICIES:
            raise ParameterError(f"unknown xi policy {xi_policy!r}; expected one of {XI_POLICIES}")
        return cls._of_policy((a, b, n), xi_policy,
                              seed if xi_policy == "random" else None)


class CompositeResult:
    """Composite approximation with its summed remainder bound.

    ``approx`` and ``remainder_bound`` are the correctly rounded sums
    (``math.fsum``) of the rule values and the remainder bounds of the
    subintervals, so results do not depend on how the per-subinterval work
    is scheduled. A result holds these two floats and no per-subinterval
    column; the constructor stores them as given. Equality, hashing, copies
    and pickles go by the two sums; pickle protocols 0 and 1 refuse it.
    """

    __slots__ = ("_approx", "_remainder_bound")

    def __init__(self, approx, remainder_bound):
        self._approx, self._remainder_bound = approx, remainder_bound

    approx = property(operator.attrgetter("_approx"))
    remainder_bound = property(operator.attrgetter("_remainder_bound"))

    def __eq__(self, other):
        if not isinstance(other, CompositeResult):
            return NotImplemented
        return (self.approx, self.remainder_bound) == (other.approx, other.remainder_bound)

    def __hash__(self):
        return hash((self.approx, self.remainder_bound))

    def __repr__(self):
        return f"CompositeResult(approx={self.approx!r}, remainder_bound={self.remainder_bound!r})"


def _span(nodes):
    """The interval from the first to the last of a partition's stored nodes."""
    n = _subintervals(nodes)
    return Interval(*_nodes_of(nodes, 0, 1), *_nodes_of(nodes, n, n + 1))


def _telescopes(part):
    """Whether a row's f' corrections telescope to one: a stored uniform
    ``(a, b, n)``, n >= 2, with every point at the right node."""
    nodes = part._nodes
    return part._xi == ("right", None) and _is_uniform(nodes) and nodes[2] >= 2


def _block_columns(ft, part, per_subinterval=False):
    """(values, bounds) per block of subintervals of ``part``: lists of the
    rule value and the remainder bound of each subinterval, in partition
    order. Per subinterval [lo, hi] with intermediate point xi:
      value = h/2 * [f(xi) + f(lo+hi-xi)]
              - h/2 * (xi - (lo+3hi)/4) * [f'(xi) - f'(lo+hi-xi)]
      bound = [(hi-xi)^3 + (xi-mid)^3] * (|f''(lo)| + |f''(hi)|) / 6
    where the mirror lo+hi-xi of xi = hi is lo itself (`rules.mirror_points`).

    On a stored uniform ``(a, b, n)`` with every point at the right node and
    n >= 2 (`_telescopes`), unless ``per_subinterval``, the corrections
    h^2/8 * (f'(hi) - f'(lo)) of equal subintervals telescope: each value is
    the trapezoid term 0.5 * (hi - lo) * (f(hi) + f(lo)), and a last entry,
    ([-c], []), is the row's one correction, a value without a bound,
      c = 0.125 * h * h * (f'(x_n) - f'(x_0)),  h = (b - a) / n,
    with x_0 and x_n the end nodes `_nodes_of` gives. f' runs at those two
    nodes only, x_n then x_0, in the blocks that hold them and in the order
    of the columns it runs in otherwise, so any error raised is one that
    the per-subinterval form raises too, unless that form fails first at
    an interior node's f'.

    Each evaluator runs as one column per block (`_backend.column`); the
    points of a policy partition, and the nodes of a stored ``(a, b, n)``,
    are computed per block. Validation has placed a block's nodes and
    points in [lows[0], lows[-1]], so their columns are given that range in
    place of a domain pass over the points; mirrors are given their own min
    and max. f and f' are evaluated once per distinct point:

    - in a block where every mirror lo+hi-xi equals its xi (the midpoint
      rule), one column of f serves both, and f' is not evaluated, since
      its difference is +0.0: the value is h/2 * 2f(xi), with the
      correction kept only where that is a zero (`rules.mirrored_totals`);
    - in a block where every xi is hi (the right policy), each node is the
      xi of one subinterval and the mirror of the next, so f runs over the
      nodes, and the last one is carried into the next block, n + 1 points
      in all, and so does f' where the corrections do not telescope;
    - otherwise over the n points and their n mirrors.

    f'' is evaluated once per node. Where f' or f'' carries the ``batch`` of
    f, their values are equal (`_backend.make_func`), so f's column serves
    for them over the same points: f' everywhere, f'' at the nodes of a
    right block (exp's three). f's column runs first, so an error is still
    raised as f's. Each block skips the work its shape makes exactly
    redundant, so the bits are those of the formulas above: a midpoint
    block whose halves are exact takes its mirrors as its points without
    computing them (`_blocks`); a random block whose first node is >= 0
    skips the checks that its points are finite and at most hi; and where
    every mirror is its xi, or every xi is hi, the bound drops the cube
    that is a zero (`kernel._mirrored_bounds`, `kernel._right_bounds`).
    Raises DomainError where an evaluator does, and ParameterError when a
    bound overflows, or when a random point drawn here falls outside its
    right half.
    """
    span = _span(part._nodes)
    require_domain(ft, span)
    n = _subintervals(part._nodes)
    telescoped = not per_subinterval and _telescopes(part)
    f1_is_f, f2_is_f = same_column(ft.f, ft.f1), same_column(ft.f, ft.f2)
    g_last = carry = None
    done = 0
    for lows, xs, mirrored in _blocks(part._nodes, part._xi):
        highs = lows[1:]
        within = (lows[0], lows[-1])
        right = not mirrored and xs == highs
        if right:
            # Each mirror is its lo. The first node, unless the block before
            # carried it, runs after the others, so an error at a point is
            # raised before one at a mirror, as on other rows.
            fx = column(ft.f, highs, within)
            fm = column(ft.f, lows[:1], within) if carry is None else [carry[0]]
            fm += fx[:-1]
            if telescoped:
                # f' at x_n, then at x_0, in the blocks that hold them
                if (done := done + len(highs)) == n:
                    d_n = fx[-1] if f1_is_f else column(ft.f1, highs[-1:], within)[0]
                if carry is None:
                    d_0 = fm[0] if f1_is_f else column(ft.f1, lows[:1], within)[0]
                carry = fx[-1], None
                values = [0.5 * (hi - lo) * (u + v) for lo, hi, u, v in zip(lows, highs, fx, fm)]
            else:
                if f1_is_f:
                    dx, dm = fx, fm
                else:
                    dx = column(ft.f1, highs, within)
                    dm = column(ft.f1, lows[:1], within) if carry is None else [carry[1]]
                    dm += dx[:-1]
                carry = fx[-1], dx[-1]
                values = two_point_totals(lows, highs, xs, fx, fm, dx, dm)
        else:
            carry = None
            if not mirrored:
                mirrors = mirror_points(lows, highs, xs)
                mirrored = all(map(operator.eq, mirrors, xs))
            if mirrored:
                values = mirrored_totals(lows, highs, xs, column(ft.f, xs, within))
            else:
                # lo, hi and x are finite, so no mirror is NaN, and its
                # column lies in [min, max] of its entries.
                around = (min(mirrors), max(mirrors))
                fx, fm = column(ft.f, xs, within), column(ft.f, mirrors, around)
                if f1_is_f:
                    dx, dm = fx, fm
                else:
                    dx, dm = column(ft.f1, xs, within), column(ft.f1, mirrors, around)
                values = two_point_totals(lows, highs, xs, fx, fm, dx, dm)
        shared = right and f2_is_f  # f at every node of the block is fm + fx[-1:]
        if g_last is None:
            g = list(map(abs, fm + fx[-1:] if shared else column(ft.f2, lows, within)))
        else:
            g = [g_last]
            g += map(abs, fx if shared else column(ft.f2, highs, within))
        g_last = g[-1]
        try:
            bounds = (_right_bounds(lows, highs, g) if right
                      else _mirrored_bounds(highs, xs, g) if mirrored
                      else convex_bounds(lows, highs, xs, g))
        except OverflowError:
            raise overflow_error("composite bound", span, n=n) from None
        yield values, bounds
    if telescoped:
        a, b, _ = part._nodes
        h = (b - a) / n
        yield [-(0.125 * h * h * (d_n - d_0))], []


def _total(floats):
    """math.fsum of ``floats``, or inf where it raises: on an intermediate
    overflow, or on inf - inf."""
    try:
        return math.fsum(floats)
    except (OverflowError, ValueError):
        return math.inf


def _exact_parts(column):
    """Floats whose exact sum is the exact sum of ``column``.

    Where no entry is negative, two parts do: the plain sum s, and math.fsum
    of the column less s, which is that remainder correctly rounded, or inf
    where the column's sum overflows (`_total`). Every entry, and s, which
    is at least the least entry, is a multiple of u = ulp(least entry), and
    so is the remainder. Summing m entries in turn errs by less than
    1.02 * m * 2**-53 * s < 1.02 * m * ulp(s) (the compensated sum of
    Python 3.12 and later errs less), so the remainder is a float, and the
    second part exact, where m * ulp(s) <= 2**52 * u.

    Otherwise each part is math.fsum of the column less the parts before
    it: that remainder is exact, so the part is it correctly rounded, and
    the next remainder, a multiple of 2**-1074, is at most half an ulp of
    the part. These parts end at the first that is zero or not finite; the
    first is math.fsum of the column, or inf where that raises. So
    math.fsum of the parts of several columns is that of the columns
    joined, signed zeros and non-finite sums included."""
    total = sum(column)
    if total and math.isfinite(total) and (least := min(column)) >= 0.0 \
            and len(column) * math.ulp(total) <= 2.0**52 * math.ulp(least):
        return [total, _total(chain(column, (-total,)))]
    parts = [_total(column)]
    while parts[-1] and math.isfinite(parts[-1]):
        parts.append(math.fsum(chain(column, map(operator.neg, parts))))
    return parts


def _sums(ft, part, per_subinterval):
    """(approx, remainder_bound, fault) of a row: math.fsum of its values
    and of its bounds (`_block_columns`), each inf where it overflows, and
    the DomainError naming its first subinterval whose value or bound is
    not finite, or None. Raises what is raised while a block is computed.

    Each block's values and bounds are reduced as soon as they are
    computed, so a row of any n holds one block's work, and its result its
    two sums. The values of all blocks run through one math.fsum, and each
    block's bounds become their exact parts (`_exact_parts`), summed once
    at the end, so both sums are bit for bit math.fsum of the whole column.
    """
    bound_parts, fault, raised = [], None, None

    def block_values():
        nonlocal fault, raised
        try:
            for start, (values, bounds) in zip(count(0, _BLOCK),
                                               _block_columns(ft, part, per_subinterval)):
                bound_parts.extend(parts := _exact_parts(bounds))
                # parts[0] is not finite where a bound is not, or they overflow
                if fault is None and not math.isfinite(sum(values) + parts[0]):
                    fault = _not_finite(ft, part._nodes, start, values, bounds)
                yield values
        except (OverflowError, ValueError) as error:
            # It comes first. Kept from math.fsum, which would take it for
            # its own: DomainError and ParameterError are ValueErrors.
            raised = error

    blocks = block_values()
    approx = _total(chain.from_iterable(blocks))
    for _ in blocks:  # an overflow stops math.fsum; the later blocks still run
        pass
    if raised is not None:
        raise raised
    return approx, _total(bound_parts), fault


def composite_generalized(ft: FunctionTriple, part: Partition) -> CompositeResult:
    """Two-point rule with derivative correction summed over the partition;
    the per-subinterval formulas, and how each block of subintervals is
    computed, are those of `_block_columns`, and the sums those of `_sums`.

    Raises DomainError when a value or bound is not finite, naming the
    first such subinterval, or, when every entry is finite, when a sum
    overflows; an error raised while a block is computed comes first. A
    row whose corrections telescope and that fails one of these checks is
    computed again per subinterval, so it fails as that form does; where
    that form is finite throughout, its sums are returned.
    """
    approx, total, fault = _sums(ft, part, False)
    finite = fault is None and math.isfinite(approx) and math.isfinite(total)
    if not finite and _telescopes(part):
        approx, total, fault = _sums(ft, part, True)
    if fault is not None:
        raise fault
    if not (math.isfinite(approx) and math.isfinite(total)):
        span = _span(part._nodes)
        raise DomainError(
            f"composite sum of {ft.id} overflows the float range on [{span.a!r}, {span.b!r}]")
    return CompositeResult(approx, total)


def _not_finite(ft, nodes, start, values, bounds):
    """DomainError naming the first subinterval of a block, numbered from
    ``start``, whose value or bound is not finite, or None."""
    for i, (value, bound) in enumerate(zip(values, bounds), start):
        if not (math.isfinite(value) and math.isfinite(bound)):
            lo, hi = _nodes_of(nodes, i, i + 2)
            return DomainError(
                f"composite rule of {ft.id} is not finite on subinterval {i}, "
                f"[{lo!r}, {hi!r}]: value {value!r}, bound {bound!r}")


def composite_perturbed_trapezoid(ft: FunctionTriple, nodes) -> CompositeResult:
    """Composite rule with every intermediate point at the right node.

    Equivalent per subinterval to the trapezoid value corrected by
    h^2/8 times the first-derivative jump, with remainder bound
    h^3/48 * (|f''(lo)| + |f''(hi)|). The nodes are given, so the
    correction is computed per subinterval, with f' at every node; on
    ``Partition.uniform(a, b, n, "right")``, n >= 2, `composite_generalized`
    telescopes it to one end correction instead (`_block_columns`).
    """
    return composite_generalized(ft, Partition._of_policy(_floats(nodes), "right"))


def composite_midpoint(ft: FunctionTriple, nodes) -> CompositeResult:
    """Composite midpoint rule: h * f(mid) per subinterval, remainder bound
    h^3/48 * (|f''(lo)| + |f''(hi)|)."""
    return composite_generalized(ft, Partition._of_policy(_floats(nodes), "midpoint"))
