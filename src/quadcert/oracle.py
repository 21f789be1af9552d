"""High-accuracy reference integration and derivative-norm estimation.

This module is the single source of "actual error" in every validity test.
A registry evaluator is integrated in closed form (0 subdivisions), with a
bound on the closed form's rounding as its error estimate, which the
tolerance does not bind. Any other integrand runs adaptive GK15, whose
default tolerance (1e-12) is two orders tighter than any assertion that
consumes it, so oracle noise stays negligible against tested quantities.
"""

import bisect
import math
from itertools import pairwise
from typing import NamedTuple

from . import _backend
from .errors import IntegrationError, ParameterError
from .functions import FunctionTriple, Interval, require_domain

DEFAULT_TOL = 1e-12
SUP_SAMPLES = 4097

NORM_KINDS = ("sup_f1", "sup_f2", "lp_f2", "l1_f2")

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 80


class QuadratureEstimate(NamedTuple):
    value: float
    abs_error_estimate: float
    subdivisions: int


class NormEstimate(NamedTuple):
    """Norm of a derivative over an interval, with how it was obtained.

    ``method`` is "exact" for the sup norms of registry evaluators, the
    largest |value| at their monotone cuts, for the L1 norm of a registry
    f'', the total variation of f' over its cuts, and for the Lp norm of a
    registry f'' with a closed form, the upper end of an enclosure of the
    norm. It is "sampled" for the sup norms of other callables, a
    lower-bound estimate whose density ``samples`` records, and
    "quadrature" for the other Lp norms and for the L1 norm of other
    callables, which come from adaptive integration. ``samples`` is None
    unless the method is "sampled".
    """

    kind: str
    value: float
    method: str
    p: float | None = None
    samples: int | None = None


class _Enclosed(NormEstimate):
    """An exact Lp norm: ``value`` is the upper end of an enclosure of the
    norm, and ``lower``, set once built, its lower end, the least norm a
    caller may supply (`bounds._admit_norm`). It prints, compares and
    hashes as the NormEstimate of its fields."""

    def __repr__(self):
        return repr(NormEstimate(*self))


def integrate(g, a: float, b: float, tol: float = DEFAULT_TOL, *,
              points=None) -> QuadratureEstimate:
    """Integral of g over [a, b].

    A g that carries a closed form, every registry evaluator (its
    ``integral``, a ``(fn, args)`` tuple, see `_backend.make_func`), is
    integrated by it, with 0 subdivisions: the error estimate is then a
    bound on the closed form's rounding, counted over its terms, which
    ``tol`` does not bind. Where the closed form cannot vouch for a finite
    value, as beyond the float range, g runs GK15 like any other callable,
    as does a g whose ``integral`` is anything but a pair, such as a method.

    Otherwise the integral is adaptive bisection, at least one segment. The
    per-segment error estimate is the nested Gauss/Kronrod rule
    difference; segments subdivide until their estimates fit within tol.
    ``points``, sorted with a first and b last, are breakpoints that no
    segment straddles. Raises IntegrationError when more than 4096
    segments or more than 52 bisections would be needed, or a sample is
    non-finite, and ParameterError on bad arguments.
    """
    if not a < b:
        raise ParameterError(f"integration needs a < b, got [{a!r}, {b!r}]")
    if not tol >= 1e-14:
        raise ParameterError(
            f"tol={tol!r} must be at least 1e-14, the finest tolerance double precision resolves")
    closed = getattr(g, "integral", None)
    if type(closed) is tuple and len(closed) == 2:
        try:
            value, bound = closed[0](a, b, *closed[1])
        except OverflowError:
            pass
        else:
            if math.isfinite(value) and bound < math.inf:
                return QuadratureEstimate(value, bound, 0)
    value, err, nseg = _backend.adaptive_quad(g, a, b, tol, points)
    return QuadratureEstimate(value, err, nseg)


def _golden_max(g, lo, hi):
    """Golden-section maximization of g on [lo, hi]."""
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(_GOLDEN_ITERS):
        if hi - lo <= 1e-13 * (1.0 + abs(lo) + abs(hi)):
            break
        if gc < gd:
            lo, c, gc = c, d, gd
            d = lo + _INV_GOLDEN * (hi - lo)
            gd = g(d)
        else:
            hi, d, gd = d, c, gc
            c = hi - _INV_GOLDEN * (hi - lo)
            gc = g(c)
    return max(gc, gd)


def _sampled_sup(g, a, b):
    """|g| at `SUP_SAMPLES` evenly spaced points of [a, b], and their
    maximum after golden-section refinement around the largest sample."""
    # Evenly spaced nodes a + k*step, the last one exactly b (linspace arithmetic).
    last = SUP_SAMPLES - 1
    step = (b - a) / last

    def node(k):
        return b if k == last else a + k * step

    vals = [abs(g(a + k * step)) for k in range(last)]
    vals.append(abs(g(node(last))))
    best = max(vals)
    i = vals.index(best)
    lo, hi = node(max(i - 1, 0)), node(min(i + 1, last))
    if hi > lo:
        best = max(best, _golden_max(lambda x: abs(g(x)), lo, hi))
    return vals, best


def _cuts(g, a, b):
    """Monotone cuts of g on [a, b] for a registry evaluator, else None."""
    cuts = getattr(g, "cuts", None)
    return None if cuts is None else cuts[0](a, b, *cuts[1])


def _graded_at_roots(g, f2, cuts):
    """``(h, points)``, h with the integral of g over [cuts[0], cuts[-1]] and
    ``points`` its breakpoints, for a g ~ |x - r|**p at each root r of f''
    among the cuts, as |f''|**p is. ``points`` is ``cuts`` when no cut is a
    root, and h is g.

    f'' keeps one sign between cuts, so its roots are the cuts where it is
    0 and the two ends of a bracket across which its sign flips (see
    `_backend._bisect_sign_change`). On the quarter [r, r + L] of a piece
    next to a root r, h is g at x = r + w**2 / L, w = t - r, times
    dx/dt = 2 w / L, mirrored for a root at the piece's right end. There
    h ~ w**(2p + 1), which GK15 resolves in a segment or two instead of
    halving towards r, and h stays within twice the largest g on the
    piece. Elsewhere h is g.
    """
    vals = [f2(c) for c in cuts]
    last = len(vals) - 1
    roots = [v == 0.0 or vals[max(i - 1, 0)] * v < 0.0 or v * vals[min(i + 1, last)] < 0.0
             for i, v in enumerate(vals)]
    if not any(roots):
        return g, cuts
    points, pieces = [cuts[0]], []  # pieces[j] = (r, L, side) on [points[j], points[j + 1]]
    for (c, d), (root_c, root_d) in zip(pairwise(cuts), pairwise(roots)):
        quarter = 0.25 * (d - c)  # 0 on a piece a few subnormals wide: not graded
        if root_c and quarter:
            points.append(c + quarter)
            pieces.append((c, quarter, 1))
        pieces.append((0.0, 0.0, 0))
        if root_d and quarter:
            points.append(d - quarter)
            pieces.append((d, quarter, -1))
        points.append(d)

    def h(t):
        r, span, side = pieces[min(bisect.bisect_right(points, t), len(pieces)) - 1]
        if not side:
            return g(t)
        w = (t - r) * side
        w_span = w / span
        return g(r + side * (w * w_span)) * (2.0 * w_span)

    return h, points


def estimate_norm(ft: FunctionTriple, iv: Interval, kind: str,
                  p: float | None = None) -> NormEstimate:
    """Estimate a derivative norm over the interval.

    For registry evaluators, which carry monotone ``cuts`` (see
    `_backend.make_func`):
      sup_f1 / sup_f2: exact, the largest |g| at the cuts of g.
      l1_f2: exact, the total variation of f' over its cuts,
        sum |f'(c_{i+1}) - f'(c_i)|.
      lp_f2 (finite p >= 1): exact, rounded up. The integral of |f''|**p
        in closed form over the cuts of f', which hold every sign change
        of f'', with a bound on its rounding (`_backend.abs_pow_integral`),
        and the 1/p root of its upper end, widened for the rounding of the
        root (`_backend.root_enclosure`); the estimate carries the lower
        end of that enclosure too, for `bounds._admit_norm`. For exp and
        c*x**e at every p, for poly at an integer p with p times its
        number of coefficients at most 64. Any other poly integrates
        |f''|**p adaptively between the same cuts, graded towards each
        root (see `_graded_at_roots`), as does a closed form that cannot
        vouch for its value, and its method is "quadrature".
    For any other callable, sup norms sample `SUP_SAMPLES` (4097) evenly
    spaced points plus golden-section refinement around the sampled
    maximum, a lower-bound estimate, and the p-norms integrate |f''|**p
    straight across [a, b].
    """
    require_domain(ft, iv)
    if kind not in NORM_KINDS:
        raise ParameterError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    a, b = iv.a, iv.b

    if kind in ("sup_f1", "sup_f2"):
        g = ft.f1 if kind == "sup_f1" else ft.f2
        cuts = _cuts(g, a, b)
        if cuts is None:
            vals, best = _sampled_sup(g, a, b)
            method, samples = "sampled", SUP_SAMPLES
        else:
            vals = [abs(g(x)) for x in cuts]
            best = max(vals)
            method, samples = "exact", None
        # max() passes over a NaN value, but the sum of the values (all >= 0)
        # is NaN exactly when one of them is
        if not math.isfinite(best) or math.isnan(sum(vals)):
            raise ParameterError(f"non-finite derivative sample for {ft.id} on [{a}, {b}]")
        return NormEstimate(kind, best, method, samples=samples)

    if kind == "lp_f2":
        if p is None or not 1.0 <= p < math.inf:
            raise ParameterError(f"lp_f2 needs a finite p >= 1, got {p!r}")
        cuts = _cuts(ft.f1, a, b)
        closed = getattr(ft.f2, "integral", None)  # as `integrate` takes it
        if cuts is not None and type(closed) is tuple and len(closed) == 2:
            try:
                ends = _backend.root_enclosure(*_backend.abs_pow_integral(closed, p, cuts), p)
            except OverflowError:
                ends = None
            if ends:
                est = _Enclosed(kind, ends[1], "exact", p=p)
                est.lower = ends[0]
                return est
        g = lambda x: abs(ft.f2(x)) ** p  # noqa: E731
        est = None
        # |f''|**p is smooth up to a root of f'' unless p is fractional.
        if cuts is not None and not float(p).is_integer():
            h, points = _graded_at_roots(g, ft.f2, cuts)
            if points is not cuts:
                try:
                    est = integrate(h, a, b, points=points)
                except IntegrationError:
                    pass  # rounding against the absolute tolerance: try the cuts alone
        if est is None:
            est = integrate(g, a, b, points=cuts)
        return NormEstimate(kind, est.value ** (1.0 / p), "quadrature", p=p)

    cuts = _cuts(ft.f1, a, b)
    if cuts is None:
        return NormEstimate(kind, integrate(lambda x: abs(ft.f2(x)), a, b).value, "quadrature")
    try:
        value = math.fsum(abs(v - u) for u, v in pairwise(map(ft.f1, cuts)))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"non-finite derivative sample for {ft.id} on [{a}, {b}]")
    return NormEstimate(kind, value, "exact")
