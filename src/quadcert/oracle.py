"""High-accuracy reference integration and derivative-norm estimation.

This module is the single source of "actual error" in every validity test;
its default tolerance (1e-12) is two orders tighter than any assertion that
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
DEFAULT_LIMIT = 4096
SUP_SAMPLES = 4097

NORM_KINDS = ("sup_f1", "sup_f2", "lp_f2", "l1_f2")

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class QuadratureEstimate(NamedTuple):
    value: float
    abs_error_estimate: float
    subdivisions: int


class NormEstimate(NamedTuple):
    """Norm of a derivative over an interval, with how it was obtained.

    ``method`` is "exact" for the sup norms of registry evaluators, the
    largest |value| at their monotone cuts, and for the L1 norm of a
    registry f'', the total variation of f' over its cuts. It is "sampled"
    for the sup norms of other callables, a lower-bound estimate whose
    density ``samples`` records, and "quadrature" for the Lp norms and
    for the L1 norm of other callables, which come from adaptive
    integration. ``samples`` is None unless the method is "sampled".
    """

    kind: str
    value: float
    method: str
    p: float | None = None
    samples: int | None = None


def integrate(g, a: float, b: float, tol: float = DEFAULT_TOL,
              limit: int = DEFAULT_LIMIT, points=None) -> QuadratureEstimate:
    """Adaptive bisection integral of g over [a, b].

    The per-segment error estimate is the nested Gauss/Kronrod rule
    difference; segments subdivide until their estimates fit within tol.
    ``points``, sorted with a first and b last, are breakpoints that no
    segment straddles. Raises IntegrationError when the subdivision cap is
    hit or a sample is non-finite, ParameterError on bad arguments.
    """
    if not a < b:
        raise ParameterError(f"integration needs a < b, got [{a!r}, {b!r}]")
    if tol < 1e-14:
        raise ParameterError("tolerances below 1e-14 are not resolvable in double precision")
    value, err, nseg = _backend.adaptive_quad(g, a, b, tol, limit, points)
    return QuadratureEstimate(value, err, nseg)


def _golden_max(g, lo, hi, iters=80):
    """Golden-section maximization of g on [lo, hi]."""
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(iters):
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


def _sampled_sup(g, a, b, samples):
    """|g| at ``samples`` evenly spaced points of [a, b], and their maximum
    after golden-section refinement around the largest sample."""
    # Evenly spaced nodes a + k*step, the last one exactly b (linspace arithmetic).
    last = samples - 1
    step = (b - a) / last if last else 0.0

    def node(k):
        return b if 0 < k == last else a + k * step

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
        quarter = 0.25 * (d - c)
        if root_c:
            points.append(c + quarter)
            pieces.append((c, quarter, 1))
        pieces.append((0.0, 0.0, 0))
        if root_d:
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
                  p: float | None = None, samples: int = SUP_SAMPLES) -> NormEstimate:
    """Estimate a derivative norm over the interval.

    For registry evaluators, which carry monotone ``cuts`` (see
    `_backend.make_func`):
      sup_f1 / sup_f2: exact, the largest |g| at the cuts of g.
      l1_f2: exact, the total variation of f' over its cuts,
        sum |f'(c_{i+1}) - f'(c_i)|.
      lp_f2 (p >= 1): adaptive integration of |f''|**p between the cuts of
        f', which include every root of f'', graded towards each root (see
        `_graded_at_roots`), then the 1/p root.
    For any other callable, sup norms sample ``samples`` (>= 1, validated
    on both paths) evenly spaced points plus golden-section refinement
    around the sampled maximum, a lower-bound estimate, and the p-norms
    integrate |f''|**p straight across [a, b].
    """
    require_domain(ft, iv)
    if kind not in NORM_KINDS:
        raise ParameterError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    a, b = iv.a, iv.b

    if kind in ("sup_f1", "sup_f2"):
        if samples < 1:
            raise ParameterError(f"samples={samples!r} must be >= 1")
        g = ft.f1 if kind == "sup_f1" else ft.f2
        cuts = _cuts(g, a, b)
        if cuts is None:
            vals, best = _sampled_sup(g, a, b, samples)
            method = "sampled"
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
        if p is None or p < 1.0:
            raise ParameterError("lp_f2 needs p >= 1")
        g = lambda x: abs(ft.f2(x)) ** p  # noqa: E731
        cuts = _cuts(ft.f1, a, b)
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
