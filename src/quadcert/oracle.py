"""High-accuracy reference integration and derivative-norm estimation.

This module is the single source of "actual error" in every validity test;
its default tolerance (1e-12) is two orders tighter than any assertion that
consumes it, so oracle noise stays negligible against tested quantities.
"""

import math
from dataclasses import dataclass

from . import _backend
from .errors import ParameterError
from .functions import FunctionTriple, Interval, require_domain

DEFAULT_TOL = 1e-12
DEFAULT_LIMIT = 4096
SUP_SAMPLES = 4097

NORM_KINDS = ("sup_f1", "sup_f2", "lp_f2", "l1_f2")

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    abs_error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class NormEstimate:
    """Norm of a derivative over an interval, with how it was obtained.

    ``method`` is "exact" for the sup norms of registry evaluators: the
    largest |value| at the endpoints and at the interior critical points.
    It is "sampled" for the sup norms of other callables, a lower-bound
    estimate whose density ``samples`` records, and "quadrature" for the
    p-norms, which come from adaptive integration. ``samples`` is None
    unless the method is "sampled".
    """

    kind: str
    value: float
    method: str
    p: float | None = None
    samples: int | None = None


def integrate(g, a: float, b: float, tol: float = DEFAULT_TOL,
              limit: int = DEFAULT_LIMIT) -> QuadratureEstimate:
    """Adaptive bisection integral of g over [a, b].

    The per-segment error estimate is the nested Gauss/Kronrod rule
    difference; segments subdivide until their estimates fit within tol.
    Raises IntegrationError when the subdivision cap is hit or a sample is
    non-finite, ParameterError on bad arguments.
    """
    if not a < b:
        raise ParameterError(f"integration needs a < b, got [{a!r}, {b!r}]")
    if tol < 1e-14:
        raise ParameterError("tolerances below 1e-14 are not resolvable in double precision")
    value, err, nseg = _backend.adaptive_quad(g, a, b, tol, limit)
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


def estimate_norm(ft: FunctionTriple, iv: Interval, kind: str,
                  p: float | None = None, samples: int = SUP_SAMPLES) -> NormEstimate:
    """Estimate a derivative norm over the interval.

    sup_f1 / sup_f2: for an evaluator carrying ``sup_points`` (every
    registry evaluator, see `_backend.make_func`), exact: the largest |g|
    at the endpoints and at the interior critical points. For any other
    callable, sampling at ``samples`` (>= 1, validated on both paths)
    evenly spaced points plus golden-section refinement around the sampled
    maximum, a lower-bound estimate. lp_f2 (requires p >= 1): adaptive
    integration of |f''|**p, then the 1/p root. l1_f2: adaptive
    integration of |f''|.
    """
    require_domain(ft, iv)
    if kind not in NORM_KINDS:
        raise ParameterError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")

    if kind in ("sup_f1", "sup_f2"):
        if samples < 1:
            raise ParameterError(f"samples={samples!r} must be >= 1")
        g = ft.f1 if kind == "sup_f1" else ft.f2
        a, b = iv.a, iv.b
        sup_points = getattr(g, "sup_points", None)
        if sup_points is None:
            vals, best = _sampled_sup(g, a, b, samples)
            method = "sampled"
        else:
            points, args = sup_points
            vals = [abs(g(x)) for x in points(a, b, *args)]
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
        est = integrate(lambda x: abs(ft.f2(x)) ** p, iv.a, iv.b)
        return NormEstimate(kind, est.value ** (1.0 / p), "quadrature", p=p)

    est = integrate(lambda x: abs(ft.f2(x)), iv.a, iv.b)
    return NormEstimate(kind, est.value, "quadrature")
