"""Numeric core: registry function evaluation and the adaptive
Gauss-Kronrod integrator, in pure Python.
"""

import math
import operator
from itertools import pairwise, repeat

from .errors import DomainError, IntegrationError

_MAX_DEPTH = 52
_MAX_SEGMENTS = 4096
# Below this, a float value of P in `_poly_convex` may have lost its sign.
_TINY = 2.0 ** -969

# 7-point Gauss / 15-point Kronrod pair on [-1, 1]. Abscissae are symmetric,
# so only the nonnegative half is stored; the Gauss weights belong to the
# odd-indexed Kronrod nodes plus the centre.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _poly_derivative(coeffs):
    """Differentiate a coefficient list (highest degree first)."""
    n = len(coeffs) - 1
    if n == 0:
        return [0.0]
    return [coeffs[i] * (n - i) for i in range(n)]


def spec_string(kind, params):
    """Registry id of a function: "exp", "power:2.5", "poly:1,0,-3"."""
    if not params:
        return kind
    return kind + ":" + ",".join(format(v, "g") for v in params)


def _powerlike(coef, expo, lo, hi, overflow):
    def fn(x, _coef=coef, _expo=expo, _lo=lo, _hi=hi):
        if not (_lo < x < _hi):
            raise DomainError(f"x={x!r} outside the open domain ({_lo!r}, {_hi!r})")
        if _coef == 0.0:
            return 0.0
        try:
            r = _coef * math.pow(x, _expo)
        except OverflowError:
            raise overflow(x) from None
        if r - r:  # inf: the product overflowed after math.pow did not
            raise overflow(x)
        return r

    fn.batch = (_pow_column, (coef, expo), lo, hi)
    # x**e for e > 1 (an integer where x < 0 is in the domain) turns at 0
    # when e is even and has a root of its derivative there when e is odd:
    # the cut keeps every root of f'' among the cuts of f'.
    fn.cuts = (_zero_cut if expo > 1.0 else _ends, ())
    fn.abs_pow_convex = (_power_convex, (0.0 if coef == 0.0 else expo,))
    return fn


def _pow_column(xs, coef, expo):
    """coef * x**expo over a column: the formula of `_powerlike`. Raises
    OverflowError, so that `column` runs the scalar map, where the product
    may have overflowed."""
    if coef == 0.0:
        return [0.0] * len(xs)
    col = list(map(math.pow, xs, repeat(expo)))
    if coef == 1.0:
        return col
    col = list(map(operator.mul, repeat(coef), col))
    if abs(coef) > 1.0 and (total := sum(col)) - total:
        raise OverflowError
    return col


def _neglog_column(xs):
    return list(map(operator.neg, map(math.log, xs)))


def _exp_column(xs):
    return list(map(math.exp, xs))


def _ends(a, b):
    """Monotone cuts of a monotone g."""
    return [a, b]


def _zero_cut(a, b):
    """Monotone cuts of a g that is monotone on each side of 0."""
    return [a, 0.0, b] if a < 0.0 < b else [a, b]


def _power_convex(a, b, q, expo):
    """|c x**e|**q = |c|**q |x|**(q e), c != 0, is convex on any interval of
    the domain iff k = q e has k (k - 1) >= 0 (e is 0 for c = 0)."""
    k = q * expo
    return k * (k - 1.0) >= 0.0


def _always_convex(a, b, q):
    return True


def _poly_mul(p, r):
    out = [0.0] * (len(p) + len(r) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(r):
            out[i + j] += u * v
    return out


def _poly_convex(a, b, q, h):
    """|h|**q (q >= 1) is convex on [a, b] iff P = (q-1) h'**2 + h h'' >= 0
    there: (|h|**q)'' = q |h|**(q-2) P off the roots of h, where |h|**q has
    its minimum 0. P is checked at its own monotone cuts, with an allowance
    for the rounding of its evaluation proportional to the same expression
    in |coefficients| and |x|. Where that scale is below 2**-969, the float
    value of P may have underflowed (to -0.0, or with its allowance to 0),
    so its sign is decided exactly. None when a value is not finite."""
    if len(h) < 3:  # h'' = 0, so P = (q-1) h'**2 >= 0
        return True
    h1 = _poly_derivative(h)
    h2 = _poly_derivative(h1)
    poly = [(q - 1.0) * s + c for s, c in zip(_poly_mul(h1, h1), _poly_mul(h, h2))]
    for x in _monotone_cuts(a, b, poly):
        u, v, w = _horner(h, x), _horner(h1, x), _horner(h2, x)
        value = (q - 1.0) * v * v + u * w
        if value - value:
            return None
        if value < _TINY:
            u, v, w = (_horner(list(map(abs, c)), abs(x)) for c in (h, h1, h2))
            scale = (q - 1.0) * v * v + u * w
            if scale - scale:
                return None
            if scale < _TINY:
                if _exact_p_negative(h, x, q):
                    return False
            elif value < -len(h) * 2.0 ** -49 * scale:
                return False
    return True


def _exact_p_negative(h, x, q):
    """Whether P = (q-1) h'**2 + h h'' < 0 at x, in rational arithmetic."""
    from fractions import Fraction  # only P too small to sign in floats needs it

    t = Fraction(x)
    h0 = [Fraction(c) for c in h]
    h1 = _poly_derivative(h0)
    # not `_horner`: its float accumulator would round the Fractions
    u, v, w = (sum(c * t ** k for k, c in enumerate(reversed(p)))
               for p in (h0, h1, _poly_derivative(h1)))
    return (Fraction(q) - 1) * v * v + u * w < 0


def _horner(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _monotone_cuts(a, b, coeffs):
    """Sorted points of [a, b], a and b included, between consecutive ones of
    which the polynomial ``coeffs`` (highest degree first) is monotone.

    The cuts of the derivative split [a, b] into pieces on which the
    derivative is monotone, so it changes sign at most once on each: inside,
    bisected to a bracket of two adjacent floats that both become cuts, or
    at an end where it is exactly 0, which stays a cut. It is evaluated in
    floats, so "monotone" holds up to its rounding inside a bracket.
    """
    if len(coeffs) < 3:
        return [a, b]
    deriv = _poly_derivative(coeffs)
    cuts = [a]
    for lo, hi in pairwise(_monotone_cuts(a, b, deriv)):
        dlo, dhi = _horner(deriv, lo), _horner(deriv, hi)
        if dlo < 0.0 < dhi or dhi < 0.0 < dlo:
            cuts += _bisect_sign_change(deriv, lo, hi, dlo < 0.0)
        if dhi == 0.0 or hi == b:
            cuts.append(hi)
    return cuts


def _bisect_sign_change(coeffs, lo, hi, neg_lo):
    """Shrink [lo, hi], over which the polynomial changes sign (negative at
    lo when ``neg_lo``), to two adjacent floats, or to one point where it is
    exactly 0. A bracket across 0 is split at 0 first: halving towards a
    root at 0 would take some 1075 steps, one per binade."""
    mid = 0.0 if lo < 0.0 < hi else lo + 0.5 * (hi - lo)
    while lo < mid < hi:
        v = _horner(coeffs, mid)
        if v == 0.0:
            return (mid,)
        if (v < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
        mid = lo + 0.5 * (hi - lo)
    return lo, hi


def column(fn, xs, within=None):
    """Evaluate ``fn`` at every point of the sequence ``xs``: exactly
    ``list(map(fn, xs))``, value for value and error for error.

    Registry evaluators of power, reciprocal, neglog and exp carry a
    ``batch`` attribute ``(fast, args, lo, hi)``; their column runs through
    C-level math maps when every point lies inside the open domain (lo, hi)
    and none is NaN. Otherwise, when the fast column overflows, and for any
    callable without ``batch``, the scalar evaluator runs point by point and
    raises its own DomainError.

    ``within = (x_lo, x_hi)`` is for callers that know every point is a
    number in [x_lo, x_hi], as the composite kernel knows of a validated
    block: the domain test then compares the two ends instead of passing
    over ``xs``.
    """
    batch = getattr(fn, "batch", None)
    if batch is not None and xs:
        fast, args, lo, hi = batch
        if within is None:
            total = sum(xs)
            # min and max can skip a NaN that is not first; the sum cannot.
            inside = lo < min(xs) and max(xs) < hi and total == total
        else:
            inside = lo < within[0] and within[1] < hi
        if inside:
            try:
                return fast(xs, *args)
            except OverflowError:
                pass
    return list(map(fn, xs))


def make_func(kind, params, deriv, lo, hi):
    """Build a scalar evaluator for one derivative of a registry function.

    ``kind`` is one of "power", "reciprocal", "neglog", "exp", "poly";
    ``deriv`` is 0, 1 or 2; ``(lo, hi)`` is the open domain. Its only
    caller, `functions.register_builtin`, has checked the kind and made
    ``params`` a list of finite floats, with at least one poly
    coefficient, so none of this is checked again here. The returned
    callable raises DomainError outside the domain, and where the value
    overflows the float range, rather than raising OverflowError or
    returning a non-finite value. For every kind but poly it also carries
    the ``batch`` tuple that `column` runs. Every evaluator g but neglog's
    f carries two exact answers about g on a concrete [a, b]:

    - ``cuts = (points, args)``: ``points(a, b, *args)`` returns sorted
      points of [a, b], a and b included, between consecutive ones of which
      g is monotone, so |g| peaks at one of them. They are a and b for exp
      and c*x**e, plus 0 when a < 0 < b and e > 1, and the cuts of
      `_monotone_cuts` for poly. The cuts of f' hold every root of f''
      across which f'' changes sign.
    - ``abs_pow_convex = (test, args)``: ``test(a, b, q, *args)`` says
      whether |g|**q, q >= 1, is convex on [a, b]: for g = c*x**e iff c = 0
      or k(k-1) >= 0 with k = q*e, always for exp, and by `_poly_convex`
      for poly, which returns None where its floats overflow.

    Neither tuple holds a reference to the callable, so building one leaves
    no reference cycle behind.
    """
    def overflow(x):
        name = ("f", "f'", "f''")[deriv] + " of " + spec_string(kind, params)
        return DomainError(f"{name} overflows the float range at x={x!r}")

    if kind == "power":
        p = params[0]
        coef, expo = ((1.0, p), (p, p - 1.0), (p * (p - 1.0), p - 2.0))[deriv]
        return _powerlike(coef, expo, lo, hi, overflow)
    if kind == "reciprocal":
        coef, expo = ((1.0, -1.0), (-1.0, -2.0), (2.0, -3.0))[deriv]
        return _powerlike(coef, expo, lo, hi, overflow)
    if kind == "neglog":
        if deriv == 0:

            def fn(x, _lo=lo, _hi=hi):
                if not (_lo < x < _hi):
                    raise DomainError(f"x={x!r} outside the open domain ({_lo!r}, {_hi!r})")
                return -math.log(x)

            fn.batch = (_neglog_column, (), lo, hi)
            return fn
        coef, expo = ((-1.0, -1.0), (1.0, -2.0))[deriv - 1]
        return _powerlike(coef, expo, lo, hi, overflow)
    if kind == "exp":

        def fn(x, _lo=lo, _hi=hi):
            if not (_lo < x < _hi):
                raise DomainError(f"x={x!r} outside the open domain ({_lo!r}, {_hi!r})")
            try:
                return math.exp(x)
            except OverflowError:
                raise overflow(x) from None

        fn.batch = (_exp_column, (), lo, hi)
        fn.cuts = (_ends, ())
        fn.abs_pow_convex = (_always_convex, ())
        return fn
    # poly
    coeffs = params
    for _ in range(deriv):
        coeffs = _poly_derivative(coeffs)
    ctail = tuple(coeffs[1:])
    chead = coeffs[0]

    def fn(x, _head=chead, _tail=ctail, _lo=lo, _hi=hi):
        if not (_lo < x < _hi):
            raise DomainError(f"x={x!r} outside the open domain ({_lo!r}, {_hi!r})")
        acc = _head
        for c in _tail:
            acc = acc * x + c
        if acc - acc:  # inf or NaN: a Horner step overflowed
            raise overflow(x)
        return acc

    fn.cuts = (_monotone_cuts, (tuple(coeffs),))
    fn.abs_pow_convex = (_poly_convex, (tuple(coeffs),))
    return fn


def _gk15(g, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = g(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        s = g(c - h * _XGK[j]) + g(c + h * _XGK[j])
        resk += _WGK[j] * s
        if j & 1:
            resg += _WG[(j - 1) // 2] * s
    return resk * h, abs((resk - resg) * h)


def adaptive_quad(g, a, b, tol, points=None):
    """Adaptive bisection of [a, b] with a 7/15 Gauss-Kronrod estimate per
    segment. ``points``, sorted with a first and b last, are breakpoints
    (QUADPACK's QAGP): the pieces between them are the first segments, so
    a kink of g at one of them is never straddled.

    A segment is accepted once its Kronrod/Gauss difference fits the share
    of ``tol`` proportional to its width, so the accepted estimates sum to
    at most ``tol``. Segments are processed left to right and accumulated
    with compensated summation, which makes the result deterministic.

    Its only caller, `oracle.integrate`, has checked a < b and ``tol``.
    Returns ``(value, error_estimate, segments)``. Raises IntegrationError
    when more than 4096 segments would be needed, when bisection hits the
    depth cap of 52 halvings, or on a non-finite sample.
    """
    span = b - a
    stack = [(lo, hi, 0) for lo, hi in pairwise(points or (a, b))][::-1]
    total = 0.0
    comp = 0.0
    err_total = 0.0
    nleaves = len(stack)
    accepted = 0
    while stack:
        lo, hi, depth = stack.pop()
        value, err = _gk15(g, lo, hi)
        if not math.isfinite(value):
            raise IntegrationError(f"non-finite integrand sample in [{lo!r}, {hi!r}]")
        if err <= tol * ((hi - lo) / span):
            # Neumaier step: keep the exact residue of each addition.
            t = total + value
            if abs(total) >= abs(value):
                comp += (total - t) + value
            else:
                comp += (value - t) + total
            total = t
            err_total += err
            accepted += 1
            continue
        if depth >= _MAX_DEPTH:
            raise IntegrationError(
                f"segment [{lo!r}, {hi!r}] cannot be refined further at tol={tol!r}"
            )
        nleaves += 1
        if nleaves > _MAX_SEGMENTS:
            raise IntegrationError(f"needs more than {_MAX_SEGMENTS} segments for tol={tol!r}")
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    return total + comp, err_total, accepted


def backend_name():
    """Name of the numeric core; always "python"."""
    return "python"
