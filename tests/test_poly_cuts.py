"""A polynomial's monotone cuts are isolated once over the real line and
clipped to each interval: restriction, the form of each cut, agreement with
a recursion run on the interval itself where rounding leaves no choice, and
the same answers from a cold and a warm cache."""

import math
from itertools import pairwise

import numpy as np
from hypothesis import example, given, settings, strategies as st

from quadcert import _backend

# Floats on each side of a cut over which a clean draw's derivative must
# have one sign change, and its sign be certain at both ends.
WINDOW = 64


def per_interval_cuts(a, b, coeffs):
    """The monotone cuts of ``coeffs`` on [a, b] by the recursion run on
    [a, b] itself: the cuts of the derivative on [a, b] bracket its sign
    changes, each bisected from the bracket's ends, and a cut where the
    derivative is exactly 0 stays a cut."""
    if len(coeffs) < 3:
        return [a, b]
    deriv = _backend._poly_derivative(coeffs)
    cuts = [a]
    for lo, hi in pairwise(per_interval_cuts(a, b, deriv)):
        dlo, dhi = _backend._horner(deriv, lo), _backend._horner(deriv, hi)
        if dlo < 0.0 < dhi or dhi < 0.0 < dlo:
            cuts += _backend._bisect_sign_change(deriv, lo, hi, dlo < 0.0)
        if dhi == 0.0 or hi == b:
            cuts.append(hi)
    return cuts


@st.composite
def random_polys(draw):
    """Degree 2-7, coefficients in [-3, 3], the leading one at least 0.25;
    at times each coefficient is scaled by its own power of two, up to
    2**60 either way, so that their ratios, and the root bounds, are far
    from 1."""
    coeffs = [draw(st.floats(-3.0, 3.0)) for _ in range(draw(st.integers(3, 8)))]
    coeffs[0] = math.copysign(max(abs(coeffs[0]), 0.25), coeffs[0])
    if draw(st.booleans()):
        coeffs = [math.ldexp(c, draw(st.integers(-60, 60))) for c in coeffs]
    return coeffs


@st.composite
def clustered_polys(draw):
    """A polynomial whose derivative has 2-5 real roots packed within
    1e-12..1e-2 of a centre (some repeated), plus up to two others."""
    centre = draw(st.floats(-2.0, 2.0))
    spread = draw(st.sampled_from((0.0, 1e-12, 1e-8, 1e-4, 1e-2)))
    roots = [centre + spread * draw(st.floats(-1.0, 1.0)) for _ in range(draw(st.integers(2, 5)))]
    roots += draw(st.lists(st.floats(-3.0, 3.0), max_size=2))
    deriv = draw(st.floats(0.25, 3.0)) * np.poly(roots)
    return [float(c) for c in np.polyint(deriv, k=draw(st.floats(-1.0, 1.0)))]


polys = random_polys() | clustered_polys()


@st.composite
def nested_intervals(draw):
    """A <= a < b <= B in [-4, 4], at times scaled by a power of two up to
    2**60 to reach the roots of ill-scaled polys, and at times a or b at A
    or B."""
    scale = math.ldexp(1.0, draw(st.sampled_from((0, 0, 20, 40, 60))))
    ends = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4, unique=True)))
    A, a, b, B = (scale * e for e in ends)
    if draw(st.booleans()):
        a = A
    if draw(st.booleans()):
        b = B
    return A, a, b, B


def _sign(v):
    return (v > 0.0) - (v < 0.0)


def _certain(deriv, x):
    """Whether the float value of ``deriv`` at x has the sign of the exact
    value: it exceeds the rounding bound of Horner's rule."""
    scale = _backend._horner([abs(c) for c in deriv], abs(x)) + 2.0 ** -1022
    return abs(_backend._horner(deriv, x)) > 2.1 * len(deriv) * 2.0 ** -53 * scale


def _window(c):
    lo = hi = c
    for _ in range(WINDOW):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _clean(coeffs, a, b):
    """Whether rounding leaves the cuts no choice: at every level of the
    recursion, the derivative has at most one sign change and one zero over
    the ``WINDOW`` floats on each side of each cut, its sign is certain at
    the ends of that window and at a and b (beyond the rounding of Horner's
    rule, counted as if the result were below the normal range), and a and
    b lie outside that window."""
    g = list(coeffs)
    while len(g) >= 3:
        deriv = _backend._poly_derivative(g)
        if not (_certain(deriv, a) and _certain(deriv, b)):
            return False
        for c in _backend._real_cuts(tuple(g)):
            lo, hi = _window(c)
            if lo <= a <= hi or lo <= b <= hi:
                return False
            if not (_certain(deriv, lo) and _certain(deriv, hi)):
                return False
            x, changes, zeros, last = lo, 0, 0, _sign(_backend._horner(deriv, lo))
            while x < hi:
                x = math.nextafter(x, math.inf)
                s = _sign(_backend._horner(deriv, x))
                zeros += not s
                if s and s != last:
                    changes += 1
                    last = s
            if changes > 1 or zeros > 1:
                return False
        g = deriv
    return True


@settings(max_examples=200, deadline=None)
@given(coeffs=polys, ends=nested_intervals())
def test_cuts_are_the_enclosing_cuts_restricted(coeffs, ends):
    """The cuts over [a, b] are a, the cuts over an enclosing [A, B] that
    lie strictly inside (a, b), and b; sorted and distinct."""
    A, a, b, B = ends
    inner = _backend._monotone_cuts(a, b, coeffs)
    outer = _backend._monotone_cuts(A, B, coeffs)
    assert inner == [a, *(c for c in outer if a < c < b), b]
    assert inner == sorted(set(inner))


@settings(max_examples=200, deadline=None)
@given(coeffs=polys)
# the derivative x**3 of 0.25 x**4 is exactly 0 at 0, the cut of its own
# derivative, where it has no bracket
@example(coeffs=[0.25, 0.0, 0.0, 0.0, 0.0])
# a cut where the derivative is subnormal, 2.2e-313
@example(coeffs=[0.25, 1.0, 2.2250738585e-313, 0.0])
def test_each_cut_is_a_zero_or_a_sign_flip(coeffs):
    """Each cut is a float where the float derivative is exactly 0, or one
    of two adjacent floats, both cuts, across which its sign flips."""
    cuts = _backend._real_cuts(tuple(coeffs))
    deriv = _backend._poly_derivative(coeffs)
    for c in cuts:
        d = _backend._horner(deriv, c)
        if d == 0.0:
            continue
        partners = [n for n in (math.nextafter(c, -math.inf), math.nextafter(c, math.inf))
                    if n in cuts and _sign(_backend._horner(deriv, n)) == -_sign(d)]
        assert partners, (c, d)


@settings(max_examples=200, deadline=None)
@given(coeffs=polys, ends=nested_intervals())
@example(coeffs=[3.0, -2.0, 1.0, 0.0, 5.0, -1.0], ends=(-1.5, -1.2, 1.1, 1.5))
# the derivative 3 x**2 - 3 * 2**53 x - 3 * 2**53 has a root just above
# 2**53 + 1, its Cauchy bound, which rounds down to 2**53
@example(coeffs=[1.0, -3.0 * 2**52, -3.0 * 2**53, 0.0], ends=(0.0, 0.0, 1.5 * 2**53, 1.5 * 2**53))
def test_clean_cuts_are_the_per_interval_cuts(coeffs, ends):
    """Where rounding leaves no choice (`_clean`), the cuts are those of the
    recursion run on [a, b] itself."""
    _, a, b, _ = ends
    if _clean(coeffs, a, b):
        assert _backend._monotone_cuts(a, b, coeffs) == per_interval_cuts(a, b, coeffs)


@settings(max_examples=100, deadline=None)
@given(coeffs=polys, ends=nested_intervals(), q=st.floats(1.0, 4.0))
def test_cold_and_warm_caches_agree(coeffs, ends, q):
    """Cuts and convexity flags are the same, bit for bit, whether the
    caches start empty or were filled on another interval."""
    A, a, b, B = ends
    h = tuple(coeffs)

    def answers():
        return ([float.hex(c) for c in _backend._monotone_cuts(a, b, h)],
                _backend._poly_convex(a, b, q, h))

    _backend._real_cuts.cache_clear()
    _backend._convexity_terms.cache_clear()
    cold = answers()
    _backend._monotone_cuts(A, B, h)
    _backend._poly_convex(A, B, q, h)
    assert answers() == cold


def test_cuts_skip_non_finite_coefficients():
    """Coefficients that are not finite, or a derivative that overflows,
    give no interior cuts."""
    for coeffs in ((1.0, math.inf, 0.0, 1.0), (1.0, math.nan, 0.0), (1e308, 0.0, -1.0, 0.0)):
        assert _backend._monotone_cuts(-1.0, 1.0, coeffs) == [-1.0, 1.0]
