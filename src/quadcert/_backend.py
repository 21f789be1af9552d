"""Numeric core: registry function evaluation and the adaptive
Gauss-Kronrod integrator, in pure Python.
"""

import functools
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from itertools import pairwise, repeat

from .errors import DomainError, IntegrationError

_MAX_DEPTH = 52
_MAX_SEGMENTS = 4096
# Below this, a float value of P in `_poly_convex` may have lost its sign.
_TINY = 2.0 ** -969

# Unit roundoff, and the smallest normal float: an operation whose result is
# at least this large errs by at most u relative, one below it by at most
# u * _NORMAL absolute.
_U = 2.0 ** -53
_NORMAL = 2.0 ** -1022
# Assumed accuracy of each call of math.exp, expm1, log, log1p and pow: at
# most one ulp, glibc's documented figure. One ulp is at most 2u relative,
# so the closed-form integrals count `_CALL` units of u per call.
_LIBM_ULPS = 1.0
_CALL = 2.0 * _LIBM_ULPS
_NAN = (math.nan, math.nan)
# The largest p * (number of coefficients) of a poly whose |poly|**p
# `_poly_abs_pow` expands: some p**2 n**2 / 2 products build the power.
_POLY_POWER_TERMS = 64
# Polynomials whose cuts over the real line (`_real_cuts`) and whose
# convexity terms (`_convexity_terms`) are kept: a spec's f, f' and f'' and
# its P for a few q each take one.
_POLY_CACHE_SIZE = 256

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
    """Registry id of a function: "exp", "power:2.5", "poly:1,0,-3". Each
    param is its shortest round-trip form, ``repr``, less a trailing ".0",
    so parsing the id gives the same params bit for bit."""
    if not params:
        return kind
    return kind + ":" + ",".join(map(_param_string, params))


def _param_string(v):
    r = repr(v)
    return r[:-2] if r.endswith(".0") else r


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
    # rk = (e + 1) - k, exactly (Fast2Sum), for the closed form's k = e + 1
    k = expo + 1.0
    rk = 1.0 - (k - expo) if abs(expo) >= 1.0 else expo - (k - 1.0)
    fn.integral = (_pow_integral, (coef, expo, k, rk, lo))
    return fn


# Closed-form integrals, the ``integral`` attributes of `make_func`. Each
# returns ``(value, bound)``: the integral over [a, b] and a bound on its
# rounding, (units + 2) * u * size. ``size`` is the sum of the magnitudes
# of the value's terms, and ``units`` counts, to first order, their
# relative errors: 1 for each rounded + - * /, `_CALL` for each libm call,
# and a libm call's condition number times the error of its argument. The
# 2 more cover the second-order terms and the rounding of the bound. The
# relative model holds for results of at least `_NORMAL`: a form checks
# that what it rounds stays there, or adds an allowance for what falls
# below. Where it cannot, it returns (nan, nan), and where the value
# leaves the float range it raises OverflowError or returns inf, so that
# `oracle.integrate` runs GK15 instead.

def _exp_integral(a, b):
    """e**b - e**a as e**a * expm1(b - a). d = b - a rounds, and expm1
    would scale that relative error by its condition number at d, up to
    1 + d. So the exact rounding error r of d (Fast2Sum) is added back to
    first order, as e**d * r = (expm1(d) + 1) * r, which leaves second-order
    terms only."""
    d = b - a
    big, small = (b, -a) if abs(b) >= abs(a) else (-a, b)
    r = small - (d - big)
    ea = math.exp(a)
    e = math.expm1(d)
    value = ea * (e + (e + 1.0) * r)
    if not min(ea, e, value) >= _NORMAL:
        return _NAN
    return value, (5.0 + 2.0 * _CALL) * _U * value


def _pow_positive(a, b, coef, k, rk):
    """coef * (b**k - a**k) / k for 0 < a < b, as coef * a**k * expm1(k *
    log1p(t)) / k with t = (b - a) / a, and as coef * log1p(t) for k = 0:
    no difference of nearby powers. log1p's condition number at t > 0 is
    at most 1, and expm1's at y is at most 1 + max(y, 0). The exponent is
    k + rk. A nonzero rk moves the value by a relative rk * d(ln value)/dk,
    and d(ln value)/dk is the mean of ln x over [a, b] weighted by x**(k-1),
    at most |ln a| + log1p(t) in magnitude: the bound counts |rk| times
    that twice, to cover its second order."""
    t = (b - a) / a
    lg = math.log1p(t)
    if k == 0.0:
        value = coef * lg
        if not (t < math.inf and abs(value) >= _NORMAL):
            return _NAN
        units = 5.0 + _CALL
    else:
        y = k * lg
        e = math.expm1(y)
        p = math.pow(a, k)
        cp = coef * p
        cpe = cp * e
        value = cpe / k
        if not (t < math.inf and min(p, abs(cp), abs(cpe), abs(value)) >= _NORMAL):
            return _NAN
        units = 5.0 + 2.0 * _CALL + (1.0 + max(y, 0.0)) * (3.0 + _CALL)
    if rk:
        units += 2.0 * abs(rk) * (abs(math.log(a)) + lg) / _U
    return value, units * _U * abs(value)


def _pow_integral(a, b, coef, expo, k, rk, lo):
    """The integral of coef * x**expo over [a, b] inside the domain (lo,
    inf), with rk = (expo + 1) - k exactly for the float k = expo + 1."""
    if not lo < a:
        return _NAN
    if coef == 0.0:
        return 0.0, 0.0
    if a > 0.0:
        return _pow_positive(a, b, coef, k, rk)
    # Only integer powers have points x <= 0 in their domain, and below
    # 2**53 their k >= 1 is exact.
    if rk:
        return _NAN
    if b < 0.0:  # x = -s: coef * (-1)**expo * s**expo over [-b, -a]
        return _pow_positive(-b, -a, coef if expo % 2.0 == 0.0 else -coef, k, 0.0)
    # a <= 0 <= b: [a, b] is as long as its longer end, so b**k - a**k
    # cancels only where the integral is small against its two terms
    pb, pa = math.pow(b, k), math.pow(a, k)
    terms = pb + abs(pa)
    size = abs(coef) * terms / k
    if not min(terms, size) >= _NORMAL:
        return _NAN
    return coef * (pb - pa) / k, (5.0 + 2.0 * _CALL) * _U * size


def _neglog_integral(a, b):
    """The integral of -ln x over [a, b], 0 < a, as (b - a)(1 - ln b) -
    a log1p((b - a) / a): the form of b - b ln b - (a - a ln a) that
    subtracts no nearby logarithms. log1p's condition number is at most 1."""
    if not a > 0.0:
        return _NAN
    d = b - a
    lnb = math.log(b)
    right = a * math.log1p(d / a)
    if not min(d, right) >= _NORMAL:
        return _NAN
    return d * (1.0 - lnb) - right, (6.0 + _CALL) * _U * (d * (1.0 + abs(lnb)) + right)


def _poly_integral(a, b, coeffs):
    """The integral of the polynomial ``coeffs`` (highest degree first)
    over [a, b], as (b - a) * sum c_m S_m / m over its coefficients c_m of
    x**(m-1), where S_m = sum a**j b**(m-1-j) over j < m, which is
    (b**m - a**m) / (b - a), by S_(m+1) = b S_m + a**m. No nearby powers
    are subtracted: where a and b share a sign, so do all the terms of S_m.

    With n coefficients, S_m errs by at most 2n units of its terms'
    magnitudes, c_m S_m / m by 2 more, the sum by n, and b - a and the last
    product by 2: 3n + 4. Each of the 4n + 1 products and quotients whose
    result falls below `_NORMAL` loses at most u * _NORMAL more, which
    reaches the value multiplied by at most n * (sum |c_m| + 1) * max(1,
    b - a) * R**(n-1), R = max(1, |a|, |b|): ``underflow`` is twice the
    sum of those losses.
    """
    d = b - a
    absb = abs(b)
    s = sabs = total = size = cabs = 0.0
    p = 1.0
    n = 0
    for c in reversed(coeffs):
        n += 1
        s = b * s + p
        sabs = absb * sabs + abs(p)
        total += c * s / n
        size += abs(c) * sabs / n
        cabs += abs(c)
        p *= a
    underflow = 2.0 ** -1074 * ((4 * n + 1) * n * (cabs + 1.0) * max(1.0, d)
                                * max(1.0, -a, b) ** (n - 1))
    return d * total, (3 * n + 6) * _U * d * size + underflow


def _two_product(x, y):
    """fl(x * y) and its exact rounding error x * y - fl(x * y), by Dekker's
    split into 26-bit halves (math.fma needs Python 3.13). The error is
    exact where no partial product leaves the normal range; below it, it
    errs by subnormals only, and it is NaN where a split overflows."""
    prod = x * y
    t = 134217729.0 * x  # 2**27 + 1
    xh = t - (t - x)
    xl = x - xh
    t = 134217729.0 * y
    yh = t - (t - y)
    yl = y - yh
    return prod, ((xh * yh - prod) + xh * yl + xl * yh) + xl * yl


# The Lp forms, for `abs_pow_integral`: the integral of |g|**p, p >= 1,
# under the contract of the closed-form integrals above.

def _exp_abs_pow(a, b, p):
    """e**(p b) - e**(p a) over p, as e**(p a) * expm1(p (b - a)) / p. The
    rounding r1 of p a moves e**(p a) by a relative |r1|, to first order.
    The argument of expm1 errs by r2 + p r0, the roundings of p d and of
    d = b - a, which expm1 turns into a relative error of that times
    e**y / expm1(y)."""
    pa, r1 = _two_product(p, a)
    d = b - a
    big, small = (b, -a) if abs(b) >= abs(a) else (-a, b)
    r0 = small - (d - big)
    y, r2 = _two_product(p, d)
    ea = math.exp(pa)
    e = math.expm1(y)
    value = ea * e / p
    if not min(ea, e, value) >= _NORMAL:
        return _NAN
    units = 5.0 + 2.0 * _CALL + (abs(r1) + abs(r2 + p * r0) * (e + 1.0) / e) / _U
    return value, units * _U * value


def _powerlike_abs_pow(a, b, p, coef, expo, _k, _rk, lo):
    """|coef|**p * |x|**q with q = expo * p, on one side of 0 (mirrored
    where b < 0) as the integral of s**(k-1), k = q + 1, over [s0, s1],
    anchored at the end where s**k is larger: for k <= 0 by `_pow_positive`
    at s0, for k > 0 as s1**k * -expm1(-k log1p(t)) / k with t = (s1 -
    s0) / s0, where expm1's condition number is at most 1 and no end's
    power leaves the float range before the value does. Across 0, as the
    sum of the two positive halves, (|a|**k + b**k) / k.

    The rounding of q (Dekker) and of q + 1 (Fast2Sum) is carried in rk,
    as `_powerlike` carries the rounding of its k; g's own k and rk are
    unused. The mean of ln s that rk multiplies (see `_pow_positive`) is
    over [s0, s1], and across 0 over [0, max(|a|, b)], where the domain
    holds 0, so expo is an integer >= 0 and k >= 1."""
    if not lo < a:
        return _NAN
    if coef == 0.0:
        return 0.0, 0.0
    scale = math.pow(abs(coef), p)
    q, rq = _two_product(expo, p)
    k = q + 1.0
    rk = rq + (1.0 - (k - q) if abs(q) >= 1.0 else q - (k - 1.0))
    if a > 0.0 or b < 0.0:
        s0, s1 = (a, b) if a > 0.0 else (-b, -a)
        if k <= 0.0:
            value, bound = _pow_positive(s0, s1, scale, k, rk)
            return value, bound + _CALL * _U * value
        t = (s1 - s0) / s0
        lg = math.log1p(t)
        ps = math.pow(s1, k)
        e = -math.expm1(-k * lg)
        value = scale * ps * e / k
        if not (t < math.inf and min(ps, e, value) >= _NORMAL):
            return _NAN
        units = 8.0 + 4.0 * _CALL
        log_mean = abs(math.log(s0)) + lg
    else:
        pa, pb = math.pow(-a, k), math.pow(b, k)
        value = scale * (pa + pb) / k
        if not min(pa + pb, value) >= _NORMAL:
            return _NAN
        units = 5.0 + 3.0 * _CALL
        log_mean = max(abs(math.log(x)) for x in (-a, b) if x > 0.0) + 1.0 / k
    if rk:
        units += 2.0 * abs(rk) * log_mean / _U
    # across 0, |a|**k or b**k may fall below the normal range, where it errs
    # by at most _CALL * u * _NORMAL; on one side, the powers are normal
    return value, units * _U * value + 2.0 * _CALL * _U * _NORMAL * scale / k


def _poly_abs_pow(cuts, p, coeffs):
    """For an integer p, h**p on each piece between the cuts, which h
    keeps one sign on, is a polynomial. Each piece is halved, and on each
    half [c, d] h**p is expanded in t = x - m about its midpoint m, which
    keeps the coefficients near the size of h there: over the crossing
    polys of the tests, halving cuts the largest bound 30-fold. The
    coefficients of h(m + t) are each rounded once from their exact values
    (`_shifted`), those of its power come from `_poly_mul`, and the
    absolute values of the power's integrals over [c - m, d - m], by
    `_poly_integral`, are summed.

    Let G(t) be the power of the polynomial of the |coefficients| of h(m +
    t), with N coefficients, and I the integral of G(|t|) over the half.
    Each rounded coefficient of h(m + t) errs by at most u times its own
    magnitude, which moves the power by p units of G, and each coefficient
    of the rounded power errs by at most (p - 1) n units of the same
    coefficient of G, with n coefficients in h: those units count I. The
    rounding of c - m and d - m moves each end by at most u |t|, over
    which the integrand is at most G(|t|), and |t| G(|t|) <= N I: 2 (N + 1)
    units of I more. Two adjacent floats may bracket a root across which h
    changes sign: at an odd p such a half counts 0, with 2 I as its bound.
    Beyond `_POLY_POWER_TERMS`, and for a p that is not an integer, there
    is no form here."""
    n = len(coeffs)
    if not (float(p).is_integer() and p * n <= _POLY_POWER_TERMS):
        return _NAN
    if not any(coeffs):
        return 0.0, 0.0
    p = int(p)
    units = (p - 1) * n + p + 2 * ((n - 1) * p + 2) + 2
    halved = [cuts[0]]
    for c, d in pairwise(cuts):
        m = 0.5 * c + 0.5 * d
        halved += (m, d) if c < m < d else (d,)
    value = bound = 0.0
    for c, d in pairwise(halved):
        m = 0.5 * c + 0.5 * d
        h = _shifted(coeffs, m) if m else coeffs
        habs = [abs(x) + _NORMAL for x in h]  # a coefficient below it errs by u * _NORMAL
        power, absolute = h, habs
        for _ in range(p - 1):
            power = _poly_mul(power, h)
            absolute = _poly_mul(absolute, habs)
        lo, hi = c - m, d - m
        spread = 0.0
        for x, y in ((max(lo, 0.0), hi), (max(-hi, 0.0), -lo)):
            if x < y:
                spread += sum(_poly_integral(x, y, absolute))
        if p % 2 and d == math.nextafter(c, math.inf):
            bound += 2.0 * spread
        else:
            v, e = _poly_integral(lo, hi, power)
            value += abs(v)
            bound += e + units * _U * spread
    return value, bound + len(halved) * _U * value


def _shifted(coeffs, m):
    """The coefficients of h(m + t) in t for the polynomial h = ``coeffs``
    (highest degree first), each the float nearest its exact value. With m
    = M / 2**mu and every coefficient an integer over 2**K, the Horner
    shift runs exactly on the integer coefficients of 2**K 2**(mu deg)
    h(y / 2**mu) at y = M + 2**mu t, and int / int rounds once. Raises
    OverflowError where a coefficient is beyond the float range."""
    num, den = m.as_integer_ratio()
    mu = den.bit_length() - 1
    ratios = [c.as_integer_ratio() for c in coeffs]
    k = max(d.bit_length() for _, d in ratios) - 1
    s = [n << (k - d.bit_length() + 1 + mu * j) for j, (n, d) in enumerate(ratios)]
    for i in range(len(s) - 1, 0, -1):
        for j in range(1, i + 1):
            s[j] += num * s[j - 1]
    return [c / (1 << (k + mu * j)) for j, c in enumerate(s)]


def abs_pow_integral(integral, p, cuts):
    """The integral of |g|**p, p >= 1, over [cuts[0], cuts[-1]] for the
    registry evaluator g whose closed form is ``integral`` = (fn, args),
    under the contract of the closed-form integrals: ``(value, bound)``,
    NaN where a form cannot vouch for its value, and inf or OverflowError
    beyond the float range. ``cuts`` are g's sign pieces, the cuts of f'
    for g = f''. exp and c*x**e have a form at every p, poly at an integer
    p (`_poly_abs_pow`); any other integral has none."""
    fn, args = integral
    if fn is _exp_integral:
        return _exp_abs_pow(cuts[0], cuts[-1], p)
    if fn is _pow_integral:
        return _powerlike_abs_pow(cuts[0], cuts[-1], p, *args)
    if fn is _poly_integral:
        return _poly_abs_pow(cuts, p, *args)
    return _NAN


def root_enclosure(value, bound, p):
    """Floats ``(lower, upper)`` around the p-th root of every number in
    [value - bound, value + bound], p >= 1, for value 0 with bound 0 or
    value at least `_NORMAL` with a finite bound; None otherwise (a form
    that cannot vouch for its value), or where upper overflows.

    Each end is math.pow of the rounded end at the rounded 1/p, widened by
    a relative allowance and then by one ulp. The allowance counts `_CALL`
    for pow; u/p for the rounding of the end; u |ln s| / p for the rounding
    of 1/p, which scales the root s**(1/p) by s**(delta/p); and 3 more for
    the product, the rounding of 1 + units u and the second order. An end
    below the normal range, where the relative model fails, gives lower
    0."""
    if value == 0.0 == bound:
        return 0.0, 0.0
    if not (value >= _NORMAL and bound < math.inf):
        return None
    r = 1.0 / p
    hi = value + bound
    units = _CALL + (1.0 + abs(math.log(hi))) / p + 3.0
    upper = math.nextafter(math.pow(hi, r) * (1.0 + units * _U), math.inf)
    if upper == math.inf:
        return None
    lo = value - bound
    if not lo >= _NORMAL:
        return 0.0, upper
    units = _CALL + (1.0 + abs(math.log(lo))) / p + 3.0
    return math.nextafter(math.pow(lo, r) * (1.0 - units * _U), 0.0), upper


def _pow_column(xs, coef, expo):
    """coef * x**expo over a column: the formula of `_powerlike`. A zero
    coef gives zeros, as the scalar form does, and expo 0 gives coef at
    every x, as math.pow(x, 0.0) is 1.0 for every x. Raises OverflowError,
    so that `column` runs the scalar map, where the product may have
    overflowed."""
    if coef == 0.0:
        return [0.0] * len(xs)
    if expo == 0.0:
        return [coef] * len(xs)
    powers = map(math.pow, xs, repeat(expo))
    if coef == 1.0:
        return list(powers)
    col = list(map(operator.mul, repeat(coef), powers))
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
    its minimum 0. P is formed from h', h'', h'**2 and h h'', which are
    kept per h (`_convexity_terms`), and checked at its own monotone cuts,
    with an allowance for the rounding of its evaluation proportional to
    the same expression in |coefficients| and |x|. Where that scale is
    below 2**-969, the float value of P may have underflowed (to -0.0, or
    with its allowance to 0), so its sign is decided exactly. None when a
    value is not finite."""
    if len(h) < 3:  # h'' = 0, so P = (q-1) h'**2 >= 0
        return True
    h1, h2, square, cross = _convexity_terms(tuple(h))
    poly = tuple((q - 1.0) * s + c for s, c in zip(square, cross))
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


@functools.lru_cache(maxsize=_POLY_CACHE_SIZE)
def _convexity_terms(h):
    """h', h'', h'**2 and h h'' of the polynomial h, for `_poly_convex`."""
    h1 = _poly_derivative(h)
    h2 = _poly_derivative(h1)
    return tuple(h1), tuple(h2), tuple(_poly_mul(h1, h1)), tuple(_poly_mul(h, h2))


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
    """Sorted, distinct points of [a, b], a and b included, between
    consecutive ones of which the polynomial ``coeffs`` (highest degree
    first) is monotone: a, the polynomial's cuts over the real line that
    lie strictly inside (a, b), and b. The cuts are isolated once per
    polynomial (`_real_cuts`) and clipped to [a, b] on each call.
    """
    cuts = _real_cuts(tuple(coeffs))
    return [a, *cuts[bisect_right(cuts, a):bisect_left(cuts, b)], b]


@functools.lru_cache(maxsize=_POLY_CACHE_SIZE)
def _real_cuts(coeffs):
    """The interior monotone cuts of the polynomial ``coeffs`` over the
    real line, sorted and distinct: its derivative's sign changes and the
    cuts of the derivative where the derivative is exactly 0.

    The derivative's own cuts, and R, twice its root bound (Cauchy's, 1
    plus the largest |coefficient| over the leading one's), split [-R, R]
    into pieces on which the derivative is monotone, so it changes sign at most
    once on each: inside, bisected to a bracket of two adjacent floats that
    both become cuts, or at a cut where it is exactly 0, which stays a cut.
    It is evaluated in floats, so "monotone" holds up to its rounding
    inside a bracket. Near a root where the float derivative is 0 at, or
    changes sign across, more than one float, the bracket found is one of
    those, fixed by where bisection starts from R. Non-finite coefficients,
    or a constant derivative, give no cuts.
    """
    deriv = _poly_derivative(coeffs)
    while len(deriv) > 1 and deriv[0] == 0.0:
        deriv = deriv[1:]
    if len(deriv) < 2 or not all(map(math.isfinite, (*coeffs, *deriv))):
        return ()
    # twice the bound: rounding cannot bring it below a root, and at ±r the
    # leading term is at least twice the rest, so the float sign there is
    # the exact one unless the leading coefficient is subnormal; a bound
    # that overflows is beyond every float root
    r = min(2.0 * (1.0 + max(map(abs, deriv[1:])) / abs(deriv[0])), sys.float_info.max)
    ends = [-r, *(c for c in _real_cuts(tuple(deriv)) if -r < c < r), r]
    cuts = []
    for lo, hi in pairwise(ends):
        dlo, dhi = _horner(deriv, lo), _horner(deriv, hi)
        if dlo < 0.0 < dhi or dhi < 0.0 < dlo:
            cuts += _bisect_sign_change(deriv, lo, hi, dlo < 0.0)
        if dhi == 0.0 and hi < r:
            cuts.append(hi)
    return tuple(sorted(set(cuts)))


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


def column(fn, xs, within):
    """Evaluate ``fn`` at every point of the sequence ``xs``: exactly
    ``list(map(fn, xs))``, value for value and error for error, for points
    that are all numbers in ``within = (x_lo, x_hi)``, as the composite
    kernel knows of a validated block.

    Registry evaluators of power, reciprocal, neglog and exp carry a
    ``batch`` attribute ``(fast, args, lo, hi)``; their column runs through
    C-level math maps when [x_lo, x_hi] lies inside the open domain
    (lo, hi), a test of the two ends. Otherwise, when the fast column
    overflows, and for any callable without ``batch``, the scalar
    evaluator runs point by point and raises its own DomainError.
    """
    batch = getattr(fn, "batch", None)
    if batch is not None and xs:
        fast, args, lo, hi = batch
        if lo < within[0] and within[1] < hi:
            try:
                return fast(xs, *args)
            except OverflowError:
                pass
    return list(map(fn, xs))


def same_column(f, g):
    """Whether ``g``'s column is ``f``'s over the same points: both carry an
    equal ``batch``, so their values are equal (`make_func`)."""
    batch = getattr(f, "batch", None)
    return batch is not None and batch == getattr(g, "batch", None)


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
    the ``batch`` tuple that `column` runs. Evaluators with equal ``batch``
    have equal values, and raise at the same points: the batch names the
    formula, its arguments and its domain. Only exp's f, f' and f'' share
    one, so the composite kernel evaluates f's column once for all three
    where they run over the same points (`same_column`). Every evaluator g
    but neglog's f carries two exact answers about g on a concrete [a, b]:

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

    Every evaluator g also carries ``integral = (fn, args)``:
    ``fn(a, b, *args)`` returns ``(value, bound)``, the integral of
    g over [a, b] and a bound on its rounding, from `math` alone and from
    forms that subtract no nearby quantities: e**a * expm1(b - a) for exp;
    for c*x**e, c * a**k * expm1(k * log1p((b - a)/a)) / k where a > 0, or
    c * log1p((b - a)/a) for k = 0, with x -> -x where b < 0 and c *
    (b**k - a**k) / k across 0; for -ln x, (b - a)(1 - ln b) - a *
    log1p((b - a)/a); for poly, (b - a) * sum c_m/m * sum_j a**j
    b**(m-1-j). The bound assumes each libm call within `_LIBM_ULPS` ulp.
    Where a form cannot vouch for its value (an endpoint outside the
    domain, a result below the normal range), it returns NaN, and where
    the value leaves the float range, inf or OverflowError:
    `oracle.integrate` then runs GK15.

    No tuple holds a reference to the callable, so building one leaves no
    reference cycle behind.
    """
    def overflow(x):
        name = ("f", "f'", "f''")[deriv] + " of " + spec_string(kind, params)
        return DomainError(f"{name} overflows the float range at x={x!r}")

    if kind in ("power", "reciprocal"):
        p = params[0] if kind == "power" else -1.0
        coef, expo = ((1.0, p), (p, p - 1.0), (p * (p - 1.0), p - 2.0))[deriv]
        return _powerlike(coef, expo, lo, hi, overflow)
    if kind == "neglog":
        if deriv == 0:

            def fn(x, _lo=lo, _hi=hi):
                if not (_lo < x < _hi):
                    raise DomainError(f"x={x!r} outside the open domain ({_lo!r}, {_hi!r})")
                return -math.log(x)

            fn.batch = (_neglog_column, (), lo, hi)
            fn.integral = (_neglog_integral, ())
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
        fn.integral = (_exp_integral, ())
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

    args = (tuple(coeffs),)
    fn.cuts = (_monotone_cuts, args)
    fn.abs_pow_convex = (_poly_convex, args)
    fn.integral = (_poly_integral, args)
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
