"""Bivariate special means and numeric checkers for the six mean
inequalities that follow from the two-point certificates.

The proposition checkers evaluate each inequality exactly as printed and
report whether it holds numerically. Three of the six (1, 3, 5) are derived
from trapezoid-form bounds that silently assume f'(a) = f'(b), which their
generating functions violate; the checkers flag this in ``hypothesis_note``
and can additionally evaluate the always-valid perturbed-trapezoid variant
(``corrected=True``), which keeps the derivative-correction term.
"""

import math
from typing import NamedTuple

from .bounds import HolderPair
from .errors import ParameterError

MEAN_KINDS = ("arithmetic", "geometric", "harmonic", "logarithmic",
              "identric", "p_logarithmic")

PROP_TOL = 1e-12
_CHAIN_TOL = 1e-12

_TRAPEZOID_NOTE = (
    "trapezoid-form bound: assumes f'(a) = f'(b) because the derivative "
    "correction is dropped; the generating function f(x) = {fdesc} violates "
    "this for a < b, so the stated inequality is not guaranteed"
)
_CORRECTED_NOTE = (
    "perturbed-trapezoid form of the stated inequality: the derivative "
    "correction is kept, so it holds whenever the convexity hypothesis does"
)
_MIDPOINT_NOTE = "midpoint-form bound; no endpoint-derivative hypothesis required"


def _ln_identric(a, b):
    # (b ln b - a ln a)/(b - a) - 1; stable for large b, unlike the
    # quotient-of-powers form.
    return (b * math.log(b) - a * math.log(a)) / (b - a) - 1.0


def mean_value(kind: str, a: float, b: float, p: float | None = None) -> float:
    """One of the six special means of 0 < a <= b.

    arithmetic (a+b)/2, geometric sqrt(ab), harmonic 2ab/(a+b), logarithmic
    (b-a)/(ln b - ln a), identric exp((b ln b - a ln a)/(b-a) - 1), and the
    p-logarithmic mean [(b^(p+1)-a^(p+1))/((p+1)(b-a))]^(1/p) for finite p
    outside {-1, 0}. a = b returns the common value. Arithmetic allows
    a = 0; all others need a > 0. A non-finite a or b, and a mean that
    overflows or divides by a 0 that underflow or rounding produced, raise
    ParameterError.
    """
    if kind not in MEAN_KINDS:
        raise ParameterError(f"unknown mean kind {kind!r}; expected one of {MEAN_KINDS}")
    if not a <= b:
        raise ParameterError(f"need a <= b, got a={a!r}, b={b!r}")
    _require_finite(a, b)
    try:
        if math.isfinite(value := _mean(kind, a, b, p)):
            return value
        raise OverflowError  # a product or sum overflowed without raising
    except (OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(
            f"{kind} mean {_float_failure(exc)} at a={a!r}, b={b!r}, p={p!r}") from None


def _require_finite(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterError(f"need finite a and b, got a={a!r}, b={b!r}")


def _float_failure(exc):
    """What an arithmetic error means, for ParameterError messages: an
    overflow, or a division by a 0 that underflow or rounding produced."""
    if isinstance(exc, OverflowError):
        return "overflows the float range"
    return "divides by zero in float arithmetic"


def _mean(kind, a, b, p):
    if kind == "arithmetic":
        if a < 0.0:
            raise ParameterError("arithmetic mean needs a, b >= 0")
        return 0.5 * (a + b)
    if not a > 0.0:
        raise ParameterError(f"{kind} mean needs a, b > 0")
    if kind == "geometric":
        return math.sqrt(a * b)
    if kind == "harmonic":
        return 2.0 * a * b / (a + b)
    if kind == "logarithmic":
        if a == b:
            return a
        return (b - a) / (math.log(b) - math.log(a))
    if kind == "identric":
        if a == b:
            return a
        return math.exp(_ln_identric(a, b))
    # p_logarithmic
    if p is None or not math.isfinite(p):
        raise ParameterError(f"p_logarithmic mean needs a finite exponent p, got {p!r}")
    if p in (-1.0, 0.0):
        raise ParameterError("p_logarithmic mean is undefined at p = -1 and p = 0")
    if a == b:
        return a
    base = (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (b - a))
    return base ** (1.0 / p)


def means_chain_check(a: float, b: float) -> bool:
    """True when harmonic <= geometric <= logarithmic <= identric <=
    arithmetic holds at (a, b) within 1e-12."""
    if not 0.0 < a <= b:
        raise ParameterError(f"need 0 < a <= b, got a={a!r}, b={b!r}")
    chain = [mean_value(k, a, b)
             for k in ("harmonic", "geometric", "logarithmic", "identric", "arithmetic")]
    return all(lo <= hi + _CHAIN_TOL for lo, hi in zip(chain, chain[1:]))


class PropositionReport(NamedTuple):
    """Numeric evaluation of one mean inequality: left side, right side,
    whether lhs <= rhs + 1e-12, and the slack rhs - lhs."""

    prop_id: int
    lhs: float
    rhs: float
    holds: bool
    slack: float
    params: dict
    hypothesis_note: str


def _report(prop_id, lhs, rhs, params, note):
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise OverflowError  # a side overflowed to inf without raising
    return PropositionReport(prop_id, lhs, rhs, lhs <= rhs + PROP_TOL, rhs - lhs, params, note)


def _amean(u, v):
    return 0.5 * (u + v)


def _require_p(p):
    if p is None or not 1.0 < p < math.inf:
        raise ParameterError(f"this proposition needs a finite p > 1, got {p!r}")
    return float(p)


def _require_q(q):
    """The free exponent of propositions 5 and 6: a finite q >= 1, 1 when omitted."""
    qv = 1.0 if q is None else float(q)
    if not 1.0 <= qv < math.inf:
        raise ParameterError(f"this proposition needs a finite q >= 1, got {qv!r}")
    return qv


def check_proposition(prop_id: int, a: float, b: float,
                      p: float | None = None, q: float | None = None,
                      corrected: bool = False) -> PropositionReport:
    """Evaluate mean inequality 1..6 at (a, b).

    Exponent handling: propositions 1, 3, 4 need a finite p > 1; for 3 and 4
    the Holder exponent and q form a `HolderPair`, which derives q when it is
    not given (proposition 4 takes p as both the power of x and the Holder
    exponent, as printed). Propositions 5 and 6 take a free finite q >= 1
    (default 1); unused exponents are ignored as vestigial.

    ``corrected=True`` evaluates the perturbed-trapezoid variant of
    propositions 1, 3 and 5 (the statement with the derivative-correction
    term restored); for 2, 4 and 6 it coincides with the printed statement.
    A non-finite b, and a side that overflows the float range or divides by
    an underflowed 0, raise ParameterError.
    """
    if prop_id not in (1, 2, 3, 4, 5, 6):
        raise ParameterError(f"prop_id must be 1..6, got {prop_id!r}")
    if not 0.0 < a < b:
        raise ParameterError(
            f"need 0 < a < b (negative powers of a appear), got a={a!r}, b={b!r}")
    _require_finite(a, b)
    try:
        return _evaluate(prop_id, a, b, p, q, corrected)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(
            f"proposition {prop_id} {_float_failure(exc)} at a={a!r}, b={b!r}, "
            f"p={p!r}, q={q!r}") from None


def _evaluate(prop_id, a, b, p, q, corrected):
    if prop_id == 1:
        pv = _require_p(p)
        lpp = (b ** (pv + 1.0) - a ** (pv + 1.0)) / ((pv + 1.0) * (b - a))
        lhs = lpp - _amean(a ** pv, b ** pv)
        if corrected:
            lhs += (b - a) / 8.0 * pv * (b ** (pv - 1.0) - a ** (pv - 1.0))
        rhs = pv * (pv - 1.0) * (b - a) ** 2 / 24.0 * _amean(a ** (pv - 2.0), b ** (pv - 2.0))
        note = _CORRECTED_NOTE if corrected else _TRAPEZOID_NOTE.format(fdesc=f"x**{pv:g}")
        return _report(1, abs(lhs), rhs, {"a": a, "b": b, "p": pv}, note)

    if prop_id == 2:
        lhs = (math.log(b) - math.log(a)) / (b - a) - 2.0 / (a + b)
        rhs = (b - a) ** 2 / 12.0 * _amean(a ** -3.0, b ** -3.0)
        return _report(2, abs(lhs), rhs, {"a": a, "b": b}, _MIDPOINT_NOTE)

    if prop_id == 3:
        pv, qv = map(float, HolderPair(_require_p(p), q))
        ln_g = 0.5 * (math.log(a) + math.log(b))
        lhs = _ln_identric(a, b) - ln_g
        if corrected:
            # f = -ln x: same bracket with the correction -(b-a)^2/(8ab) restored
            lhs = ln_g - _ln_identric(a, b) + (b - a) ** 2 / (8.0 * a * b)
        rhs = ((b - a) ** 2 / (8.0 * (2.0 * pv + 1.0) ** (1.0 / pv))
               * _amean(a ** (-2.0 * qv), b ** (-2.0 * qv)) ** (1.0 / qv))
        note = _CORRECTED_NOTE if corrected else _TRAPEZOID_NOTE.format(fdesc="-ln(x)")
        return _report(3, abs(lhs), rhs, {"a": a, "b": b, "p": pv, "q": qv}, note)

    if prop_id == 4:
        pv, qv = map(float, HolderPair(_require_p(p), q))
        lpp = (b ** (pv + 1.0) - a ** (pv + 1.0)) / ((pv + 1.0) * (b - a))
        lhs = abs(lpp - _amean(a, b) ** pv)
        rhs = (pv * (pv - 1.0) * (b - a) ** 2 / (8.0 * (2.0 * pv + 1.0) ** (1.0 / pv))
               * _amean(a ** (qv * (pv - 2.0)), b ** (qv * (pv - 2.0))) ** (1.0 / qv))
        return _report(4, lhs, rhs, {"a": a, "b": b, "p": pv, "q": qv}, _MIDPOINT_NOTE)

    if prop_id == 5:
        qv = _require_q(q)
        lhs = (math.log(b) - math.log(a)) / (b - a) - (a + b) / (2.0 * a * b)
        if corrected:
            lhs += (b - a) / 8.0 * (a ** -2.0 - b ** -2.0)
        rhs = ((b - a) ** 2 / 12.0
               * _amean(a ** (-3.0 * qv), b ** (-3.0 * qv)) ** (1.0 / qv))
        note = _CORRECTED_NOTE if corrected else _TRAPEZOID_NOTE.format(fdesc="1/x")
        return _report(5, abs(lhs), rhs, {"a": a, "b": b, "q": qv}, note)

    qv = _require_q(q)
    lhs = abs(_ln_identric(a, b) - math.log(_amean(a, b)))
    rhs = ((b - a) ** 2 / 24.0
           * _amean(a ** (-2.0 * qv), b ** (-2.0 * qv)) ** (1.0 / qv))
    return _report(6, lhs, rhs, {"a": a, "b": b, "q": qv}, _MIDPOINT_NOTE)
