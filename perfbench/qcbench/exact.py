"""Exact, oracle-independent references and the output checker.

References come from closed-form antiderivatives and derivatives of each
registry function, evaluated in mpmath at 50 significant digits. They never
call quadcert. Two verdicts are kept apart:

* a *violation* is a certificate whose hypothesis flags are all true but
  whose bound is below the exact error, compared at zero slack. Rounding
  alone produces them on the sharp witnesses (constant f''), which is a
  known defect of the package; they are counted, not failed.
* a *wrong* output is off by more than rounding can explain: a rule value,
  oracle value or proposition side away from its exact value, or a bound
  exceeded by more than ``BOUND_ALLOWANCE`` relative. It fails the op.
"""

import mpmath

# A private context, so the global mpmath precision is left alone.
mp = mpmath.MPContext()
mp.dps = 50
mpf = mp.mpf

RULE_TOL = 1e-12        # relative to the sum of the magnitudes of the rule's terms
ORACLE_TOL = 1e-10      # relative to max(1, |integral|)
PROP_TOL = 1e-10        # relative to the sum of the magnitudes of the terms
PACKAGE_PROP_TOL = 1e-12  # quadcert.means.PROP_TOL: holds means lhs <= rhs + 1e-12
BOUND_ALLOWANCE = 1e-12  # relative to max(1, |exact|)
IDENTITY_MAX_RESIDUAL = 1e-9


class ExactFunction:
    """f, f' and an antiderivative F of one registry spec, in mpmath."""

    def __init__(self, spec):
        name, _, tail = spec.partition(":")
        params = [mpf(t) for t in tail.split(",")] if tail else []
        self.spec = spec
        if name == "power":
            p = params[0]
            self.f = lambda x: x ** p
            self.f1 = lambda x: p * x ** (p - 1)
            self.F = lambda x: x ** (p + 1) / (p + 1)
        elif name == "reciprocal":
            self.f = lambda x: 1 / x
            self.f1 = lambda x: -1 / x ** 2
            self.F = mp.log
        elif name == "neglog":
            self.f = lambda x: -mp.log(x)
            self.f1 = lambda x: -1 / x
            self.F = lambda x: x - x * mp.log(x)
        elif name == "exp":
            self.f = self.f1 = self.F = mp.exp
        elif name == "poly":
            deg = len(params) - 1
            self.f = lambda x: sum(c * x ** (deg - i) for i, c in enumerate(params))
            self.f1 = lambda x: sum(c * (deg - i) * x ** (deg - i - 1)
                                    for i, c in enumerate(params[:-1]))
            self.F = lambda x: sum(c * x ** (deg - i + 1) / (deg - i + 1)
                                   for i, c in enumerate(params))
        else:
            raise ValueError(f"no exact form for {spec!r}")

    def integral(self, a, b):
        return self.F(mpf(b)) - self.F(mpf(a))


_FUNCTIONS = {}


def exact_function(spec):
    if spec not in _FUNCTIONS:
        _FUNCTIONS[spec] = ExactFunction(spec)
    return _FUNCTIONS[spec]


class Verdict:
    """Outcome of checking one op: certificates seen, certificates with a
    false flag, zero-slack violations, and the reasons the output is wrong."""

    __slots__ = ("certificates", "advisory", "violations", "wrong")

    def __init__(self):
        self.certificates = 0
        self.advisory = 0
        self.violations = 0
        self.wrong = []

    def certificate(self, err, bound, exact_scale, all_flags_true):
        """Record one certificate: exact error ``err`` (mpf) against ``bound``."""
        self.certificates += 1
        if not all_flags_true:
            self.advisory += 1
            return
        if err > mpf(bound):
            self.violations += 1
        if err > mpf(bound) + BOUND_ALLOWANCE * max(1, abs(exact_scale)):
            self.wrong.append(f"bound {bound!r} below exact error {mp.nstr(err, 17)}")

    def near(self, what, value, exact, scale, tol):
        if not abs(mpf(value) - exact) <= tol * (1 + scale):
            self.wrong.append(f"{what} {value!r} != exact {mp.nstr(exact, 17)}")


# ---------------------------------------------------------------- references

def certify_reference(op):
    """Exact integral and exact rule value (average form) of a certify op."""
    fx = exact_function(op["spec"])
    a, b, x = mpf(op["a"]), mpf(op["b"]), mpf(op["x"])
    length = b - a
    total = fx.integral(a, b)
    if op["family"] == "ostrowski":
        rule = fx.f(x)
        scale = abs(rule)
    elif op["family"] == "cerone_dragomir":
        ends = fx.f(a) + fx.f(b)
        corr = length / 8 * (fx.f1(b) - fx.f1(a))
        rule = ends / 2 - corr
        scale = (abs(fx.f(a)) + abs(fx.f(b))) / 2 + length / 8 * (abs(fx.f1(a)) + abs(fx.f1(b)))
    else:
        m = a + b - x
        w = (x - (a + 3 * b) / 4) / 2
        rule = (fx.f(x) + fx.f(m)) / 2 - w * (fx.f1(x) - fx.f1(m))
        scale = (abs(fx.f(x)) + abs(fx.f(m))) / 2 + abs(w) * (abs(fx.f1(x)) + abs(fx.f1(m)))
    return {"total": total, "avg": total / length, "length": length,
            "rule_avg": rule, "rule_scale": scale}


def integral_reference(op):
    return {"total": exact_function(op["spec"]).integral(op["a"], op["b"])}


def _amean(u, v):
    return (u + v) / 2


def _ln_identric(a, b):
    return (b * mp.log(b) - a * mp.log(a)) / (b - a) - 1


def prop_reference(prop, a, b, p=None, q=None, corrected=False):
    """Exact (lhs, rhs, scale) of proposition 1..6 as quadcert.means states
    it; scale is the sum of the magnitudes of the terms lhs cancels."""
    a, b = mpf(a), mpf(b)
    if prop in (1, 4):
        p = mpf(p)
        lpp = (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))
    if prop == 1:
        terms = [lpp, -_amean(a ** p, b ** p)]
        if corrected:
            terms.append((b - a) / 8 * p * (b ** (p - 1) - a ** (p - 1)))
        rhs = p * (p - 1) * (b - a) ** 2 / 24 * _amean(a ** (p - 2), b ** (p - 2))
    elif prop == 2:
        terms = [(mp.log(b) - mp.log(a)) / (b - a), -2 / (a + b)]
        rhs = (b - a) ** 2 / 12 * _amean(a ** -3, b ** -3)
    elif prop == 3:
        p = mpf(p)
        q = p / (p - 1) if q is None else mpf(q)
        ln_g = (mp.log(a) + mp.log(b)) / 2
        if corrected:
            terms = [ln_g, -_ln_identric(a, b), (b - a) ** 2 / (8 * a * b)]
        else:
            terms = [_ln_identric(a, b), -ln_g]
        rhs = ((b - a) ** 2 / (8 * (2 * p + 1) ** (1 / p))
               * _amean(a ** (-2 * q), b ** (-2 * q)) ** (1 / q))
    elif prop == 4:
        q = p / (p - 1) if q is None else mpf(q)
        terms = [lpp, -_amean(a, b) ** p]
        rhs = (p * (p - 1) * (b - a) ** 2 / (8 * (2 * p + 1) ** (1 / p))
               * _amean(a ** (q * (p - 2)), b ** (q * (p - 2))) ** (1 / q))
    elif prop == 5:
        q = mpf(1) if q is None else mpf(q)
        terms = [(mp.log(b) - mp.log(a)) / (b - a), -(a + b) / (2 * a * b)]
        if corrected:
            terms.append((b - a) / 8 * (a ** -2 - b ** -2))
        rhs = (b - a) ** 2 / 12 * _amean(a ** (-3 * q), b ** (-3 * q)) ** (1 / q)
    else:
        q = mpf(1) if q is None else mpf(q)
        terms = [_ln_identric(a, b), -mp.log(_amean(a, b))]
        rhs = (b - a) ** 2 / 24 * _amean(a ** (-2 * q), b ** (-2 * q)) ** (1 / q)
    return abs(sum(terms)), rhs, sum(abs(t) for t in terms)


def reference(op):
    """Exact reference for any op the generators produce (None for sweeps,
    whose rows are checked one by one)."""
    kind = op["kind"]
    if kind == "certify":
        return certify_reference(op)
    if kind in ("composite", "composite_table"):
        return integral_reference(op)
    if kind == "prop":
        return {"stated": prop_reference(op["prop"], op["a"], op["b"], op.get("p"),
                                         op.get("q")),
                "corrected": prop_reference(op["prop"], op["a"], op["b"], op.get("p"),
                                            op.get("q"), corrected=True)}
    return None


# ------------------------------------------------------------------ checks

def check_oracle(verdict, value, total):
    verdict.near("oracle value", value, total, abs(total), ORACLE_TOL)


def check_certificate(verdict, ref, value, bound, all_flags_true, form):
    """Check one certificate in ``form`` "avg" or "total" against ``ref``."""
    if form == "avg":
        exact, rule, scale = ref["avg"], ref["rule_avg"], ref["rule_scale"]
    else:
        exact = ref["total"]
        rule, scale = ref["rule_avg"] * ref["length"], ref["rule_scale"] * ref["length"]
    verdict.near("rule value", value, rule, scale, RULE_TOL)
    verdict.certificate(abs(exact - mpf(value)), bound, exact, all_flags_true)


def check_composite(verdict, ref, approx, remainder_bound):
    exact = ref["total"]
    verdict.certificate(abs(exact - mpf(approx)), remainder_bound, exact, True)


def check_prop(verdict, exact, lhs, rhs, holds):
    """Check one proposition report against its exact (lhs, rhs, scale)."""
    ex_lhs, ex_rhs, scale = exact
    verdict.near("proposition lhs", lhs, ex_lhs, scale, PROP_TOL)
    verdict.near("proposition rhs", rhs, ex_rhs, abs(ex_rhs), PROP_TOL)
    margin = ex_rhs + PACKAGE_PROP_TOL - ex_lhs
    if abs(margin) > PROP_TOL * (1 + scale) and holds != (margin >= 0):
        verdict.wrong.append(f"proposition holds={holds} but exact margin is "
                             f"{mp.nstr(margin, 6)}")


def check_identity(verdict, residual):
    if not abs(residual) <= IDENTITY_MAX_RESIDUAL:
        verdict.wrong.append(f"identity residual {residual!r} above {IDENTITY_MAX_RESIDUAL}")
