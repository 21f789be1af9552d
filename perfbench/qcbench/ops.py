"""In-process operations, called only through quadcert's public names.

Each runner takes one generated op and returns what the package produced;
`check` compares that with the exact reference. Names are looked up on the
``quadcert`` package at call time, so a tracer that rebinds them is seen.
"""

import quadcert as qc


def run_certify(op):
    """What ``quadcert certify`` computes, minus argv parsing and output."""
    ft = qc.parse_function_spec(op["spec"])
    iv = qc.Interval(op["a"], op["b"])
    family, x = op["family"], op["x"]
    if family == "convex":
        cert = qc.bound_convex(ft, iv, x)
    elif family == "holder":
        cert = qc.bound_holder(ft, iv, x, qc.HolderPair.conjugate(op["p"]))
    elif family == "power_mean":
        cert = qc.bound_power_mean(ft, iv, x, op["q"])
    elif family == "ostrowski":
        cert = qc.bound_ostrowski(ft, iv, x)
    else:
        cert = qc.bound_cerone_dragomir(ft, iv, op["case"], p=op.get("p"))
    return cert, qc.integrate(ft.f, iv.a, iv.b)


def run_identity(op):
    ft = qc.parse_function_spec(op["spec"])
    return qc.identity_residual(ft, qc.KernelSpec(qc.Interval(op["a"], op["b"]), op["x"]))


def run_prop(op):
    return qc.check_proposition(op["prop"], op["a"], op["b"], p=op.get("p"), q=op.get("q"),
                                corrected=op["corrected"])


def run_composite(op):
    """One convergence-table row, as ``quadcert composite`` builds it, plus
    the oracle reference for its (function, interval)."""
    ft = qc.parse_function_spec(op["spec"])
    a, b, n = op["a"], op["b"], op["n"]
    if op["rule"] == "midpoint":
        res = qc.composite_midpoint(ft, qc.Partition.uniform(a, b, n).nodes)
    elif op["rule"] == "perturbed_trapezoid":
        res = qc.composite_perturbed_trapezoid(ft, qc.Partition.uniform(a, b, n).nodes)
    else:
        part = qc.Partition.uniform(a, b, n, xi_policy=op["xi_policy"], seed=op["xi_seed"])
        res = qc.composite_generalized(ft, part)
    # Keep only the sums: the per-interval tuple would outlive the op.
    return res.approx, res.remainder_bound, qc.integrate(ft.f, a, b)


RUNNERS = {"certify": run_certify, "identity": run_identity, "prop": run_prop,
           "composite": run_composite}


def run(op):
    return RUNNERS[op["kind"]](op)


def check(op, ref, out):
    """Verdict on one in-process op's output."""
    from . import exact

    verdict = exact.Verdict()
    kind = op["kind"]
    if kind == "certify":
        cert, est = out
        exact.check_oracle(verdict, est.value, ref["total"])
        flags_ok = all(ok for _, ok in cert.hypothesis_flags)
        exact.check_certificate(verdict, ref, cert.rule.value_avg, cert.bound_avg,
                                flags_ok, "avg")
    elif kind == "identity":
        exact.check_identity(verdict, out)
    elif kind == "prop":
        which = "corrected" if op["corrected"] else "stated"
        exact.check_prop(verdict, ref[which], out.lhs, out.rhs, out.holds)
    else:
        approx, bound, est = out
        exact.check_oracle(verdict, est.value, ref["total"])
        exact.check_composite(verdict, ref, approx, bound)
    return verdict
