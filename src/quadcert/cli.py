"""Command-line front end.

Subcommands: certify (one certificate with its oracle-checked actual
error), identity-check (residual of the underlying integral identity),
composite (convergence table with per-row remainder bounds), means (special
means and the chain check), props (one mean-inequality report), and sweep
(cartesian proposition grid that aggregates violations instead of aborting).

Exit codes: 0 when every requested inequality holds, 1 when a requested
check finds a violation (details still printed), 2 on input/domain errors,
including inputs whose arithmetic overflows.

Formats: "table" (human), "csv" (fixed per-subcommand columns, decimal
point, 17 significant digits), "json" (stable layout; reruns with the same
arguments and seed reproduce the bytes).
"""

import argparse
import json
import math
import sys

from . import bounds, composite, kernel, means, oracle
from .bounds import HolderPair
from .composite import Partition, XI_POLICIES
from .errors import DomainError, IntegrationError, ParameterError
from .functions import Interval, parse_function_spec, require_domain
from .kernel import KernelSpec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

_HOLDS_ABS = 1e-12
_HOLDS_REL = 1e-9

FAMILIES = ("convex", "holder", "power_mean", "ostrowski", "cerone_dragomir")
COMPOSITE_RULES = ("generalized", "midpoint", "perturbed_trapezoid")

CSV_COLUMNS = {
    "certify": ("function", "a", "b", "x", "family", "p", "q", "case",
                "rule_value_total", "bound_total", "actual_error_total", "holds"),
    "identity-check": ("function", "a", "b", "x", "residual", "max_residual", "holds"),
    "composite": ("n", "h", "approx", "actual_error", "remainder_bound", "ratio"),
    "means": ("kind", "p", "value"),
    "props": ("prop_id", "a", "b", "p", "q", "lhs", "rhs", "holds", "slack"),
    "sweep": ("prop_id", "a", "b", "p", "q", "lhs", "rhs", "holds", "slack"),
}


def _holds(actual, bound):
    return actual <= bound * (1.0 + _HOLDS_REL) + _HOLDS_ABS


def _fmt(value):
    """Locale-independent cell formatting; floats at 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _emit_csv(rows, columns):
    import csv  # only csv output needs it; json and table start faster without

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])


def _emit_table(rows, columns):
    cells = [[_fmt(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
              for i, col in enumerate(columns)]
    print("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
    for r in cells:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def _emit_rows(rows, columns, fmt, json_payload):
    if fmt == "csv":
        _emit_csv(rows, columns)
    elif fmt == "json":
        print(json.dumps(json_payload, indent=2))
    else:
        _emit_table(rows, columns)


# argparse prints the message of an ArgumentTypeError; of any other error
# from a type= hook it prints the hook's name.
def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _need(args, name):
    value = getattr(args, name)
    if value is None:
        raise ParameterError(f"--{name.replace('_', '-')} is required for this command")
    return value


def _nonempty(values, option):
    """The values of a required list option; an empty list is bad input."""
    if not values:
        raise ParameterError(f"{option} needs at least one value")
    return values


# ---------------------------------------------------------------- certify

def _build_certificate(args, ft, iv):
    family = args.family
    if family == "convex":
        return bounds.bound_convex(ft, iv, _need(args, "x"))
    if family == "holder":
        hp = HolderPair(_need(args, "p"), args.q)
        return bounds.bound_holder(ft, iv, _need(args, "x"), hp)
    if family == "power_mean":
        return bounds.bound_power_mean(ft, iv, _need(args, "x"), _need(args, "q"))
    if family == "ostrowski":
        return bounds.bound_ostrowski(ft, iv, _need(args, "x"))
    return bounds.bound_cerone_dragomir(ft, iv, _need(args, "case"), p=args.p, q=args.q)


def _cmd_certify(args):
    ft = parse_function_spec(args.function)
    iv = Interval(args.a, args.b)
    cert = _build_certificate(args, ft, iv)
    actual = abs(oracle.integrate(ft.f, iv.a, iv.b, args.tol).value - cert.rule.value_total)
    ok = _holds(actual, cert.bound_total)
    payload = {
        "function": ft.id,
        "a": iv.a,
        "b": iv.b,
        "x": cert.rule.x,
        "family": cert.family,
        "params": cert.params,
        "rule_value_total": cert.rule.value_total,
        "bound_total": cert.bound_total,
        "actual_error_total": actual,
        "holds": ok,
        "hypothesis_flags": [{"name": n, "satisfied": s} for n, s in cert.hypothesis_flags],
    }
    row = dict(payload)
    row["p"] = cert.params.get("p")
    row["q"] = cert.params.get("q")
    row["case"] = cert.params.get("case")
    _emit_rows([row], CSV_COLUMNS["certify"], args.format, json_payload=payload)
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------- identity-check

def _cmd_identity_check(args):
    if not args.max_residual >= 0.0:
        raise ParameterError(f"--max-residual={args.max_residual!r} must be a number >= 0")
    ft = parse_function_spec(args.function)
    iv = Interval(args.a, args.b)
    residual = kernel.identity_residual(ft, KernelSpec(iv, _need(args, "x")), tol=args.tol)
    ok = abs(residual) <= args.max_residual
    row = {"function": ft.id, "a": iv.a, "b": iv.b, "x": args.x,
           "residual": residual, "max_residual": args.max_residual, "holds": ok}
    _emit_rows([row], CSV_COLUMNS["identity-check"], args.format, json_payload=row)
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------- composite

def _cmd_composite(args):
    ns = _nonempty(args.n, "--n")
    ft = parse_function_spec(args.function)
    iv = Interval(args.a, args.b)
    require_domain(ft, iv)  # before the reference, which would fail at the domain's end
    reference = oracle.integrate(ft.f, iv.a, iv.b, args.tol).value
    # the named rules fix the intermediate points
    policy = {"midpoint": "midpoint", "perturbed_trapezoid": "right"}.get(args.rule, args.xi_policy)
    rows = []
    all_ok = True
    for n in ns:
        res = composite.composite_generalized(
            ft, Partition.uniform(iv.a, iv.b, n, xi_policy=policy, seed=args.seed))
        actual = abs(reference - res.approx)
        ok = _holds(actual, res.remainder_bound)
        all_ok = all_ok and ok
        ratio = actual / res.remainder_bound if res.remainder_bound > 0.0 else math.nan
        rows.append({"n": n, "h": iv.length / n, "approx": res.approx,
                     "actual_error": actual, "remainder_bound": res.remainder_bound,
                     "ratio": ratio})
    # JSON has no NaN or infinity: there such a ratio is null
    json_rows = [row if math.isfinite(row["ratio"]) else dict(row, ratio=None) for row in rows]
    payload = {"function": ft.id, "a": iv.a, "b": iv.b, "rule": args.rule,
               "xi_policy": policy, "seed": args.seed, "rows": json_rows}
    _emit_rows(rows, CSV_COLUMNS["composite"], args.format, json_payload=payload)
    return EXIT_OK if all_ok else EXIT_VIOLATION


# -------------------------------------------------------------------- means

def _cmd_means(args):
    a, b = args.a, args.b
    rows = []
    for kind in ("harmonic", "geometric", "logarithmic", "identric", "arithmetic"):
        rows.append({"kind": kind, "p": None, "value": means.mean_value(kind, a, b)})
    for p in args.p_values:
        rows.append({"kind": "p_logarithmic", "p": p,
                     "value": means.mean_value("p_logarithmic", a, b, p=p)})
    chain_ok = means.means_chain_check(a, b)
    payload = {"a": a, "b": b, "means": rows, "chain_holds": chain_ok}
    _emit_rows(rows, CSV_COLUMNS["means"], args.format, json_payload=payload)
    if args.format == "table":
        print(f"chain harmonic <= geometric <= logarithmic <= identric <= arithmetic: "
              f"{_fmt(chain_ok)}")
    return EXIT_OK if chain_ok else EXIT_VIOLATION


# -------------------------------------------------------------------- props

def _prop_row(report, variant=None):
    row = {"prop_id": report.prop_id,
           "a": report.params["a"], "b": report.params["b"],
           "p": report.params.get("p"), "q": report.params.get("q"),
           "lhs": report.lhs, "rhs": report.rhs,
           "holds": report.holds, "slack": report.slack}
    if variant is not None:
        row["variant"] = variant
    return row


def _cmd_props(args):
    stated = means.check_proposition(args.prop, args.a, args.b, p=args.p, q=args.q)
    columns = list(CSV_COLUMNS["props"])
    if args.corrected:
        columns.append("variant")
        rows = [_prop_row(stated, "stated"),
                _prop_row(means.check_proposition(args.prop, args.a, args.b,
                                                  p=args.p, q=args.q, corrected=True),
                          "corrected")]
    else:
        rows = [_prop_row(stated)]
    payload = {"rows": rows, "notes": {"stated": stated.hypothesis_note}}
    _emit_rows(rows, columns, args.format, json_payload=payload)
    if args.format == "table":
        print(f"note: {stated.hypothesis_note}")
    return EXIT_OK if stated.holds else EXIT_VIOLATION


# -------------------------------------------------------------------- sweep

def _cmd_sweep(args):
    for values, option in ((args.props, "--props"), (args.a_values, "--a"), (args.b_values, "--b")):
        _nonempty(values, option)
    columns = list(CSV_COLUMNS["sweep"])
    if args.corrected:
        columns.append("variant")
    rows = []
    seen = set()
    violations = 0
    skipped = 0
    last_error = None
    for prop in args.props:
        for a in args.a_values:
            for b in args.b_values:
                if not a < b:
                    continue
                for p in args.p_values or [None]:
                    for q in args.q_values or [None]:
                        try:
                            report = means.check_proposition(prop, a, b, p=p, q=q)
                            corrected = means.check_proposition(
                                prop, a, b, p=p, q=q, corrected=True) if args.corrected else None
                        except ParameterError as exc:
                            # e.g. a non-conjugate (p, q) cell hitting a
                            # Holder-based proposition in a mixed grid
                            skipped += 1
                            last_error = exc
                            continue
                        key = (prop, a, b, report.params.get("p"), report.params.get("q"))
                        if key in seen:
                            continue
                        seen.add(key)
                        rows.append(_prop_row(report, "stated" if args.corrected else None))
                        if not report.holds:
                            violations += 1
                        if corrected is not None:
                            rows.append(_prop_row(corrected, "corrected"))
    if not seen:
        # with no ParameterError, every (a, b) pair was skipped for a >= b
        cause = last_error if last_error is not None else "no --a value is below a --b value"
        raise ParameterError(f"no valid grid cells: {cause}")
    summary = {"total": len(seen), "holds": len(seen) - violations,
               "violations": violations, "skipped_invalid": skipped}
    payload = {"rows": rows, "summary": summary}
    _emit_rows(rows, columns, args.format, json_payload=payload)
    note = (f"checked {summary['total']}, holds {summary['holds']}, "
            f"violations {summary['violations']}, skipped invalid {skipped}")
    if args.format == "table":
        print(note)
    elif args.format == "csv":
        print(note, file=sys.stderr)
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


# ------------------------------------------------------------------- parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadcert",
        description="Two-point quadrature rules with a-priori error certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("table", "csv", "json"), default="table")

    def add_oracle_options(sp):
        add_format(sp)
        sp.add_argument("--tol", type=float, default=oracle.DEFAULT_TOL,
                        help="oracle integration tolerance (default 1e-12)")

    sp = sub.add_parser("certify", help="compute one error certificate")
    sp.add_argument("--function", required=True, help='e.g. "power:2", "exp", "poly:1,0,-3"')
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--x", type=float, help="evaluation point in [(a+b)/2, b]")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    sp.add_argument("--p", type=float, help="Holder exponent (holder, cerone_dragomir lp)")
    sp.add_argument("--q", type=float, help="conjugate/power-mean exponent")
    sp.add_argument("--case", choices=bounds.CD_CASES, help="cerone_dragomir norm case")
    add_oracle_options(sp)
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("identity-check", help="residual of the integral identity")
    sp.add_argument("--function", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--max-residual", dest="max_residual", type=float, default=1e-9)
    add_oracle_options(sp)
    sp.set_defaults(handler=_cmd_identity_check)

    sp = sub.add_parser("composite", help="composite-rule convergence table")
    sp.add_argument("--function", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--rule", choices=COMPOSITE_RULES, default="midpoint")
    sp.add_argument("--n", type=_int_list, required=True, help='subinterval counts, e.g. "2,4,8"')
    sp.add_argument("--xi-policy", dest="xi_policy", choices=XI_POLICIES, default="midpoint",
                    help="intermediate-point policy for --rule generalized")
    sp.add_argument("--seed", type=int, default=0)
    add_oracle_options(sp)
    sp.set_defaults(handler=_cmd_composite)

    sp = sub.add_parser("means", help="special means table and chain check")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--p-values", dest="p_values", type=_float_list, default=[2.0],
                    help="p-logarithmic exponents, e.g. --p-values=-2,0.5,2")
    add_format(sp)
    sp.set_defaults(handler=_cmd_means)

    sp = sub.add_parser("props", help="check one mean inequality")
    sp.add_argument("--prop", type=int, required=True, choices=range(1, 7))
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--p", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--corrected", action="store_true",
                    help="also evaluate the perturbed-trapezoid variant")
    add_format(sp)
    sp.set_defaults(handler=_cmd_props)

    sp = sub.add_parser("sweep", help="cartesian proposition grid; aggregates violations")
    sp.add_argument("--props", type=_int_list, required=True, help='e.g. "1,2,5"')
    sp.add_argument("--a", dest="a_values", type=_float_list, required=True)
    sp.add_argument("--b", dest="b_values", type=_float_list, required=True)
    sp.add_argument("--p", dest="p_values", type=_float_list, default=[])
    sp.add_argument("--q", dest="q_values", type=_float_list, default=[])
    sp.add_argument("--corrected", action="store_true")
    add_format(sp)
    sp.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ParameterError, DomainError, IntegrationError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
