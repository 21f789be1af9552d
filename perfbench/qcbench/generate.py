"""Seeded input generators for the three workloads.

Inputs are plain dicts of strings and floats; the package only ever sees
what these functions produce. The same seed gives the same inputs. The mix
of operation kinds, functions and sizes is fixed by position, and the seed
draws the intervals, evaluation points and exponents, so two seeds load the
same layers in the same proportions.
"""

import random

# The convex |f''| corpus of tests/conftest.py, with its sampling ranges.
CONVEX_CORPUS = (
    ("power:2", -2.0, 3.0),
    ("power:3", -2.0, 3.0),
    ("power:4", -2.0, 3.0),
    ("exp", -1.5, 1.5),
    ("reciprocal", 0.25, 3.0),
    ("neglog", 0.25, 3.0),
)
# |f''| concave for power:2.5 (its convexity flag is false), and a degree-5
# poly whose |f''| convexity depends on the interval.
EXTRA_FUNCTIONS = (
    ("power:2.5", 0.25, 3.0),
    ("poly:3,-2,1,0,5,-1", -1.5, 1.5),
)
CERTIFY_FUNCTIONS = CONVEX_CORPUS + EXTRA_FUNCTIONS

# (family, extra parameters). holder uses p=2, power_mean q=2; ostrowski and
# cerone_dragomir estimate their norms. cerone_dragomir lp uses p=1.5: at
# p=2 the oracle's absolute tolerance cannot be met on a few reciprocal,
# power:4 and poly intervals (|f''|**2 reaches ~1e4) and the op raises
# IntegrationError.
CERTIFY_VARIANTS = (
    ("convex", {}),
    ("holder", {"p": 2.0}),
    ("power_mean", {"q": 2.0}),
    ("ostrowski", {}),
    ("cerone_dragomir", {"case": "inf"}),
    ("cerone_dragomir", {"case": "lp", "p": 1.5}),
    ("cerone_dragomir", {"case": "l1"}),
)

# Per block of the certify-mix round: every (function, variant) pair
# CERTIFY_REPS times, plus a minority of identity and proposition ops.
CERTIFY_REPS = 4
IDENTITY_REPS = 2
CERTIFY_BLOCKS = 8

# Log-spaced 1e3..1e6 in a 1-2-5 series, plus the ROADMAP gate 65536. With
# 11 sizes a round's median latency is its sixth-fastest row, near n = 50000.
COMPOSITE_SIZES = (1000, 2000, 5000, 10000, 20000, 50000, 65536,
                   100000, 200000, 500000, 1000000)
# The order of one round. The sizes up to the gate, whose timings vary most
# with outside load, run three times, spread between the large sizes; each
# op records its size's index in COMPOSITE_SIZES as its "slot".
_SMALL_SIZES = tuple(n for n in COMPOSITE_SIZES if n <= 65536)
COMPOSITE_ROUND = (_SMALL_SIZES + (100000, 200000) + _SMALL_SIZES + (500000,)
                   + _SMALL_SIZES + (1000000,))
COMPOSITE_RULES = (
    ("midpoint", "midpoint"),
    ("perturbed_trapezoid", "right"),
    ("generalized", "midpoint"),
    ("generalized", "right"),
    ("generalized", "random"),
)
COMPOSITE_ROUNDS = 10

CLI_COMPOSITE_N = (4, 16, 64, 256)


def random_interval(rng, lo, hi, min_len=0.2):
    """The interval law of tests/conftest.py::random_interval."""
    a = rng.uniform(lo, hi - min_len)
    b = rng.uniform(a + min_len, hi)
    return a, b


def _certify_op(rng, spec, lo, hi, family, extra):
    a, b = random_interval(rng, lo, hi)
    x = rng.uniform(0.5 * (a + b), b)
    return {"kind": "certify", "spec": spec, "a": a, "b": b, "x": x,
            "family": family, **extra}


def _identity_op(rng, spec, lo, hi):
    a, b = random_interval(rng, lo, hi)
    return {"kind": "identity", "spec": spec, "a": a, "b": b,
            "x": rng.uniform(0.5 * (a + b), b)}


def _prop_op(rng, prop, corrected):
    a = rng.uniform(0.5, 2.0)
    b = a + rng.uniform(0.2, 3.0)
    op = {"kind": "prop", "prop": prop, "a": a, "b": b, "corrected": corrected}
    if prop in (1, 3, 4):
        op["p"] = rng.uniform(1.5, 4.0)
    else:
        op["q"] = rng.uniform(1.0, 3.0)
    return op


def certify_mix(seed):
    """One round of the certify-mix workload: 2016 in-process ops.

    Per block: every certify (function, variant) pair 4 times (224 ops),
    identity_residual twice per function (16) and every proposition 1..6
    stated and corrected (12). The round is shuffled by the seed.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(CERTIFY_BLOCKS):
        for spec, lo, hi in CERTIFY_FUNCTIONS:
            for family, extra in CERTIFY_VARIANTS:
                for _ in range(CERTIFY_REPS):
                    ops.append(_certify_op(rng, spec, lo, hi, family, extra))
            for _ in range(IDENTITY_REPS):
                ops.append(_identity_op(rng, spec, lo, hi))
        for prop in range(1, 7):
            for corrected in (False, True):
                ops.append(_prop_op(rng, prop, corrected))
    rng.shuffle(ops)
    return ops


def composite_large(seed):
    """COMPOSITE_ROUNDS rounds of one op per size in COMPOSITE_ROUND.

    Every round has the same sizes, rules and functions, so rounds cost the
    same: size k of COMPOSITE_SIZES gets rule (k + 4) mod 5, which puts
    composite_midpoint at 65536, and function k mod 6. The seed draws each
    op's interval and its random intermediate-point seed.
    """
    rng = random.Random(seed)
    ops = []
    for r in range(COMPOSITE_ROUNDS):
        for n in COMPOSITE_ROUND:
            k = COMPOSITE_SIZES.index(n)
            rule, xi_policy = COMPOSITE_RULES[(k + 4) % len(COMPOSITE_RULES)]
            spec, lo, hi = CONVEX_CORPUS[k % len(CONVEX_CORPUS)]
            a, b = random_interval(rng, lo, hi)
            ops.append({"kind": "composite", "slot": k, "spec": spec, "a": a, "b": b,
                        "n": n, "rule": rule, "xi_policy": xi_policy,
                        "xi_seed": rng.randrange(2 ** 31)})
    return ops


def cold_cli(seed):
    """One round of cold-cli requests: 14 processes.

    One certify per variant, one identity-check and two props drawn as in
    certify-mix, plus two sweeps and two small-n composite tables.
    """
    rng = random.Random(seed)
    ops = []
    for i, (family, extra) in enumerate(CERTIFY_VARIANTS):
        spec, lo, hi = CERTIFY_FUNCTIONS[rng.randrange(len(CERTIFY_FUNCTIONS))]
        ops.append(_certify_op(rng, spec, lo, hi, family, extra))
    spec, lo, hi = CERTIFY_FUNCTIONS[rng.randrange(len(CERTIFY_FUNCTIONS))]
    ops.append(_identity_op(rng, spec, lo, hi))
    for prop in rng.sample(range(1, 7), 2):
        ops.append(_prop_op(rng, prop, True))
    for _ in range(2):
        a_values = sorted(rng.uniform(0.5, 2.0) for _ in range(2))
        b_values = sorted(a_values[-1] + rng.uniform(0.2, 3.0) for _ in range(2))
        ops.append({"kind": "sweep", "props": [1, 2, 3, 4, 5, 6],
                    "a_values": a_values, "b_values": b_values,
                    "p_values": sorted(rng.uniform(1.5, 4.0) for _ in range(2))})
    for _ in range(2):
        spec, lo, hi = CONVEX_CORPUS[rng.randrange(len(CONVEX_CORPUS))]
        a, b = random_interval(rng, lo, hi)
        rule, xi_policy = COMPOSITE_RULES[rng.randrange(len(COMPOSITE_RULES))]
        ops.append({"kind": "composite_table", "spec": spec, "a": a, "b": b,
                    "n_values": list(CLI_COMPOSITE_N), "rule": rule,
                    "xi_policy": xi_policy, "xi_seed": rng.randrange(2 ** 31)})
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "certify-mix": certify_mix,
    "composite-large": composite_large,
    "cold-cli": cold_cli,
}


def _num(v):
    return repr(float(v))


def _nums(values):
    return ",".join(_num(v) for v in values)


def cli_argv(op):
    """The `quadcert` argv for one op. Every value is written as --flag=value,
    so negative numbers and lists never read as options."""
    kind = op["kind"]
    if kind == "certify":
        argv = ["certify", "--function=" + op["spec"], "--a=" + _num(op["a"]),
                "--b=" + _num(op["b"]), "--x=" + _num(op["x"]), "--family=" + op["family"]]
        for key in ("p", "q", "case"):
            if key in op:
                argv.append(f"--{key}=" + (op[key] if key == "case" else _num(op[key])))
    elif kind == "identity":
        argv = ["identity-check", "--function=" + op["spec"], "--a=" + _num(op["a"]),
                "--b=" + _num(op["b"]), "--x=" + _num(op["x"])]
    elif kind == "prop":
        argv = ["props", f"--prop={op['prop']}", "--a=" + _num(op["a"]),
                "--b=" + _num(op["b"]), "--corrected"]
        for key in ("p", "q"):
            if key in op:
                argv.append(f"--{key}=" + _num(op[key]))
    elif kind == "sweep":
        argv = ["sweep", "--props=" + ",".join(str(p) for p in op["props"]),
                "--a=" + _nums(op["a_values"]), "--b=" + _nums(op["b_values"]),
                "--p=" + _nums(op["p_values"])]
    elif kind == "composite_table":
        argv = ["composite", "--function=" + op["spec"], "--a=" + _num(op["a"]),
                "--b=" + _num(op["b"]), "--rule=" + op["rule"],
                "--n=" + ",".join(str(n) for n in op["n_values"]),
                "--xi-policy=" + op["xi_policy"], f"--seed={op['xi_seed']}"]
    else:
        raise ValueError(f"no CLI form for op kind {kind!r}")
    return argv + ["--format=json"]
