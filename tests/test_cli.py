"""CLI: exit codes, output schemas, CSV headers, number formatting, and
JSON reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import quadcert
from quadcert.bounds import CD_CASES
from quadcert.cli import (COMPOSITE_RULES, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, FAMILIES,
                          _holds, main)
from quadcert.composite import XI_POLICIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_json(capsys):
    code, out, _ = run_cli(capsys, "certify", "--function", "power:2", "--a", "0",
                           "--b", "1", "--x", "1", "--family", "convex",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["function"] == "power:2"
    assert payload["family"] == "convex"
    assert payload["bound_total"] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert payload["actual_error_total"] == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert payload["holds"] is True
    # at x = b the rule is the perturbed trapezoid, which needs no f'(a) = f'(b)
    assert [f["name"] for f in payload["hypothesis_flags"]] == ["abs_f2_convex"]


def test_certify_other_families(capsys):
    for extra in (["--family", "holder", "--x", "1", "--p", "2"],
                  ["--family", "power_mean", "--x", "1", "--q", "2"],
                  ["--family", "ostrowski", "--x", "0.5"],
                  ["--family", "cerone_dragomir", "--case", "inf"],
                  ["--family", "cerone_dragomir", "--case", "lp", "--p", "2"],
                  ["--family", "cerone_dragomir", "--case", "l1"]):
        code, out, _ = run_cli(capsys, "certify", "--function", "power:2",
                               "--a", "0", "--b", "1", "--format", "json", *extra)
        assert code == EXIT_OK, (extra, out)
        assert json.loads(out)["holds"] is True


def test_identity_check(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--function", "exp",
                           "--a", "0", "--b", "1", "--x", "0.6", "--format", "json")
    assert code == EXIT_OK
    assert abs(json.loads(out)["residual"]) <= 1e-9


def test_composite_csv(capsys):
    code, out, _ = run_cli(capsys, "composite", "--function", "exp", "--a", "0",
                           "--b", "1", "--rule", "midpoint", "--n", "2,4,8,16",
                           "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "h", "approx", "actual_error", "remainder_bound", "ratio"]
    assert len(rows) == 5
    for n, h, approx, err, bound, ratio in rows[1:]:
        assert "," not in h and "." in h  # decimal-point formatting
        assert float(err) <= float(bound)
        assert 0.0 < float(ratio) <= 1.0


def test_composite_generalized_random_xi(capsys):
    code, out, _ = run_cli(capsys, "composite", "--function", "reciprocal",
                           "--a", "1", "--b", "2", "--rule", "generalized",
                           "--n", "4,8", "--xi-policy", "random", "--seed", "42",
                           "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["seed"] == 42
    assert all(r["actual_error"] <= r["remainder_bound"] for r in payload["rows"])


@pytest.mark.parametrize("rule, policy", [("midpoint", "midpoint"),
                                          ("perturbed_trapezoid", "right"),
                                          ("generalized", "random")])
def test_composite_json_records_the_policy_its_rows_ran(capsys, rule, policy):
    """The named rules fix their intermediate points, whatever --xi-policy
    says; the JSON reports the policy the rows ran."""
    argv = ["composite", "--function", "exp", "--a", "0", "--b", "1", "--n", "3",
            "--rule", rule, "--xi-policy", "random", "--seed", "5"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rule"] == rule and payload["xi_policy"] == policy
    ft = quadcert.parse_function_spec("exp")
    res = quadcert.composite_generalized(
        ft, quadcert.Partition.uniform(0.0, 1.0, 3, xi_policy=policy, seed=5))
    assert payload["rows"][0]["approx"] == res.approx


def test_means(capsys):
    code, out, _ = run_cli(capsys, "means", "--a", "1", "--b", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["chain_holds"] is True
    values = {row["kind"]: row["value"] for row in payload["means"]}
    assert values["logarithmic"] == pytest.approx(1.0 / math.log(2.0), rel=1e-14)
    assert values["p_logarithmic"] == pytest.approx(math.sqrt(7.0 / 3.0), rel=1e-14)
    # no exponents is a valid request, unlike an empty required list
    code, out, _ = run_cli(capsys, "means", "--a", "1", "--b", "2", "--p-values", ",",
                           "--format", "json")
    assert code == EXIT_OK
    assert [row["kind"] for row in json.loads(out)["means"]] == [
        "harmonic", "geometric", "logarithmic", "identric", "arithmetic"]


def test_props_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "props", "--prop", "1", "--p", "2",
                           "--a", "1", "--b", "2", "--format", "json")
    assert code == EXIT_VIOLATION
    row = json.loads(out)["rows"][0]
    assert row["lhs"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert row["rhs"] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert row["holds"] is False

    code, _, _ = run_cli(capsys, "props", "--prop", "2", "--a", "1", "--b", "2")
    assert code == EXIT_OK


def test_props_corrected_variant(capsys):
    code, out, _ = run_cli(capsys, "props", "--prop", "1", "--p", "2", "--a", "1",
                           "--b", "2", "--corrected", "--format", "csv")
    assert code == EXIT_VIOLATION  # the stated proposition still fails
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "variant"
    stated = next(r for r in rows[1:] if r[-1] == "stated")
    corrected = next(r for r in rows[1:] if r[-1] == "corrected")
    assert stated[7] == "false" and corrected[7] == "true"


def test_sweep(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--props", "2,6", "--a", "0.5,1,2",
                           "--b", "1.5,3", "--q", "1,2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["violations"] == 0
    assert payload["summary"]["total"] == len(payload["rows"])

    code, out, _ = run_cli(capsys, "sweep", "--props", "1", "--a", "1", "--b", "2",
                           "--p", "2", "--format", "json")
    assert code == EXIT_VIOLATION
    assert json.loads(out)["summary"]["violations"] == 1


def test_sweep_skips_invalid_grid_cells(capsys):
    """A mixed grid pairs every p with every q; cells that a proposition
    rejects (non-conjugate exponents for the Holder-based ones) are skipped
    and counted, not fatal."""
    code, out, _ = run_cli(capsys, "sweep", "--props", "2,4,6", "--a", "1", "--b", "2",
                           "--p", "2", "--q", "1,2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["violations"] == 0
    assert payload["summary"]["skipped_invalid"] > 0
    assert {r["prop_id"] for r in payload["rows"]} == {2, 4, 6}
    # a cell whose sides overflow the float range is invalid too
    code, out, _ = run_cli(capsys, "sweep", "--props", "1", "--a", "1", "--b", "2,1000",
                           "--p", "400", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["summary"] == {"total": 1, "holds": 1, "violations": 0,
                                          "skipped_invalid": 1}
    # and one whose side overflows to inf without raising, stated or corrected
    code, out, _ = run_cli(capsys, "sweep", "--props", "1", "--a", "5e-324,1", "--b", "1e10",
                           "--p", "1.0625", "--corrected", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["summary"] == {"total": 1, "holds": 1, "violations": 0,
                                          "skipped_invalid": 1}
    # so is a cell with an infinite end
    code, out, _ = run_cli(capsys, "sweep", "--props", "2", "--a", "1", "--b", "inf,3",
                           "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["summary"] == {"total": 1, "holds": 1, "violations": 0,
                                          "skipped_invalid": 1}
    # a grid with no valid cell at all is a usage error
    code, _, err = run_cli(capsys, "sweep", "--props", "3", "--a", "1", "--b", "2")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_sweep_skips_degenerate_pairs(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--props", "2", "--a", "1,2",
                           "--b", "1.5", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2  # header + the single valid (a, b) pair


def test_sweep_without_a_valid_pair_is_bad_input(capsys):
    """A grid whose every (a, b) pair has a >= b checks nothing: exit 2, not
    an empty table."""
    code, out, err = run_cli(capsys, "sweep", "--props", "1", "--a", "1", "--b", "0.5",
                             "--p", "2", "--format", "json")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: no valid grid cells: no --a value is below a --b value\n"


@pytest.mark.parametrize("spec", ["reciprocal", "neglog", "power:-1"])
def test_composite_checks_the_domain_before_its_reference(capsys, monkeypatch, spec):
    """[0, 1] is not inside (0, inf): composite says so, as certify does,
    before its reference integral, which could only fail at 0 (GK15 at a
    pole, after spending its time)."""
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference ran before the domain check")

    monkeypatch.setattr(quadcert.cli.oracle, "integrate", no_reference)
    code, out, err = run_cli(capsys, "composite", "--function", spec, "--a", "0", "--b", "1",
                             "--n", "3")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: interval [0.0, 1.0] not inside domain (0.0, inf) of {spec}\n"
    assert "Traceback" not in err


def test_usage_errors(capsys):
    cases = [
        ("certify", "--function", "sine", "--a", "0", "--b", "1", "--x", "1",
         "--family", "convex"),
        ("certify", "--function", "power:2", "--a", "1", "--b", "0", "--x", "1",
         "--family", "convex"),
        ("certify", "--function", "power:2", "--a", "0", "--b", "1", "--x", "0.1",
         "--family", "convex"),
        ("certify", "--function", "reciprocal", "--a", "-1", "--b", "1", "--x", "1",
         "--family", "convex"),
        ("identity-check", "--function", "exp", "--a", "0", "--b", "1", "--x", "2"),
        ("props", "--prop", "1", "--a", "1", "--b", "2"),  # p missing
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.strip().startswith("error:")


@pytest.mark.parametrize("argv, option", [
    (("certify", "--function", "exp", "--a", "0", "--b", "1", "--x", "1", "--family", "convex",
      "--tol", "nan"), "tol=nan"),
    (("composite", "--function", "exp", "--a", "0", "--b", "1", "--n", "2", "--tol", "nan"),
     "tol=nan"),
    (("identity-check", "--function", "exp", "--a", "0", "--b", "1", "--x", "0.6",
      "--tol", "nan"), "tol=nan"),
    (("identity-check", "--function", "exp", "--a", "0", "--b", "1", "--x", "0.6",
      "--max-residual", "-1"), "--max-residual=-1.0"),
    (("identity-check", "--function", "exp", "--a", "0", "--b", "1", "--x", "0.6",
      "--max-residual", "nan"), "--max-residual=nan"),
])
def test_bad_oracle_settings_name_the_option(capsys, argv, option):
    """A NaN tolerance was refined until the depth cap, and a negative or
    NaN residual bound reported a violation; both are bad input."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {option} must be")


TOL_CASES = {
    "certify": ("--function", "exp", "--a", "0", "--b", "1", "--x", "1", "--family", "convex"),
    "identity-check": ("--function", "exp", "--a", "0", "--b", "1", "--x", "0.6"),
    "composite": ("--function", "exp", "--a", "0", "--b", "1", "--n", "2"),
    "means": ("--a", "1", "--b", "2"),
    "props": ("--prop", "2", "--a", "1", "--b", "2"),
    "sweep": ("--props", "2", "--a", "1", "--b", "2"),
}


@pytest.mark.parametrize("command", TOL_CASES)
def test_tol_only_where_the_oracle_runs(capsys, command):
    """certify, identity-check and composite take --tol; means, props and
    sweep run no quadrature, so argparse rejects it there."""
    argv = [command, *TOL_CASES[command]]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    if command in ("certify", "identity-check", "composite"):
        assert run_cli(capsys, *argv, "--tol", "1e-10")[0] == EXIT_OK
        return
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "-3"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: quadcert ") and "unrecognized arguments: --tol -3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option,family", [
    ("--f1-sup", ("--family", "ostrowski", "--x", "0.75")),
    ("--norm", ("--family", "cerone_dragomir", "--case", "l1")),
])
def test_certify_takes_no_norm(capsys, option, family):
    """certify computes every norm it uses, so argparse rejects a supplied
    one."""
    argv = ["certify", "--function", "exp", "--a", "0", "--b", "1", *family]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, "1"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: quadcert ") and f"unrecognized arguments: {option} 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("means", "--a", "1", "--b", "1e10", "--p-values=400"),
    ("props", "--prop", "1", "--a", "1", "--b", "1000", "--p", "400"),
    ("certify", "--function", "power:400", "--a", "1", "--b", "10", "--x", "8",
     "--family", "convex"),
    ("certify", "--function", "poly:1", "--a", "0", "--b", "1e200", "--x", "1e200",
     "--family", "convex"),
    ("composite", "--function", "poly:1", "--a", "0", "--b", "1e200", "--n", "1"),
    *(("certify", "--function", "poly:1,0", "--a", "0", "--b", "1e200",
       "--family", "cerone_dragomir", *case) for case in
      (("--case", "inf"), ("--case", "l1"), ("--case", "lp", "--p", "2"))),
    # the oracle tolerance is loose enough to reach the rule, whose last bound is inf
    ("composite", "--function", "power:400", "--a", "1", "--b", "5.8", "--n", "4",
     "--tol", "1e295"),
])
def test_overflow_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert "out of range" not in err and "math range error" not in err


@pytest.mark.parametrize("argv, exact", [
    (("certify", "--function", "reciprocal", "--a", "1e-15", "--b", "1e15", "--x", "1e15",
      "--family", "convex"), lambda: 30 * mpmath.log(10)),
    (("certify", "--function", "power:-3", "--a", "1e-3", "--b", "1e3", "--x", "1e3",
      "--family", "convex"), lambda: (mpmath.mpf(1e-3) ** -2 - mpmath.mpf(1e3) ** -2) / 2),
    (("composite", "--function", "exp", "--a", "0", "--b", "700", "--n", "16"),
     lambda: mpmath.exp(700) - 1),
])
def test_registry_integrals_need_no_gk15_tolerance(capsys, argv, exact):
    """Valid inputs that exited 2 because GK15 could not meet tol=1e-12 on
    f: the closed form of the registry integral has no tolerance to meet.
    The actual error is the 50-digit one. exp on [0, 700] is pinned at
    n = 16: at n = 4 its own remainder bound overflows (below)."""
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code in (EXIT_OK, EXIT_VIOLATION), err
    payload = json.loads(out)
    if argv[0] == "certify":
        rows = [(payload["rule_value_total"], payload["actual_error_total"])]
    else:
        rows = [(row["approx"], row["actual_error"]) for row in payload["rows"]]
    with mpmath.workdps(50):
        for rule, actual in rows:
            reference = abs(exact() - mpmath.mpf(rule))
            assert abs(actual - reference) <= 1e-13 * reference


def test_exp_composite_at_n_4_overflows_its_own_bound(capsys):
    """exp on [0, 700] at n = 4 still exits 2, no longer from GK15: the
    remainder bound of the last subinterval, about 87.5**3 * e**700 / 6, is
    beyond the float range."""
    code, out, err = run_cli(capsys, "composite", "--function", "exp", "--a", "0",
                             "--b", "700", "--n", "4")
    assert code == EXIT_USAGE and out == ""
    assert "composite rule of exp is not finite on subinterval 3" in err
    assert "bound inf" in err and "refined" not in err


@pytest.mark.parametrize("spec, a, b, p, exact", [
    ("reciprocal", "0.25", "1.9453125", "3",
     lambda a, b: a ** -8 - b ** -8),  # f'' = 2 x**-3
    ("poly:3,-2,1,0,5,-1", "0.5853024595704177", "1.4489322816493633", "2",
     lambda a, b: mpmath.quad(lambda x: (60 * x ** 3 - 24 * x ** 2 + 6 * x) ** 2, [a, b])),
])
def test_registry_lp_norms_need_no_gk15_tolerance(capsys, spec, a, b, p, exact):
    """Valid cerone_dragomir lp certificates that exited 2 because GK15
    could not meet tol=1e-12 on |f''|**p: the norm is exact, the upper end
    of an enclosure of the 50-digit norm."""
    code, out, err = run_cli(capsys, "certify", "--function", spec, "--a", a, "--b", b,
                             "--family", "cerone_dragomir", "--case", "lp", "--p", p,
                             "--format", "json")
    assert code == EXIT_OK, err
    params = json.loads(out)["params"]
    assert params["norm_method"] == "exact"
    with mpmath.workdps(50):
        norm = exact(mpmath.mpf(a), mpmath.mpf(b)) ** (1 / mpmath.mpf(p))
        assert norm <= params["norm"] <= norm * (1 + 1e-13)


def test_composite_refuses_more_than_2_53_subintervals(capsys):
    """n above 2**53 is bad input, refused before any node is computed."""
    code, out, err = run_cli(capsys, "composite", "--function", "exp", "--a", "0", "--b", "1",
                             "--n", str(2**60))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: need n <= 2**53 subintervals, got {2**60}\n"


def _loaded_in_fresh_interpreter(statement, modules, *flags):
    """Which of ``modules`` are in sys.modules after ``statement`` runs in a
    fresh interpreter started with ``flags``."""
    src = str(Path(quadcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; {statement}; "
         f"print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_numpy_out():
    """numpy is test-only; the exact sup norms need neither fractions nor
    decimal. The records are named tuples, so start-up skips dataclasses
    and the inspect module it pulls in; csv loads only for csv output."""
    modules = ("numpy", "fractions", "decimal", "dataclasses", "inspect", "csv")
    assert _loaded_in_fresh_interpreter("import quadcert.cli", modules) == "[]"


@pytest.mark.parametrize("statement, loaded", [
    ("import quadcert", []),
    ("import quadcert; quadcert.Partition", ["quadcert.composite", "random"]),
    ("import quadcert; quadcert.check_proposition", ["quadcert.means"]),
    ("import quadcert.cli", ["quadcert.composite", "quadcert.means", "random"]),
])
def test_composite_and_means_load_on_first_use(statement, loaded):
    """A certificate needs neither module, so ``import quadcert`` loads
    neither; the CLI imports both. -S keeps site's .pth files, which may
    import random, out of the answer."""
    modules = ("quadcert.composite", "quadcert.means", "random")
    assert _loaded_in_fresh_interpreter(statement, modules, "-S") == repr(loaded)


def test_json_runs_reproduce_bit_identically(capsys):
    argv = ("composite", "--function", "exp", "--a", "0", "--b", "1",
            "--rule", "generalized", "--xi-policy", "random", "--seed", "9",
            "--n", "2,4,8", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    json.loads(out1)  # stays parseable


def _strict_json(text):
    """Parse RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_composite_json_ratio_is_null_where_the_bound_is_0(capsys):
    """A linear f has bound and error 0: the ratio is null in JSON, and nan
    in CSV and table."""
    argv = ("composite", "--function", "poly:1,0", "--a", "0", "--b", "1", "--n", "2")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    row, = _strict_json(out)["rows"]
    assert row["remainder_bound"] == 0.0 and row["ratio"] is None
    for fmt in ("csv", "table"):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == EXIT_OK and out.splitlines()[1].replace(",", " ").split()[-1] == "nan"


@pytest.mark.parametrize("argv, option", [
    (("composite", "--function", "exp", "--a", "0", "--b", "1", "--n", ","), "--n"),
    (("sweep", "--props", ",", "--a", "1", "--b", "2"), "--props"),
    (("sweep", "--props", "2", "--a", ",", "--b", "2"), "--a"),
    (("sweep", "--props", "2", "--a", "1", "--b", ","), "--b"),
])
def test_empty_required_list_is_bad_input(capsys, argv, option):
    """An empty required list is bad input: exit 2 with nothing on stdout."""
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {option} needs at least one value\n"


@pytest.mark.parametrize("argv, option, message", [
    (("composite", "--function", "exp", "--a", "0", "--b", "1", "--n", "abc"),
     "--n", "bad integer list 'abc'"),
    (("means", "--a", "1", "--b", "2", "--p-values", "2,p"), "--p-values", "bad number list '2,p'"),
    (("sweep", "--props", "2,3.5", "--a", "1", "--b", "2"), "--props", "bad integer list '2,3.5'"),
    (("sweep", "--props", "2", "--a", "0.5,x", "--b", "2"), "--a", "bad number list '0.5,x'"),
    (("sweep", "--props", "2", "--a", "1", "--b", "2,,y"), "--b", "bad number list '2,,y'"),
])
def test_bad_list_is_named_by_its_option(capsys, argv, option, message):
    """A list that does not parse exits 2 through argparse with the list's
    own message, not the name of the parsing helper."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"usage: quadcert {argv[0]} ")
    assert captured.err.endswith(f"error: argument {option}: {message}\n")
    assert "_list" not in captured.err and "Traceback" not in captured.err


def test_csv_float_formatting_round_trips(capsys):
    _, out, _ = run_cli(capsys, "props", "--prop", "2", "--a", "0.1", "--b", "0.30000000000000004",
                        "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    b_field = rows[1][2]
    assert float(b_field) == 0.30000000000000004  # 17 significant digits survive


# ------------------------------------------------------- exit-code contract

EDGE_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 9e-301, 1e300, -1e300, 1.0, 2.0,
               math.nan, math.inf, -math.inf)
CLI_SPECS = ("exp", "reciprocal", "neglog", "power:2", "power:2.5", "power:3", "power:400",
             "poly:3,-2,1,0,5,-1", "poly:1,0,-1,0,0")


def _cli_floats():
    return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-3.0, 3.0))


def _cli_exponents():
    return st.none() | st.floats(0.5, 5.0) | st.sampled_from((math.nan, math.inf))


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(CLI_SPECS), a=_cli_floats(), b=_cli_floats(), x=_cli_floats(),
       family=st.sampled_from(FAMILIES), p=_cli_exponents(), q=_cli_exponents(),
       case=st.none() | st.sampled_from(CD_CASES))
@example(spec="exp", a=0.0, b=1e-300, x=9e-301, family="ostrowski", p=None, q=None, case=None)
# (b-a)^2 * sup|f'| overflows: the bound was printed as Infinity, exit 0
@example(spec="exp", a=-1e300, b=0.0, x=0.0, family="ostrowski", p=None, q=None, case=None)
# M_q read inf**0 = 1: bound 0.041667 below the error 0.073926, flag true
@example(spec="exp", a=0.0, b=1.0, x=1.0, family="power_mean", p=None, q=math.inf, case=None)
@example(spec="exp", a=0.0, b=1.0, x=1.0, family="power_mean", p=None, q=math.nan, case=None)
@example(spec="exp", a=0.0, b=1.0, x=1.0, family="holder", p=math.inf, q=None, case=None)
def test_certify_exit_code_contract(spec, a, b, x, family, p, q, case):
    """Every certify input exits 0, 1 or 2 without a traceback, exits 1
    exactly when the JSON row says the bound does not hold, and then with
    a false hypothesis flag, and prints a finite, non-negative bound
    whenever it prints one."""
    argv = ["certify", f"--function={spec}", f"--a={a!r}", f"--b={b!r}",
            f"--family={family}", "--format=json"]
    argv += [f"--{name}={value!r}" for name, value in (("x", x), ("p", p), ("q", q))
             if value is not None]
    if case is not None:
        argv.append(f"--case={case}")
    code, payload = _run_contract(argv)
    if payload is not None:
        assert payload["holds"] is (code == EXIT_OK)
        assert 0.0 <= payload["bound_total"] < math.inf
        if code == EXIT_VIOLATION:
            assert not all(flag["satisfied"] for flag in payload["hypothesis_flags"])


def _run_contract(argv):
    """Run one CLI call and hold it to the exit-code contract; returns the
    exit code and the parsed JSON (None on exit 2)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
        return code, None
    return code, _strict_json(out.getvalue())


MEAN_FLOATS = (5e-324, 1e-300, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e300, 1.7976931348623157e308,
               -1.0, 0.0, math.nan, math.inf)


def _mean_floats():
    return st.one_of(st.sampled_from(MEAN_FLOATS), st.floats(0.0, 10.0))


def _exponents():
    return st.one_of(st.sampled_from((-1.0, 0.0, 1.0, 2.0, 400.0, -400.0, math.nan, math.inf,
                                      -math.inf)),
                     st.floats(-5.0, 5.0))


def _float_arg(values):
    return ",".join(repr(v) for v in values)


@settings(max_examples=150, deadline=None)
@given(a=_mean_floats(), b=_mean_floats(), ps=st.lists(_exponents(), max_size=3))
@example(a=3.8518191519669767, b=1.7976931348623157e308, ps=[-2.949449503712275])
@example(a=1e300, b=1.0000000000000002e300, ps=[])  # ln b - ln a rounds to 0
@example(a=1e300, b=1.7e308, ps=[])  # ab overflows
@example(a=1.0, b=math.inf, ps=[])  # an infinite end is bad input, not an overflow
@example(a=1.0, b=2.0, ps=[math.inf])  # the mean read inf**0 = 1, outside [1, 2]
@example(a=1.0, b=2.0, ps=[math.nan])
def test_means_exit_code_contract(a, b, ps):
    argv = ["means", f"--a={a!r}", f"--b={b!r}", f"--p-values={_float_arg(ps)}",
            "--format=json"]
    code, payload = _run_contract(argv)
    if payload is not None:
        assert payload["chain_holds"] is (code == EXIT_OK)
        assert all(math.isfinite(row["value"]) for row in payload["means"])


@settings(max_examples=200, deadline=None)
@given(prop=st.integers(1, 6), a=_mean_floats(), b=_mean_floats(),
       p=st.none() | _exponents(), q=st.none() | _exponents(), corrected=st.booleans())
@example(prop=3, a=0.7266973772734842, b=3.40580102835054, p=2.0, q=0.0, corrected=False)
@example(prop=5, a=5e-324, b=1e-10, p=1.357020493300074, q=None, corrected=False)
@example(prop=2, a=1.0, b=math.inf, p=None, q=None, corrected=False)  # bad input, not NaN
@example(prop=5, a=1.0, b=2.0, p=None, q=math.nan, corrected=False)
@example(prop=3, a=1.0, b=2.0, p=2.0, q=math.nan, corrected=False)
@example(prop=1, a=1.0, b=2.0, p=math.inf, q=None, corrected=False)
@example(prop=4, a=1.0, b=2.0, p=math.inf, q=None, corrected=False)
@example(prop=1, a=5e-324, b=1e10, p=1.0625, q=None, corrected=False)  # rhs overflows to inf
def test_props_exit_code_contract(prop, a, b, p, q, corrected):
    argv = ["props", f"--prop={prop}", f"--a={a!r}", f"--b={b!r}", "--format=json"]
    argv += [f"--{name}={value!r}" for name, value in (("p", p), ("q", q)) if value is not None]
    code, payload = _run_contract(argv + (["--corrected"] if corrected else []))
    if payload is not None:
        assert payload["rows"][0]["holds"] is (code == EXIT_OK)
        assert all(math.isfinite(row[side]) for row in payload["rows"] for side in ("lhs", "rhs"))


@settings(max_examples=100, deadline=None)
@given(props=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       a_values=st.lists(_mean_floats(), min_size=1, max_size=2),
       b_values=st.lists(_mean_floats(), min_size=1, max_size=2),
       p_values=st.lists(_exponents(), max_size=2), q_values=st.lists(_exponents(), max_size=2),
       corrected=st.booleans())
@example(props=[3], a_values=[0.7266973772734842], b_values=[3.40580102835054],
         p_values=[2.0], q_values=[0.0], corrected=False)
@example(props=[5], a_values=[5e-324], b_values=[1e-10], p_values=[1.357020493300074],
         q_values=[], corrected=False)
# rhs overflows to inf at a = 5e-324: that cell is skipped as bad input
@example(props=[1], a_values=[5e-324, 1.0], b_values=[1e10], p_values=[1.0625], q_values=[],
         corrected=True)
def test_sweep_exit_code_contract(props, a_values, b_values, p_values, q_values, corrected):
    argv = ["sweep", f"--props={','.join(map(str, props))}", f"--a={_float_arg(a_values)}",
            f"--b={_float_arg(b_values)}", f"--p={_float_arg(p_values)}",
            f"--q={_float_arg(q_values)}", "--format=json"]
    code, payload = _run_contract(argv + (["--corrected"] if corrected else []))
    if payload is not None:
        assert (payload["summary"]["violations"] > 0) is (code == EXIT_VIOLATION)
        assert all(math.isfinite(row[side]) for row in payload["rows"] for side in ("lhs", "rhs"))


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(CLI_SPECS), a=_cli_floats(), b=_cli_floats(), x=_cli_floats())
def test_identity_check_exit_code_contract(spec, a, b, x):
    argv = ["identity-check", f"--function={spec}", f"--a={a!r}", f"--b={b!r}", f"--x={x!r}",
            "--format=json"]
    code, payload = _run_contract(argv)
    if payload is not None:
        assert payload["holds"] is (code == EXIT_OK)


@settings(max_examples=100, deadline=None)
@given(spec=st.sampled_from(CLI_SPECS), a=_cli_floats(), b=_cli_floats(),
       rule=st.sampled_from(COMPOSITE_RULES), ns=st.lists(st.integers(-1, 64), min_size=1,
                                                         max_size=3),
       xi_policy=st.sampled_from(XI_POLICIES), seed=st.integers(0, 3))
def test_composite_exit_code_contract(spec, a, b, rule, ns, xi_policy, seed):
    """Exit 1 exactly when some row's actual error exceeds its bound."""
    argv = ["composite", f"--function={spec}", f"--a={a!r}", f"--b={b!r}", f"--rule={rule}",
            f"--n={','.join(map(str, ns))}", f"--xi-policy={xi_policy}", f"--seed={seed}",
            "--format=json"]
    code, payload = _run_contract(argv)
    if payload is not None:
        failed = not all(_holds(r["actual_error"], r["remainder_bound"]) for r in payload["rows"])
        assert failed is (code == EXIT_VIOLATION)
