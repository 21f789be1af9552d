"""cold-cli runner: one fresh ``python -m quadcert.cli ... --format=json``
process per op, run one at a time (a closed loop with one client).

An op fails when its exit code is not 0 or 1, when stderr holds a
traceback, when stdout is not JSON, or when the exit code disagrees with
the JSON. Its output is then checked against the exact reference like an
in-process op.
"""

import json
import os
import resource
import subprocess
import sys

from . import common, exact, generate
from .host import HostSampler
from .tally import rounds, timed_rounds

# Exit 0 must come with every composite row within this slack of its bound;
# the CLI's own test is tighter.
_COMPOSITE_EXIT_SLACK = 1e-6


def _certify(verdict, ref, payload):
    """Check a certify payload; returns why holds=false is unjustified, or
    None. holds=false needs a false flag or a failed exact check."""
    flags_ok = all(flag["satisfied"] for flag in payload["hypothesis_flags"])
    value, bound = payload["rule_value_total"], payload["bound_total"]
    err = abs(ref["total"] - exact.mpf(value))
    verdict.near("actual_error_total", payload["actual_error_total"], err,
                 abs(ref["total"]), exact.ORACLE_TOL)
    exact.check_certificate(verdict, ref, value, bound, flags_ok, "total")
    if not payload["holds"] and flags_ok and not err > exact.mpf(bound):
        return "holds=false with every flag true and the exact error within the bound"
    return None


def _prop_rows(verdict, rows, refs=None):
    for row in rows:
        if refs is not None:
            ref = refs[row["variant"]]
        else:
            ref = exact.prop_reference(row["prop_id"], row["a"], row["b"], row["p"], row["q"])
        exact.check_prop(verdict, ref, row["lhs"], row["rhs"], row["holds"])


def _composite(verdict, ref, payload):
    ok = True
    for row in payload["rows"]:
        approx, bound = row["approx"], row["remainder_bound"]
        err = abs(ref["total"] - exact.mpf(approx))
        verdict.near("actual_error", row["actual_error"], err, abs(ref["total"]),
                     exact.ORACLE_TOL)
        exact.check_composite(verdict, ref, approx, bound)
        ok = ok and row["actual_error"] <= bound * (1 + _COMPOSITE_EXIT_SLACK) + 1e-12
    violated = any(row["actual_error"] > row["remainder_bound"] for row in payload["rows"])
    return ok, violated


def check_cli(op, ref, code, payload):
    """(verdict, reason the exit code breaks the contract or None)."""
    verdict = exact.Verdict()
    kind = op["kind"]
    reason = None
    if kind == "certify":
        reason = _certify(verdict, ref, payload)
        holds = payload["holds"]
    elif kind == "identity":
        exact.check_identity(verdict, payload["residual"])
        holds = payload["holds"]
    elif kind == "prop":
        _prop_rows(verdict, payload["rows"], ref)
        holds = payload["rows"][0]["holds"]
    elif kind == "sweep":
        _prop_rows(verdict, payload["rows"])
        rows_hold = all(row["holds"] for row in payload["rows"])
        if rows_hold != (payload["summary"]["violations"] == 0):
            return verdict, "sweep summary disagrees with its rows"
        holds = rows_hold
    else:
        ok, violated = _composite(verdict, ref, payload)
        if code == 0 and not ok:
            return verdict, "exit 0 with a row above its remainder bound"
        if code == 1 and not violated:
            return verdict, "exit 1 with every row within its remainder bound"
        return verdict, None
    if (code == 0) != holds:
        reason = f"exit {code} with holds={holds}"
    return verdict, reason


def _contract(proc):
    if proc.returncode not in (0, 1):
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if "Traceback (most recent call last)" in proc.stderr:
        return "traceback on stderr: " + proc.stderr.strip()[-300:]
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return "stdout is not JSON: " + proc.stdout[:200]


def run_op(op, ref, env, sampler, tracer=None, op_id=0):
    """Run one request, timed by ``sampler``; returns (seconds, verdict,
    reason it failed or None)."""
    tail = generate.cli_argv(op)
    if tracer is None:
        argv = [sys.executable, "-m", "quadcert.cli", *tail]
    else:
        spans_path = common.OUT / f"spans-{os.getpid()}.json"
        env = dict(env, QCBENCH_SPANS=str(spans_path))
        argv = [sys.executable, str(common.CLITRACE), *tail]
        root = tracer.begin_op(op_id)
    started = sampler.start()
    try:
        _, proc = common.run_child(argv, env)
    except subprocess.TimeoutExpired as exc:
        proc = None
        reason = f"timed out after {exc.timeout} s"
    seconds = sampler.stop(started)
    if tracer is not None:
        if spans_path.exists():
            tracer.absorb(json.loads(spans_path.read_text()), op_id)
            spans_path.unlink()
        tracer.end_op(root)
    if proc is None:
        return seconds, None, reason
    payload = _contract(proc)
    if isinstance(payload, str):
        return seconds, None, payload
    try:
        verdict, reason = check_cli(op, ref, proc.returncode, payload)
    except (KeyError, TypeError, IndexError) as exc:
        verdict, reason = None, f"unexpected JSON layout: {exc!r}"
    return seconds, verdict, reason


def measure(seed, seconds, tracer=None):
    """Run cold-cli; returns (tally, extra) like the in-process runner."""
    op_list = generate.cold_cli(seed)
    env = common.child_env()
    common.OUT.mkdir(exist_ok=True)
    extra = {"slots": list(range(len(op_list)))}
    if tracer is None:
        extra["setup_s"] = common.setup_seconds({"argv": generate.cli_argv(op_list[0])})
    else:
        extra["process"] = common.process_layer_metrics()
    pairs = [(op, exact.reference(op)) for op in op_list]
    with HostSampler() as sampler:  # warm-up: compiled bytecode, file cache
        run_op(*pairs[0], env, sampler)

    def run_batch(batch, tally, tracer=None, first_id=0):
        with HostSampler() as sampler:
            results = [run_op(op, ref, env, sampler, tracer, first_id + i)
                       for i, (op, ref) in enumerate(batch)]
        for (op, _), (seconds, verdict, reason), speed in zip(batch, results, sampler.speeds()):
            if reason is not None:
                tally.failed_op(op, seconds, reason, speed)
            else:
                tally.done_op(op, seconds, verdict, speed)

    tally, extra["layers"] = timed_rounds(rounds(pairs, len(pairs)), run_batch, seconds,
                                          tracer, install=False)
    # Largest resident set of any child: the CLI processes and the probes.
    extra["peak_rss_mb"] = common.peak_rss_mb(resource.RUSAGE_CHILDREN)
    return tally, extra
