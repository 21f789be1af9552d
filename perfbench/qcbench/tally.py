"""Per-run accounting shared by both runners: latencies, failures and the
checker's verdicts, and the per-layer metrics derived from a tracer."""

import time
import traceback
from array import array

from .common import percentile
from .spans import LAYERS


class Tally:
    """What one stretch of ops did. Latencies (seconds), the host speed at
    each op (see ``host``) and failure counts are kept per round, so figures
    can be taken op by op and round by round. Both are packed arrays, so the
    bookkeeping barely shows in peak RSS."""

    def __init__(self):
        self.rounds = [array("d")]
        self.speeds = [array("d")]
        self.round_failed = [0]
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.certificates = 0
        self.advisory = 0
        self.violations = 0
        self.subintervals = 0
        self.examples = []      # first few failures, for the report

    def _example(self, op, reason):
        if len(self.examples) < 5:
            self.examples.append({"op": op, "reason": reason})

    def new_round(self):
        if self.rounds[-1]:
            self.rounds.append(array("d"))
            self.speeds.append(array("d"))
            self.round_failed.append(0)

    @property
    def latencies(self):
        """Every op's time, scaled to the reference host speed."""
        return [s * v for r, speeds in zip(self.rounds, self.speeds) for s, v in zip(r, speeds)]

    def _timed(self, seconds, speed):
        self.attempted += 1
        self.rounds[-1].append(seconds)
        self.speeds[-1].append(speed)

    def failed_op(self, op, seconds, reason, speed=1.0):
        """An op that raised, crashed or broke the exit-code contract."""
        self._timed(seconds, speed)
        self.raised += 1
        self.round_failed[-1] += 1
        self._example(op, reason)

    def done_op(self, op, seconds, verdict, speed=1.0):
        self._timed(seconds, speed)
        self.certificates += verdict.certificates
        self.advisory += verdict.advisory
        self.violations += verdict.violations
        self.subintervals += op.get("n", 0) + sum(op.get("n_values", ()))
        if verdict.wrong:
            self.wrong += 1
            self.round_failed[-1] += 1
            self._example(op, "; ".join(verdict.wrong))

    @property
    def failed(self):
        return self.raised + self.wrong

    def absorb(self, other):
        kept = [(r, v, f) for r, v, f in zip(self.rounds + other.rounds,
                                             self.speeds + other.speeds,
                                             self.round_failed + other.round_failed) if r]
        self.rounds = [r for r, _, _ in kept] or [array("d")]
        self.speeds = [v for _, v, _ in kept] or [array("d")]
        self.round_failed = [f for _, _, f in kept] or [0]
        for key in ("attempted", "raised", "wrong", "certificates", "advisory",
                    "violations", "subintervals"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.examples = (self.examples + other.examples)[:5]


def exception_reason(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, traced_ops, counted, counted_tally, overhead_share):
    """Per-layer metrics from a tracer.

    Times are milliseconds per traced op. Counts (evals, integrate calls,
    subdivisions, norm samples) come from ``counted``, the counter
    differences over one full round, divided by that round's op count, so
    they repeat exactly for a seed. Errors are totals over the traced run.
    """
    totals = tracer.totals()

    def ms(names, column):
        return sum(totals[n][column] for n in names if n in totals) * 1e3 / max(traced_ops, 1)

    def prefixed(prefix):
        return [n for n in totals if n.startswith(prefix)]

    ops = max(counted_tally.attempted, 1)
    metrics = {
        "functions.parse_function_spec.ms": ms(["functions.parse_function_spec"], 1),
        "functions.grid_midpoint_convex.ms": ms(["functions.grid_midpoint_convex"], 1),
        "functions.evals": counted["evals"] / ops,
        "functions.evals_per_subinterval": share(counted["composite.evals"],
                                                 counted_tally.subintervals),
        "backend.adaptive_quad.ms": ms(["backend.adaptive_quad"], 1),
        "rules.ms": ms(prefixed("rules."), 3),
        "bounds.self_ms": ms(prefixed("bounds."), 2),
        "bounds.advisory_share": share(counted_tally.advisory, counted_tally.certificates),
        "oracle.integrate.ms": ms(["oracle.integrate"], 1),
        "oracle.integrate.calls": counted["integrate.calls"] / ops,
        "oracle.subdivisions": counted["subdivisions"] / ops,
        "oracle.estimate_norm.ms": ms(["oracle.estimate_norm"], 1),
        "oracle.estimate_norm.samples": counted["estimate_norm.samples"] / ops,
        "kernel.identity_residual.self_ms": ms(["kernel.identity_residual"], 2),
        "means.check_proposition.ms": ms(["means.check_proposition"], 1),
        "composite.Partition.uniform.ms": ms(["composite.Partition.uniform"], 1),
        "composite.Partition.init.ms": ms(["composite.Partition.init"], 1),
        "composite.self_ms": ms(prefixed("composite.composite_"), 2),
        "cli.build_parser.ms": ms(["cli.build_parser"], 1),
        "cli.main.self_ms": ms(["cli.main"], 2),
        "trace.overhead_share": overhead_share,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer]
    return metrics


def counter_diff(after, before):
    return {k: after[k] - before[k] for k in after}


def rounds(pairs, size):
    """Endless batches of ``size`` consecutive (op, reference) pairs,
    wrapping around the list."""
    r = 0
    while True:
        start = (r * size) % len(pairs)
        yield pairs[start:start + size]
        r += 1


def timed_rounds(batches, run_batch, seconds, tracer=None, install=True):
    """Run whole batches until ``seconds`` have passed; returns (tally,
    per-layer metrics or None).

    ``run_batch(batch, tally, tracer=None, first_id=0)`` runs one batch.
    With a tracer, each batch runs both untraced and traced (installing the
    tracer around it when ``install``), untraced first on every other batch,
    so trace.overhead_share compares the same ops; the first traced batch is
    the counted pass.
    """
    tally = Tally()
    start = time.perf_counter()
    if tracer is None:
        while time.perf_counter() - start < seconds:
            tally.new_round()
            run_batch(next(batches), tally)
        return tally, None
    traced = Tally()
    counted = counted_tally = None
    next_id = pair = 0
    while counted is None or time.perf_counter() - start < seconds:
        batch = next(batches)
        untraced_first = pair % 2 == 0
        pair += 1
        if untraced_first:
            tally.new_round()
            run_batch(batch, tally)
        before = tracer.snapshot()
        batch_tally = Tally()
        if install:
            tracer.install()
        try:
            run_batch(batch, batch_tally, tracer, next_id)
        finally:
            if install:
                tracer.uninstall()
        if not untraced_first:
            tally.new_round()
            run_batch(batch, tally)
        next_id += len(batch)
        if counted is None:
            counted, counted_tally = counter_diff(tracer.snapshot(), before), batch_tally
        traced.absorb(batch_tally)
    overhead = 1.0 - share(sum(tally.latencies), sum(traced.latencies))
    layers = layer_metrics(tracer, traced.attempted, counted, counted_tally, overhead)
    tally.absorb(traced)
    return tally, layers


def round_figures(tally, slots, scaled=True):
    """End-to-end figures of a run.

    Every round runs the same ops in the same order. ``slots`` names, for
    each position of a round, the work done there: the op itself on
    certify-mix and cold-cli, the size (with its fixed rule and function) on
    composite-large, where the smaller sizes run three times a round. With
    ``scaled``, each op's time is scaled to the reference host speed (see
    ``host``). A slot's figure is its fastest time over the run: load from
    outside only ever slows an op, and the part of it that comes and goes
    within an op is beyond the reach of the host samples. The latency
    percentiles are taken over the slots' figures, and ops_per_s is slots
    per second of their sum: one op per slot, each at its figure, less the
    failed share. Returns (figures, per-round values, kept for the
    report)."""
    per_round = {"ops_per_s": [], "latency_p50_ms": [], "latency_p90_ms": [],
                 "latency_p99_ms": []}
    by_slot = {}
    for r, speeds, failed in zip(tally.rounds, tally.speeds, tally.round_failed):
        if not r:
            continue
        ms = [s * (v if scaled else 1.0) * 1e3 for s, v in zip(r, speeds)]
        per_round["ops_per_s"].append((len(ms) - failed) / sum(ms) * 1e3)
        for q in (50, 90, 99):
            per_round[f"latency_p{q}_ms"].append(percentile(ms, q))
        for slot, t in zip(slots, ms):
            by_slot.setdefault(slot, []).append(t)
    fastest = [min(times) for times in by_slot.values()]
    completed = 1.0 - share(tally.failed, tally.attempted)
    figures = {"ops_per_s": completed * len(fastest) / sum(fastest) * 1e3}
    for q in (50, 90, 99):
        figures[f"latency_p{q}_ms"] = percentile(fastest, q)
    return figures, per_round
