"""In-process runner for certify-mix and composite-large.

A closed loop with one client: each op starts when the previous one has
finished. Ops are timed from outside the package while the host speed is
sampled (see ``host``), and their outputs are checked after each round, off
the clock. The run repeats whole rounds until
``seconds`` have passed, so every run holds whole rounds of the workload's
mix.
"""

from . import common, exact, generate, ops
from .host import HostSampler
from .tally import Tally, exception_reason, rounds, timed_rounds

# Untimed ops before measuring: the smallest composite sizes, or the first
# certify-mix ops.
WARMUP_OPS = {"certify-mix": 300, "composite-large": 3}


def round_size(workload, op_list):
    if workload == "composite-large":
        return len(generate.COMPOSITE_ROUND)
    return len(op_list)


def run_ops(batch, tally, tracer=None, first_id=0):
    """Time every op of the batch back to back while sampling the host
    speed, then check the outputs, so checking neither shares the clock nor
    interleaves with the ops."""
    outputs = []
    with HostSampler() as sampler:
        for i, (op, _) in enumerate(batch):
            root = tracer.begin_op(first_id + i) if tracer is not None else None
            started = sampler.start()
            try:
                out = ops.run(op)
                error = None
            except Exception as exc:  # the run goes on; the op counts as failed
                out, error = None, exc
            seconds = sampler.stop(started)
            if tracer is not None:
                tracer.end_op(root)
            outputs.append((out, error, seconds))
    for (op, ref), (out, error, seconds), speed in zip(batch, outputs, sampler.speeds()):
        if error is not None:
            tally.failed_op(op, seconds, exception_reason(error), speed)
        else:
            tally.done_op(op, seconds, ops.check(op, ref, out), speed)


def measure(workload, seed, seconds, tracer=None):
    """Run the workload; returns (tally, extra) where extra holds set-up,
    memory and per-layer figures."""
    op_list = generate.GENERATORS[workload](seed)
    size = round_size(workload, op_list)
    # Probes first: they time fresh interpreters, not this one.
    extra = {"slots": [op.get("slot", k) for k, op in enumerate(op_list[:size])]}
    if tracer is None:
        warmup = min(op_list[:size], key=lambda op: op.get("n", 0))
        extra["setup_s"] = common.setup_seconds({"op": warmup})
    else:
        extra["process"] = common.process_layer_metrics()
    pairs = [(op, exact.reference(op)) for op in op_list]
    run_ops(sorted(pairs[:size], key=lambda p: p[0].get("n", 0))[:WARMUP_OPS[workload]],
            Tally())
    tally, extra["layers"] = timed_rounds(rounds(pairs, size), run_ops, seconds, tracer)
    extra["peak_rss_mb"] = common.peak_rss_mb()
    return tally, extra
