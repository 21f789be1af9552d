#!/usr/bin/env python3
"""The quadcert benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 30 --trace 0

Workloads: certify-mix, composite-large, cold-cli (see BENCHMARK.json and
perfbench/README.md). The benchmark imports quadcert from the checkout's
``src`` and fails without it. It prints a human-readable report, writes the
full result (and, with --trace 1, every span) under perfbench/out/, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("certify-mix", "composite-large", "cold-cli")
# Whether a workload's figures come from host-speed-scaled times. The short
# ops of certify-mix run 25 or more times a run, so some timing of each
# falls in a quiet moment; there the fastest raw time spread 6% between
# runs and the scaled one 12-15%, as its ops slow less than the host loop.
# The long ops of the other two run 4-15 times a run; their fastest raw
# times spread 8-40% between runs and the scaled ones 2-12%.
SCALED = {"certify-mix": False, "composite-large": True, "cold-cli": True}


def end_to_end(workload, tally, extra):
    """Every end-to-end figure: the BENCHMARK.json ones plus the report-only
    shares, which can be 0 and so are not in BENCHMARK.json."""
    from qcbench.tally import round_figures, share

    figures, per_round = round_figures(tally, extra["slots"], SCALED[workload])
    figures.update(setup_s=extra["setup_s"], peak_rss_mb=extra["peak_rss_mb"])
    busy = sum(tally.latencies)
    speeds = sorted(v for round_speeds in tally.speeds for v in round_speeds)
    report_only = {
        "rounds": (len(per_round["ops_per_s"]), "count"),
        "host_speed": (speeds[len(speeds) // 2], "ratio"),
        "fail_share": (share(tally.failed, tally.attempted), "share"),
        "cert_violation_share": (share(tally.violations, tally.certificates), "share"),
    }
    if workload == "composite-large":
        report_only["subintervals_per_s"] = (tally.subintervals / busy, "1/s")
    return figures, report_only, per_round


def main(argv=None):
    parser = argparse.ArgumentParser(description="quadcert benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quadcert" / "__init__.py").is_file():
        print(f"error: no quadcert sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from qcbench import cold, common, drive, host
    from qcbench.spans import Tracer

    host.pin_to_one_cpu()

    tracer = Tracer() if args.trace else None
    if args.workload == "cold-cli":
        tally, extra = cold.measure(args.seed, args.seconds, tracer)
    else:
        tally, extra = drive.measure(args.workload, args.seed, args.seconds, tracer)

    if args.trace:
        figures = dict(extra["layers"], **extra["process"])
        wanted = spec["per_layer"]
        report_only, per_round = {}, None
    else:
        figures, report_only, per_round = end_to_end(args.workload, tally, extra)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why, "facts": common.facts(),
        "layer_map": common.LAYER_MAP,
        "ops": {"attempted": tally.attempted, "failed": tally.failed,
                "raised_or_broke_contract": tally.raised, "wrong_output": tally.wrong,
                "certificates": tally.certificates, "advisory": tally.advisory,
                "violations": tally.violations, "subintervals": tally.subintervals},
        "metrics": metrics,
        "report_only": {k: {"value": v, "unit": u} for k, (v, u) in report_only.items()},
        "per_round": per_round,
        "failure_examples": tally.examples,
    }

    common.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (common.OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if tracer is not None:
        tracer.write(common.OUT / f"spans-{stem}.csv.gz")

    print(f"quadcert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {why}")
    print("  facts: " + " ".join(f"{k}={v}" for k, v in result["facts"].items()))
    for layer, modules in common.LAYER_MAP.items():
        print(f"  {layer}: {modules}")
    print("  ops: " + ", ".join(f"{k} {v}" for k, v in result["ops"].items()))
    for name, m in list(metrics.items()) + list(result["report_only"].items()):
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for example in tally.examples:
        print(f"  failed: {example['reason']} :: {json.dumps(example['op'])}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
