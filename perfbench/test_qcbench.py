"""Self-tests of the benchmark: seeded generation, the exact checker, the
span tracer's time accounting, the host sampler and the run's figures."""

import math
import time

import pytest

from qcbench import cold, exact, generate, ops
from qcbench.host import HostSampler
from qcbench.spans import Tracer
from qcbench.tally import Tally, round_figures


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    gen = generate.GENERATORS[workload]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_cli_argv_writes_every_value_attached():
    for op in generate.cold_cli(3):
        argv = generate.cli_argv(op)
        assert all(arg.startswith("--") and "=" in arg
                   for arg in argv[1:] if arg != "--corrected")


def _certify_power2():
    op = {"kind": "certify", "spec": "power:2", "a": 0.0, "b": 1.0, "x": 0.875,
          "family": "convex"}
    return op, exact.reference(op), ops.run(op)


def test_checker_passes_the_sharp_witness_and_flags_a_halved_bound():
    op, ref, (cert, est) = _certify_power2()
    assert not ops.check(op, ref, (cert, est)).wrong

    verdict = exact.Verdict()
    exact.check_certificate(verdict, ref, cert.rule.value_avg, cert.bound_avg / 2,
                            True, "avg")
    assert verdict.violations == 1
    assert any("bound" in reason for reason in verdict.wrong)


def test_checker_flags_a_composite_result_off_by_1e_6():
    op = {"kind": "composite", "spec": "exp", "a": 0.0, "b": 1.0, "n": 1000,
          "rule": "midpoint", "xi_policy": "midpoint", "xi_seed": 0}
    ref = exact.reference(op)
    approx, bound, est = ops.run(op)
    assert not ops.check(op, ref, (approx, bound, est)).wrong

    verdict = ops.check(op, ref, (approx + 1e-6, bound, est))
    assert verdict.violations == 1 and verdict.wrong


def test_cli_check_flags_exit_code_disagreeing_with_json():
    op, ref, (cert, est) = _certify_power2()
    payload = {"rule_value_total": cert.rule.value_total, "bound_total": cert.bound_total,
               "actual_error_total": abs(est.value - cert.rule.value_total),
               "holds": True,
               "hypothesis_flags": [{"name": n, "satisfied": s}
                                    for n, s in cert.hypothesis_flags]}
    assert cold.check_cli(op, ref, 0, payload)[1] is None
    assert cold.check_cli(op, ref, 1, payload)[1] is not None
    # holds=false needs a false flag or a failed exact check
    assert cold.check_cli(op, ref, 1, dict(payload, holds=False))[1] is not None


def test_self_times_and_child_times_add_up_to_each_parent():
    import quadcert.bounds

    original = quadcert.bounds.grid_midpoint_convex
    tracer = Tracer()
    tracer.install()
    try:
        batch = generate.certify_mix(5)[:40] + generate.composite_large(5)[:1]
        for i, op in enumerate(batch):
            root = tracer.begin_op(i)
            ops.run(op)
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert quadcert.bounds.grid_midpoint_convex is original

    selfs = tracer.self_times()
    children = [0.0] * len(selfs)
    for sid, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            children[parent] += tracer.span_end[sid] - tracer.span_start[sid]
    for sid in range(len(selfs)):
        duration = tracer.span_end[sid] - tracer.span_start[sid]
        assert selfs[sid] >= -1e-9
        assert math.isclose(selfs[sid] + children[sid], duration, abs_tol=1e-12)
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"bounds.bound_convex", "oracle.integrate", "composite.Partition.init"} <= names
    assert tracer.snapshot()["evals"] > 0


def test_host_sampler_leaves_its_own_time_out_of_each_op():
    with HostSampler() as sampler:
        started = sampler.start()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        seconds = sampler.stop(started)
    # samples on entry, on exit and at least four timer ticks in between
    assert len(sampler.took) >= 6
    assert 0.05 < seconds < 0.1
    [speed] = sampler.speeds()
    assert speed > 0


def test_round_figures_take_each_slots_fastest_scaled_time():
    tally = Tally()
    rounds = (((0.002, 0.010, 0.004), (1.0, 1.0, 0.5)),
              ((0.003, 0.006, 0.001), (1.0, 0.5, 1.0)))
    for seconds, speeds in rounds:
        tally.new_round()
        for t, v in zip(seconds, speeds):
            tally.done_op({"kind": "prop"}, t, exact.Verdict(), v)
    # scaled ms: slot 0 ran 2, 2, 3 and 1; slot 1 ran 10 and 3
    figures, per_round = round_figures(tally, [0, 1, 0])
    assert figures["ops_per_s"] == pytest.approx(2 / 4e-3)
    assert figures["latency_p50_ms"] == pytest.approx(2.0)
    assert per_round["ops_per_s"] == pytest.approx([3 / 14e-3, 3 / 7e-3])
    # raw ms: slot 0 ran 2, 4, 3 and 1; slot 1 ran 10 and 6
    figures, _ = round_figures(tally, [0, 1, 0], scaled=False)
    assert figures["ops_per_s"] == pytest.approx(2 / 7e-3)
