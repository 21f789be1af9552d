"""Paths, child-process environment, statistics, machine facts and the
process-level probes shared by both workload runners."""

import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import host

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PROBE = BENCH_DIR / "qcbench" / "probe.py"
CLITRACE = BENCH_DIR / "qcbench" / "clitrace.py"

SETUP_PROBES = 7
PROCESS_PROBES = 7
CHILD_TIMEOUT_S = 60

# ROADMAP layers and the modules (metric prefixes) that implement them.
LAYER_MAP = {
    "L0": "functions, backend (quadcert._backend / _purepy): scalar f/f'/f'' evaluation",
    "L1": "oracle.integrate: GK15 segments and the adaptive oracle",
    "L2": "oracle.estimate_norm and functions.grid_midpoint_convex: sampled estimators",
    "L3": "bounds, rules: certificate assembly",
    "L4": "composite: Partition validation and the per-subinterval loop",
    "L5": "cli: process start, imports, parser, command, output",
}


def child_env():
    """Environment for quadcert child processes: the checkout's src first,
    and QUADCERT_BACKEND unset so the package picks its own backend."""
    env = dict(os.environ)
    env.pop("QUADCERT_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; returns (seconds, CompletedProcess). On
    timeout the child is killed and waited for before TimeoutExpired."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    return time.perf_counter() - start, proc


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default) of ``values``."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_seconds(request):
    """Median over SETUP_PROBES fresh interpreters of import quadcert plus
    one warm-up op (``request`` is {"op": ...} or {"argv": [...]}), each
    less the host sampling it shared its core with, and scaled to the
    reference host speed."""
    env = child_env()
    times = []
    with host.HostSampler() as sampler:
        for _ in range(SETUP_PROBES):
            started = sampler.start()
            _, proc = run_child([sys.executable, str(PROBE), json.dumps(request)], env)
            sampler.stop(started)
            sampling = sampler.spent - started[1]
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            times.append(seconds - sampling)
    return statistics.median(t * v for t, v in zip(times, sampler.speeds()))


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_breakdown_us(stderr):
    """(numpy, quadcert without numpy) cumulative microseconds from
    ``-X importtime`` output. numpy is imported inside quadcert, so it is
    subtracted from the top-level quadcert lines."""
    numpy_us = quadcert_us = 0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        name, cumulative = m.group(4), int(m.group(2))
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        if len(m.group(3)) == 1 and (name == "quadcert" or name.startswith("quadcert.")):
            quadcert_us += cumulative
    return numpy_us, quadcert_us - numpy_us


def process_layer_metrics():
    """cli.process_start_ms: wall time of a bare ``python -c pass``;
    cli.import_numpy_ms and cli.import_quadcert_ms (numpy excluded) from
    ``python -X importtime -c "import quadcert.cli"``. Medians of
    PROCESS_PROBES runs each."""
    env = child_env()
    bare, numpy_ms, quadcert_ms = [], [], []
    for _ in range(PROCESS_PROBES):
        seconds, proc = run_child([sys.executable, "-c", "pass"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"bare interpreter failed:\n{proc.stderr}")
        bare.append(seconds * 1e3)
        _, proc = run_child([sys.executable, "-X", "importtime", "-c", "import quadcert.cli"],
                            env)
        if proc.returncode != 0:
            raise RuntimeError(f"import quadcert.cli failed:\n{proc.stderr}")
        numpy_us, quadcert_us = import_breakdown_us(proc.stderr)
        numpy_ms.append(numpy_us / 1e3)
        quadcert_ms.append(quadcert_us / 1e3)
    return {"cli.process_start_ms": statistics.median(bare),
            "cli.import_numpy_ms": statistics.median(numpy_ms),
            "cli.import_quadcert_ms": statistics.median(quadcert_ms)}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def facts():
    """Machine and build facts recorded with every result."""
    import numpy

    import quadcert

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "quadcert_backend": quadcert.backend_name(), "git_commit": _git_commit()}
