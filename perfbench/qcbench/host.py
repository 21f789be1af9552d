"""Host speed, sampled while the ops run.

On a shared host the same op can take 1.5-2x longer while a neighbour loads
the core, and such periods last from a fraction of a second to over a
minute. So while a runner times ops, a timer signal every ``INTERVAL_S``
times a fixed standard-library loop, the fastest of ``LOOP_RUNS`` runs.
Each op's time is then scaled by ``REF_S`` over the mean loop time of the
samples taken within ``WINDOW_S`` of the op: a scaled time is the op's time
at the host speed at which the loop takes ``REF_S``. The loop never calls
quadcert, so changes to the package move scaled times as they move raw
ones. The time spent sampling is taken out of every op's time.
"""

import bisect
import math
import os
import signal
import statistics
import time
from array import array

LOOP_ITERS = 1000
# The loop's time in the signal handler on the 2-core Xeon host the
# benchmark was sized on, when nothing else loaded its core: scaled times
# are what an op took there.
REF_S = 0.075e-3
LOOP_RUNS = 3
INTERVAL_S = 0.02
WINDOW_S = 0.05


def _loop():
    s = 0.0
    for i in range(LOOP_ITERS):
        s += math.sqrt(i) * 1.0001
    return s


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so the samples and the
    ops they scale run on the same core, also in child processes. A no-op
    where affinity is not available."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class HostSampler:
    """Samples the host speed while ops run and scales their times.

    Use as a context manager around a stretch of ops; time each op with
    ``started = start()`` ... ``seconds = stop(started)``, which leaves out
    the time the samples took. After the stretch, ``speeds()`` gives one
    factor per stopped op: REF_S over the mean loop time of the samples
    near it. A factor below 1 means the host ran slow.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0
        self.spans = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        took = math.inf
        for _ in range(LOOP_RUNS):
            begin = time.perf_counter()
            _loop()
            took = min(took, time.perf_counter() - begin)
        self.at.append(start)
        self.took.append(took)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def start(self):
        return time.perf_counter(), self.spent

    def stop(self, started):
        """Seconds since ``started``, less the time spent sampling."""
        begin, spent = started
        end = time.perf_counter()
        self.spans.append((begin, end))
        return end - begin - (self.spent - spent)

    def speeds(self):
        everywhere = statistics.mean(self.took)
        factors = []
        for begin, end in self.spans:
            lo = bisect.bisect_left(self.at, begin - WINDOW_S)
            hi = bisect.bisect_right(self.at, end + WINDOW_S)
            took = statistics.mean(self.took[lo:hi]) if hi > lo else everywhere
            factors.append(REF_S / took)
        return factors
