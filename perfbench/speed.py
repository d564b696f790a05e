"""Host speed probe: fixed pieces of work timed while the program runs.

On a shared host the same call runs up to 1.6 times slower in spells of
a second to minutes, and CPU time slows with wall time, so neither clock
separates the program's cost from the host's state.  The probe times two
fixed pieces of work: interpreter work with small numpy calls, and dense
matrix-vector products, because the two do not slow by the same factor.
``Sampler`` runs them from a timer signal every ``INTERVAL_S`` in the
measured process, so they see the speed the program sees, on the same
core, all through a call.  ``scale`` then takes the probes' time off a
call's time and multiplies the rest by the time-weighted mean speed-up to
the reference speed, where each piece runs in its ``*_REFERENCE_S``.  A
workload's ``matvec_share`` says how much of that speed is the
matrix-vector products'.  The probe is the benchmark's own code, so no
change to the program moves it, except that a program which leaves more
of the caches cold slows the first steps of each probe a little.
"""

import signal
from time import perf_counter

import numpy

# Near the median times of the two pieces (0.9 to 1.3 ms each, over about
# 10 000 samples taken during the workloads) on a 2-vCPU "Intel(R) Xeon(R)
# Processor" virtual machine, Python 3.11, numpy 2.4, BLAS on one thread.
INTERPRETER_REFERENCE_S = 0.0011
MATVEC_REFERENCE_S = 0.0011
INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.01

_ROWS = numpy.random.default_rng(0).standard_normal((8, 16))
# Larger than one core's L2 cache, as are the program's dense 2-d operators.
_MATRIX = numpy.full((800, 800), 0.5)
_VECTOR = numpy.full(800, 0.5)
# Memory the probe holds, which a peak resident size should not count.
RESIDENT_BYTES = _MATRIX.nbytes


def _interpreter_work() -> float:
    total = 0
    for i in range(7_000):
        total += i * i % 7
    for i in range(100):
        total += float(numpy.abs(_ROWS[i % 8] - _ROWS[(i + 1) % 8]).sum())
    return total


def _matvec_work() -> float:
    return sum(float((_MATRIX @ _VECTOR)[0]) for _ in range(3))


def scale(elapsed: float, samples: list, matvec_share: float) -> float:
    """``elapsed`` without the probes in ``samples``, at the reference speed."""
    if not samples:
        return elapsed
    own = elapsed - sum(interpreter_s + matvec_s for _, interpreter_s, matvec_s in samples)
    weight = sum(gap for gap, _, _ in samples)
    speedup = sum(
        gap
        / (
            (1.0 - matvec_share) * interpreter_s / INTERPRETER_REFERENCE_S
            + matvec_share * matvec_s / MATVEC_REFERENCE_S
        )
        for gap, interpreter_s, matvec_s in samples
    )
    return own * speedup / weight


class Sampler:
    """Times a probe every ``interval`` seconds of wall time while active.

    A signal that arrives during a long call into C is handled when the
    call returns, so each probe is weighted by the program time since the
    one before it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        # (program seconds since the last probe, interpreter seconds, matvec seconds)
        self.samples = []

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        _interpreter_work()
        middle = perf_counter()
        _matvec_work()
        end = perf_counter()
        self.samples.append((start - self._last, middle - start, end - middle))
        self._last = end

    def __enter__(self):
        self._last = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
