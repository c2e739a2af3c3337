"""Host-speed reference: express measured times at a fixed host speed.

The benchmark runs on a few cores of a shared host whose throughput drifts by
up to 2x within seconds, in CPU time as much as in wall time: a pass that
takes 1.0 s in one second can take 1.8 s a few seconds later.  Medians over a
run do not remove a drift that lasts longer than the run.  So while a pass is
timed, a fixed reference chunk runs every INTERVAL_S on SIGALRM, in the
measuring thread, and times itself.  The chunk's nominal time against its
measured time gives the host's speed at that moment; a measured time
multiplied by the mean speed over its region is the time the work would have
taken at nominal speed.  The chunks' own time is taken out of the region's
wall and CPU time.

The drift slows different kinds of work by different amounts, so each
workload names the reference whose slowdown tracks its own:

- ``numpy-calls``: a Python loop of small-array numpy calls, the cost profile
  of the fit sweeps and the figure rows;
- ``dense-matmul``: products of 192x192 matrices, which OpenBLAS splits over
  both cores as it does the dense operators' factorisations and products.

The chunks are benchmark code, so a change to the program cannot move them.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04  # wall time between the end of one reference chunk and the next
BRACKET_CHUNKS = 10  # chunks run before and after a region that cannot be sampled

_VEC = np.ones(4, dtype=complex)
_MAT = np.eye(4, dtype=complex)


@functools.cache
def _matmul_operand():
    return np.random.default_rng(0).standard_normal((192, 192)) / 20.0


def _numpy_calls():
    v = _VEC
    for _ in range(250):
        v = _MAT @ v
        v = v * 0.5 + _VEC
        float(np.abs(v[0]))


def _dense_matmul():
    a = _matmul_operand()
    for _ in range(6):
        a @ a


# name -> (chunk, its median time in seconds on the 2-vCPU host of the README's figures)
REFERENCES = {"numpy-calls": (_numpy_calls, 1.9e-3), "dense-matmul": (_dense_matmul, 1.7e-3)}


class HostClock:
    """Samples the host's speed, with one reference, through one timed region at a time."""

    def __init__(self, reference: str):
        self.chunk, self.nominal_s = REFERENCES[reference]
        self.chunk()  # first-call costs stay out of the samples
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _time_chunk(self) -> float:
        start = time.perf_counter()
        self.chunk()
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        self.samples.append(self._time_chunk())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.thread_time() - cpu0

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host's speed until the block ends."""
        self.samples, self.spent_wall, self.spent_cpu = [], 0.0, 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spot_speed(self) -> float:
        """The host's speed now, relative to nominal, from back-to-back chunks."""
        return statistics.fmean(self.nominal_s / self._time_chunk()
                                for _ in range(BRACKET_CHUNKS))

    def speed(self) -> float:
        """Mean host speed over the last sampled region, relative to nominal.

        The mean of nominal / measured over samples evenly spread in time is
        the work done per second at nominal speed, so that measured time x
        speed is the time at nominal speed.
        """
        if not self.samples:
            return self.spot_speed()
        return statistics.fmean(self.nominal_s / t for t in self.samples)
