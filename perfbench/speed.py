"""Machine-speed reference for the benchmark's timings.

The cores of a small shared host change speed by up to 1.6x within a minute
or two as other tenants' load comes and goes, in CPU time as well as wall
time, so raw times of the same code spread more between runs than the
bounds allow. The benchmark therefore samples the core's speed while it
measures: every ``INTERVAL_S`` a running child is stopped (SIGSTOP), a fixed
reference sample runs in the benchmark process, and the child is continued
(SIGCONT); the paused time is left out of the child's time. A sample is a
pure-Python loop, a small matrix product and a sum over an 8 MiB array,
because the workloads mix interpreter work, BLAS and memory traffic. Each
timed step (one set-up, one workload repetition) is also reported scaled to
the nominal speed at which a sample takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / mean(samples in and around the step)

The samples do not run the program, so a faster program still reads faster
while a slower core reads the same. Raw times stay in the report.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

INTERVAL_S = 0.25
NOMINAL_S = 0.016
LOOP_ITERATIONS = 100_000
GEMM_SIZE, GEMM_REPEATS = 160, 12
STREAM_FLOATS, STREAM_REPEATS = 1 << 20, 8


class Reference:
    """Speed samples in the order taken, and the steps they bracket."""

    def __init__(self, sample=None):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(GEMM_SIZE, GEMM_SIZE))
        self._v = rng.normal(size=STREAM_FLOATS)
        self._sample = sample or self._reference_sample
        self.samples: list[float] = []
        self.sample()

    def _reference_sample(self) -> float:
        start = perf_counter()
        total = 0.0
        for i in range(LOOP_ITERATIONS):
            total += i * 0.5
        for _ in range(GEMM_REPEATS):
            self._a @ self._a
        for _ in range(STREAM_REPEATS):
            self._v.sum()
        return perf_counter() - start

    def sample(self) -> float:
        self.samples.append(self._sample())
        return self.samples[-1]

    def mark(self) -> int:
        """Index of the last sample before a step starts."""
        return len(self.samples) - 1

    def factor_since(self, mark: int) -> float:
        """Take a closing sample; the scale for the step begun at ``mark``.

        The scale is NOMINAL_S over the mean of the sample before the step,
        those taken during it and the closing one.
        """
        self.sample()
        window = self.samples[mark:]
        return NOMINAL_S / (sum(window) / len(window))
