"""A fixed reference computation that tracks how fast the machine runs now.

The host's speed moves by up to a third between phases that last a minute or
more, in CPU time as much as in wall time (README.md, reference figures), so
runs of the same code taken a few minutes apart can differ by more than a
metric's bound. A run therefore times this computation once per EVERY_S
seconds, between stage repetitions, and scales its end-to-end timings (all
but training's, see run.py) by REFERENCE_S / median(reference times). The computation mixes the kinds of
work the program does: interpreted Python, small sparse products and dense
products. It does not touch the program, so a change to the program moves
the scaled timings as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

EVERY_S = 0.4  # seconds of run per reference timing
CATCH_UP = 16  # most reference timings made at once after a long repetition
REFERENCE_S = 0.015  # the computation's typical median in a run on the reference machine

_N = 2000
_NNZ = 8000


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, _N, _NNZ)
        cols = rng.integers(0, _N, _NNZ)
        self.a = sp.csr_matrix((rng.random(_NNZ), (rows, cols)), shape=(_N, _N))
        self.b = rng.standard_normal((_N, 64))
        self.m = rng.standard_normal((64, 64)) / 8.0
        self.times: list[float] = []
        self.last = time.perf_counter() - EVERY_S

    def _work(self):
        d = {}
        for i in range(16000):
            d[i % 97] = d.get(i % 97, 0) + i
        x = np.ones(_N)
        for _ in range(120):
            x = self.a.T @ x + 1.0
            x /= x.max()
        y = self.b
        for _ in range(4):
            y = np.tanh((self.a @ y) @ self.m)
        return float(x.sum() + y.sum())

    def sample_if_due(self):
        """Time the computation once for each EVERY_S passed since the last time.

        A repetition of several seconds is followed by several timings, so the
        reference samples every stretch of the run about equally.
        """
        due = min(CATCH_UP, int((time.perf_counter() - self.last) / EVERY_S))
        for _ in range(due):
            t0 = time.perf_counter()
            self._work()
            self.last = time.perf_counter()
            self.times.append(self.last - t0)

    def factor(self):
        """REFERENCE_S over the median reference time: > 1 on a faster phase."""
        return REFERENCE_S / statistics.median(self.times)
