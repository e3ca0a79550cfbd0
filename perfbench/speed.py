"""Reference kernel that measures the machine's speed between ops.

On a shared virtual machine the same code runs up to 2x slower for seconds
to minutes at a time.  The benchmark times a fixed kernel between rounds of
ops and divides each round's time by the kernel time around it.  The result
is the round's time on a machine where one kernel call takes ``NOMINAL_S``:
a change to the library moves it, a change of machine speed mostly does not.

The kernel is a weighted Newton step of a five-parameter linear regression,
written here with plain numpy: the kind of work the library does, so that
it slows down with the machine as the library does.  Fast and slow phases
of the machine favour some kinds of work over others (tiny numpy calls gain
more in a fast phase than passes over large arrays), so the kernel comes in
the two sizes the workloads use: many steps at n=200, or one step at
n=100000.  It imports no library code, so no change to the library can
move its time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# seconds one kernel call is defined to take; near its time in the slower
# of the two speeds seen on the 2-vCPU machine the benchmark was defined
# on, so that normalised and wall-clock times read alike there
NOMINAL_S = 0.005

# Newton steps per call, by number of rows; each size takes 5 to 7 ms
STEPS = {200: 120, 100_000: 1}


class Reference:
    def __init__(self, rows: int):
        gen = np.random.default_rng(0)
        self.x = gen.standard_normal((rows, 5))
        self.y = self.x @ np.array([1.0, 2.0, -1.0, 0.5, 0.0]) + gen.standard_normal(rows)
        self.steps = STEPS[rows]
        self.sink = 0.0
        self.block(3)  # first calls pay for allocation and dispatch caches

    def _kernel(self):
        x, y = self.x, self.y
        beta = np.zeros(5)
        for _ in range(self.steps):
            r = y - x @ beta
            w = np.exp(-0.5 * r * r)
            hessian = (x * w[:, None]).T @ x
            beta = beta + np.linalg.solve(hessian + np.eye(5), x.T @ (w * r))
        self.sink = float(beta.sum())

    def block(self, calls: int) -> float:
        """Mean seconds per call over ``calls`` back-to-back kernel calls.
        A round's time adds up its work at whatever speed each moment had,
        so the mean, not the median, is the matching measure when the
        speed flips within a block."""
        start = perf_counter()
        for _ in range(calls):
            self._kernel()
        return (perf_counter() - start) / calls
