"""Fixed reference loops that track the machine's speed during a run.

The 2-vCPU VM the benchmark was built on alternates between its usual
speed and phases up to 1.9 times faster, lasting from seconds to minutes.
The program follows those phases, so two sets of runs of the same commit
can disagree by more than any useful bound.  The benchmark therefore runs
these loops in the gaps between the timed steps, for about a tenth of the
timed time, and reports times rescaled to the speed at which each loop
takes its nominal time: a phase that makes the program faster makes the
loop of the same kind of work faster by about as much, and the two cancel.

Both sides are means, not medians.  A run that spends part of its time in
a fast phase has bimodal times, and their median jumps from one mode to the
other as that part passes one half; the mean moves in proportion to it, on
both sides alike, so the ratio stays put.

There are two loops, because the phases move interpreter-bound code more
than small dense numpy operations.  Over a 5-minute window in which both
moved by 1.5-1.9x, the log-time of an ``align`` round followed the Python
loop with a slope of 0.83, and a ``DenoiserModel.forward`` followed the
numpy loop with a slope of 0.99.  The loops are the benchmark's own code,
so a change to the program cannot make them faster or slower.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.1  # loop time per timed time

_WORDS = [[(k * 7 + j * 3) % 11 for j in range(12)] for k in range(192)]
_ROWS = np.random.default_rng(0).standard_normal((16, 128))
_WEIGHTS = np.random.default_rng(1).standard_normal((128, 128))


def python_loop() -> int:
    """LCS tables over fixed word lists: list indexing, compares, small lists."""
    total = 0
    for k in range(len(_WORDS) - 1):
        a, b = _WORDS[k], _WORDS[k + 1]
        prev = [0] * (len(b) + 1)
        for x in a:
            cur = [0]
            for j, y in enumerate(b):
                cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
            prev = cur
        total += prev[-1]
    return total


def numpy_loop() -> float:
    """Small matrix products of the model's width, as in one forward."""
    total = 0.0
    for _ in range(600):
        total += float((_ROWS @ _WEIGHTS).sum())
    return total


# each loop with its mean time on the reference VM in its usual phase
LOOPS = {"python": (python_loop, 0.0105), "numpy": (numpy_loop, 0.012)}


class Pace:
    """Samples of both loops, taken so that they keep up with the timed time."""

    def __init__(self):
        self.times: dict[str, list[float]] = {name: [] for name in LOOPS}
        self.spent = 0.0

    def catch_up(self, timed_s: float) -> None:
        """Run the loops in turn until they have taken ``SHARE`` of ``timed_s``."""
        while self.spent < SHARE * timed_s or not all(self.times.values()):
            for name, (loop, _) in LOOPS.items():
                t0 = time.perf_counter()
                loop()
                dt = time.perf_counter() - t0
                self.times[name].append(dt)
                self.spent += dt

    def speed(self, kind: str) -> float:
        """How much faster than nominal the ``kind`` loop ran: >1 in a fast phase."""
        return LOOPS[kind][1] / statistics.fmean(self.times[kind])
