"""Host-normalised timing.

The host is shared, and a fixed pure-Python loop runs anywhere from 0.65x
to 1.3x its usual time within a minute. A timing taken alone cannot carry
a 10% bound there. So a fixed reference loop, which allocates no
containers, runs between timed slices of about 50 ms, and every gated
timing is rescaled to the nominal reference speed below:

    normalised = raw * NOMINAL_REF_S / reference_time

where reference_time is the mean of the reference samples taken just
before and just after the slice. A set-up uses the median of the ten
samples before it and the ten after it instead: two samples track a
single timing loosely. Raw figures are kept alongside.
"""

from __future__ import annotations

import statistics
import time

# The reference is an edit-distance grid over two fixed strings, written
# into rows allocated once here, so it allocates nothing while it runs. It
# exercises what the matcher does (indexing, character compares, small-int
# arithmetic); on the 2-core host it tracked the drift of a fuzzy
# annotate loop about twice as closely as a bare integer loop.
_A = "abcdefghijkl"
_B = "abdcefgihjkl"


def new_rows() -> tuple[list[int], list[int]]:
    return [0] * (len(_B) + 1), [0] * (len(_B) + 1)


_ROWS = new_rows()
REF_REPS = 100
# Median reference time on the host the README's figures come from
# (2 cores, CPython 3.11); it fixes the nominal speed.
NOMINAL_REF_S = 0.004


def ref_loop(reps: int = REF_REPS, rows: tuple[list[int], list[int]] = _ROWS) -> int:
    """Runs the grid *reps* times in *rows*; a thread needs rows of its own."""
    a, b = _A, _B
    n, m = len(a), len(b)
    prev, cur = rows
    total = 0
    for _ in range(reps):
        for j in range(m + 1):
            prev[j] = j
        for i in range(1, n + 1):
            ca = a[i - 1]
            cur[0] = i
            for j in range(1, m + 1):
                x = prev[j] + 1
                y = cur[j - 1] + 1
                z = prev[j - 1] + (ca != b[j - 1])
                cur[j] = x if x < y and x < z else (y if y < z else z)
            prev, cur = cur, prev
        total += prev[m]
    return total


def ref_sample() -> float:
    """Wall time of one reference loop."""
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0


class Clock:
    """Rescales slices of raw timings by the reference samples around them."""

    def __init__(self) -> None:
        self.before = ref_sample()
        self.seen = [self.before]

    def rescale(self, raw: list[float]) -> list[float]:
        """Normalised copies of *raw*, timed since the previous call."""
        after = ref_sample()
        self.seen.append(after)
        factor = NOMINAL_REF_S / ((self.before + after) / 2)
        self.before = after
        return [t * factor for t in raw]

    def rescale_one(self, raw: float, samples: int) -> float:
        """*raw*, timed since the previous call, rescaled by the median of
        the last *samples* reference samples before it and *samples* new ones.

        Two samples track a single timing of a set-up loosely.
        """
        before = self.seen[-samples:]
        for _ in range(samples):
            self.rescale([])
        return raw * NOMINAL_REF_S / statistics.median(before + self.seen[-samples:])
