"""The control command of cli-batch: fixed work in the shape of ``termcoder annotate``.

    python3 perfbench/control.py

A fresh interpreter maps the reference grid of ``hostclock`` over 150 items
in a thread pool of ``os.cpu_count()`` workers, as ``termcoder annotate``
maps its lines at the command defaults. Its work does not depend on the
program, so the ratio of the annotate commands' wall time to that of the
controls run beside them cancels what the host does to both: its speed,
and the cost of handing the interpreter lock between vCPUs under
contention. Exits 1 if the grid returns a wrong distance.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor

from hostclock import new_rows, ref_loop

ITEMS = 150
REPS = 130
DISTANCE = 4  # edit distance of the grid's two strings


def item(_: int) -> int:
    return ref_loop(REPS, new_rows())


def main() -> int:
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        totals = list(pool.map(item, range(ITEMS)))
    return 0 if totals == [REPS * DISTANCE] * ITEMS else 1


if __name__ == "__main__":
    sys.exit(main())
