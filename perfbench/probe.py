"""Machine-speed probe, run by ``run.py`` as a process of its own.

    python3 perfbench/probe.py PERIOD_S CPU

On a shared machine the CPU time of the same work drifts by 20-60% between
runs minutes apart and within one run, over seconds, as neighbours load the
host. This probe pins itself to one CPU and times a fixed loop, independent
of nclayer, every PERIOD_S seconds: tiny numpy vector updates, as in the
strategy table's dynamic programme, and short-lived dataclass objects, as in
the chain simulator. Of the kinds of loop tried (also pure-Python arithmetic
and numpy table lookups), these two tracked the speed of both table builds
and run() calls best.

It prints ``ready`` once it has started, samples until its standard input
is closed, and then prints one line per sample: the monotonic-clock time of
the sample's midpoint and the thread CPU seconds the loop took. At
PERIOD_S = 0.1 it keeps about a tenth of its CPU busy.
"""

from __future__ import annotations

import os
import select
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class _Item:
    key: int
    value: int

    def __post_init__(self):
        if self.key < 0:
            raise ValueError(self.key)


def loop(vector) -> float:
    """Thread CPU seconds of one run of the fixed loop."""
    start = time.thread_time()
    f = vector
    for _ in range(3_000):
        step = np.zeros(33)
        step[3:] += 0.5 * f[:30]
        f = step + f
    for k in range(80):
        items = [_Item(i, k) for i in range(64)]
        kept = [x for x in items if (31 * x.key + k) % 10 < 7]
        counts: dict[int, int] = {}
        for x in kept:
            counts[x.key % 4] = counts.get(x.key % 4, 0) + 1
    return time.thread_time() - start


def main() -> int:
    period, cpu = float(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    vector = np.random.default_rng(0).random(33)
    samples = []
    print("ready", flush=True)
    # stdin turns readable when the parent closes it, or exits.
    while not select.select([sys.stdin], [], [], period)[0]:
        start = time.monotonic()
        seconds = loop(vector)
        samples.append((0.5 * (start + time.monotonic()), seconds))
    sys.stdout.write("".join(f"{t!r} {s!r}\n" for t, s in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
