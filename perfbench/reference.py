"""A fixed pure-Python task that gauges how fast the machine runs Python right now.

On a host shared with other tenants the same op can take 50% longer from one
minute to the next.  The benchmark times this task next to the ops it
measures and scales their times by ``REF_S / (time of this task)``, so a
reported time reads as seconds on a machine where the task takes ``REF_S``.
The task does the kinds of work the package does: elimination on wide Python
integers, building and joining text, and filling dicts of small tuples.  It
never changes, so a change to the package shows in the scaled times.
"""

from __future__ import annotations

import random
import time

REF_S = 0.008  # a round figure near the task's time on a 2-vCPU x86-64 VM, Python 3.11


def task() -> int:
    rng = random.Random(20181027)
    n, k = 200, 200
    rows = [rng.getrandbits(k) for _ in range(n)]
    rank = 0
    for c in range(k):
        bit = 1 << c
        p = next((i for i in range(rank, n) if rows[i] & bit), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(n):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    text = "\n".join(" ".join(str((r >> j) & 1) for j in range(0, k, 4)) for r in rows)
    table = {}
    for i, line in enumerate(text.splitlines()):
        table[line[:12], i % 7] = (i, len(line))
    return rank + len(table)


def measure(runs: int = 3) -> float:
    """Seconds ``task`` takes now: the fastest of a few back-to-back runs.

    The first run after other work is often slow (cold caches, a lower
    clock); the minimum reads the machine's speed, not that transient.
    """
    best = float("inf")
    for _ in range(runs):
        t = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - t)
    return best
