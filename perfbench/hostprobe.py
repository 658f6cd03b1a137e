"""Time a fixed pure-Python loop shaped like the simulator's event loop.

    python3 perfbench/hostprobe.py      # prints the loop's CPU seconds

The loop never changes and uses no ``repro`` code, so its time measures
only how fast the host runs Python right now.  ``worker.py`` runs it in
a fresh process, so the probe's memory never counts toward a workload's
peak RSS.
"""

from __future__ import annotations

import heapq
import time


class _Proc:
    __slots__ = ("clock", "rank", "events")

    def __init__(self, rank: int):
        self.clock, self.rank, self.events = 0.0, rank, 0


def probe() -> float:
    """CPU seconds of one pass: heap, dict, small objects, a 400k table."""
    c0 = time.process_time()
    procs = [_Proc(r) for r in range(4096)]
    table = list(range(400_000))
    heap: list = []
    counts: dict[int, int] = {}
    x = 12345
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        p = procs[x & 4095]
        p.clock += (x % 97) * 1e-6
        p.events += 1
        heapq.heappush(heap, (p.clock, i, p.rank))
        counts[p.rank] = counts.get(p.rank, 0) + table[x % 400_000] % 7
        if len(heap) > 2048:
            heapq.heappop(heap)
    return time.process_time() - c0


if __name__ == "__main__":
    print(probe())
