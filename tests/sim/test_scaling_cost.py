"""Host cost per event must not grow with the world size.

Every rank's arrival at a world collective is one engine event.  If an
arrival costs O(P) — say, by materializing the member list to take its
length — the cost per event grows linearly with P and a run's cost
quadratically: at 10,000 ranks that dominated Sweep3D AM.  This test
times the same program at two world sizes 16x apart and bounds the
growth of the per-event CPU cost.
"""

import time

from repro import mpi
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator

SMALL, LARGE = 512, 8192
#: on a 2-vCPU container, O(1) arrivals measure 1.2-1.5x (cache effects
#: of a larger world) and O(P) arrivals about 10x
MAX_GROWTH = 3.0


def _allreduces(rank, size):
    for _ in range(4):
        yield mpi.allreduce(nbytes=8)


def _cpu_us_per_event(nprocs: int, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        sim = Simulator(nprocs, _allreduces, TESTING_MACHINE, mode=ExecMode.DE)
        t0 = time.process_time()
        result = sim.run()
        cpu = time.process_time() - t0
        best = min(best, cpu * 1e6 / result.stats.total_events)
    return best


def test_world_collective_cost_per_event_is_flat_in_p():
    small = _cpu_us_per_event(SMALL)
    large = _cpu_us_per_event(LARGE)
    assert large <= MAX_GROWTH * small, (
        f"cost per event grew {large / small:.1f}x from P={SMALL} "
        f"({small:.2f} us) to P={LARGE} ({large:.2f} us)"
    )
