"""Campaign features on the compiled fast path, checked against the engine.

Budgets, heartbeats, the flight recorder and telemetry run inside
:func:`repro.kernel.runtime.run_fast`.  Each test runs the interpreted
engine and the compiled fast path under the same feature and compares
what a user sees — results, :class:`BudgetExceededError` partial stats,
deadlock and budget flight dumps — byte for byte.  Only wall-clock
readings (which differ between any two runs) are masked.
"""

import json

import pytest

from repro.apps.sweep3d import build_sweep3d, sweep3d_inputs
from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import clear_cache
from repro.machine import TESTING_MACHINE
from repro.obs import METRICS, TRACER
from repro.sim import (
    FLIGHT,
    HEARTBEAT,
    BudgetExceededError,
    DeadlockError,
    ExecMode,
    Simulator,
)
from repro.sim.heartbeat import DEFAULT_INTERVAL_EVENTS, DEFAULT_MIN_INTERVAL_S
from repro.symbolic import Var

M = TESTING_MACHINE


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_cache()
    yield
    clear_cache()
    FLIGHT.disable()
    FLIGHT.reset()
    HEARTBEAT.disable()
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


def sweep3d(nprocs=8):
    """Sweep3D DE: a comp-block kernel callable, wavefront buckets."""
    return make_factory(build_sweep3d(), sweep3d_inputs(8, 8, 8, nprocs, niter=1))


def nonblocking():
    b = ProgramBuilder("fast_nb", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        b.irecv(source=(myid - 1) % P, nbytes=256, tag=1, handle="hr")
        b.isend(dest=(myid + 1) % P, nbytes=100_000, tag=1, handle="hs")
        b.compute("overlap", work=500 * (myid + 1))
        b.waitall("hr", "hs")
        b.allreduce(nbytes=8, contrib=1, result_var="acc")
    return make_factory(b.build(), {"iters": 4})


def deadlocking():
    b = ProgramBuilder("fast_deadlock")
    b.compute("warm", work=100 * (myid + 1))
    b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
    b.recv(source=(myid + 1) % P, nbytes=64, tag=7)
    return make_factory(b.build(), {})


FACTORIES = [sweep3d, nonblocking]


def run(make, backend, nprocs=8, **kw):
    sim = Simulator(nprocs, make(), M, mode=ExecMode.DE, backend=backend, **kw)
    if backend == "compiled":
        assert sim.engine_reason() is None  # this run takes the fast path
    return sim.run()


def stats_bytes(stats):
    return json.dumps([p.to_dict() for p in stats.procs], sort_keys=True)


def budget_trip(make, backend, **kw):
    with pytest.raises(BudgetExceededError) as info:
        run(make, backend, **kw)
    exc = info.value
    return exc.kind, exc.limit, exc.observed, str(exc), stats_bytes(exc.stats)


def dump_bytes(dump):
    dump = json.loads(json.dumps(dump))
    if dump.get("budget"):
        dump["budget"]["wall_seconds"] = None  # a wall-clock reading
    return json.dumps(dump, sort_keys=True)


def total_events(make, nprocs=8):
    return run(make, "interpreted", nprocs).stats.total_events


class TestMaxEvents:
    @pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
    def test_partial_stats_identical_at_every_cut(self, make):
        total = total_events(make)
        # cuts inside priming, mid-bucket, and near the end
        for limit in (1, 3, 8, 9, 17, 50, 123, total // 3, total // 2):
            engine = budget_trip(make, "interpreted", max_events=limit)
            fast = budget_trip(make, "compiled", max_events=limit)
            assert fast == engine, limit

    def test_untripped_budget_leaves_results_alone(self):
        bare = run(sweep3d, "compiled")
        budgeted = run(sweep3d, "compiled", max_events=10**9)
        assert stats_bytes(budgeted.stats) == stats_bytes(bare.stats)


class TestMaxVirtualTime:
    @pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
    def test_partial_stats_identical(self, make):
        elapsed = run(make, "interpreted").elapsed
        for frac in (1e-9, 0.1, 0.37, 0.5, 0.99):
            engine = budget_trip(make, "interpreted", max_virtual_time=elapsed * frac)
            fast = budget_trip(make, "compiled", max_virtual_time=elapsed * frac)
            assert fast == engine, frac

    def test_both_limits_trip_events_first(self):
        elapsed = run(sweep3d, "interpreted").elapsed
        kw = dict(max_events=40, max_virtual_time=elapsed * 0.5)
        assert budget_trip(sweep3d, "compiled", **kw) == budget_trip(
            sweep3d, "interpreted", **kw)


class TestWallBudget:
    def test_generous_budget_identical_results(self):
        engine = run(sweep3d, "interpreted", max_wall_seconds=600.0)
        fast = run(sweep3d, "compiled", max_wall_seconds=600.0)
        assert stats_bytes(fast.stats) == stats_bytes(engine.stats)

    def test_tiny_budget_trips_as_wall_time(self):
        with pytest.raises(BudgetExceededError) as info:
            run(sweep3d, "compiled", max_wall_seconds=1e-9)
        assert info.value.kind == "wall_time"
        assert info.value.stats.nprocs == 8


class TestHeartbeat:
    def test_ticks_with_running_event_count(self):
        cursors = []
        HEARTBEAT.configure(cursors.append, interval_events=16, min_interval_s=0.0)
        HEARTBEAT.enable()
        try:
            fast = run(sweep3d, "compiled")
        finally:
            HEARTBEAT.disable()
            HEARTBEAT.configure(None, interval_events=DEFAULT_INTERVAL_EVENTS,
                                min_interval_s=DEFAULT_MIN_INTERVAL_S)
        bare = run(sweep3d, "compiled")
        assert stats_bytes(fast.stats) == stats_bytes(bare.stats)
        assert len(cursors) > 3
        counts = [c["events"] for c in cursors]
        assert counts == sorted(counts)
        times = [c["virtual_time"] for c in cursors]
        assert times == sorted(times)
        assert counts[0] >= 16  # the stride gates the first cursor


class TestFlight:
    def _ring(self, make, backend, **kw):
        FLIGHT.enable()
        try:
            result = run(make, backend, **kw)
            return stats_bytes(result.stats), FLIGHT.events, FLIGHT.events_seen
        finally:
            FLIGHT.disable()

    @pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__)
    def test_ring_identical(self, make):
        assert self._ring(make, "compiled") == self._ring(make, "interpreted")

    def test_deadlock_dump_identical(self):
        dumps = []
        for backend in ("interpreted", "compiled"):
            FLIGHT.enable()
            with pytest.raises(DeadlockError) as info:
                run(deadlocking, backend, max_events=10**6)
            FLIGHT.disable()
            assert info.value.flight is not None
            dumps.append((str(info.value), dump_bytes(info.value.flight)))
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("limit", [5, 60, 200])
    def test_budget_dump_identical(self, limit):
        dumps = []
        for backend in ("interpreted", "compiled"):
            FLIGHT.enable()
            with pytest.raises(BudgetExceededError) as info:
                run(sweep3d, backend, max_events=limit)
            FLIGHT.disable()
            exc = info.value
            dumps.append((stats_bytes(exc.stats), dump_bytes(exc.flight)))
        assert dumps[0] == dumps[1]


    def test_error_mid_run_dump_identical(self):
        # an exception inside a bucket still counts that bucket's records
        b = ProgramBuilder("fast_bad_dest")
        b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
        b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
        b.send(dest=myid + P * (myid // 5), nbytes=64, tag=1)
        b.recv(source=myid, nbytes=64, tag=1)
        program = b.build()
        make = lambda: make_factory(program, {})  # noqa: E731
        dumps = []
        for backend in ("interpreted", "compiled"):
            FLIGHT.enable()
            try:
                run(make, backend)
            except ValueError as exc:
                # dumped while the failing frame is alive, as a campaign does
                assert "nonexistent rank" in str(exc)
                dumps.append(dump_bytes(FLIGHT.dump(error=str(exc))))
            FLIGHT.disable()
        assert len(dumps) == 2
        assert dumps[0] == dumps[1]


class TestTelemetry:
    def _observe(self, backend):
        TRACER.enable()
        METRICS.enable()
        try:
            result = run(nonblocking, backend)
        finally:
            TRACER.disable()
            METRICS.disable()
        (span,) = [s for s in TRACER.spans if s.name == "sim.run"]
        samples = [
            s for s in METRICS.samples() if s["name"].startswith("sim_")
        ]
        return result, span, samples

    def test_same_span_and_metrics(self):
        r_engine, s_engine, m_engine = self._observe("interpreted")
        r_fast, s_fast, m_fast = self._observe("compiled")
        assert stats_bytes(r_fast.stats) == stats_bytes(r_engine.stats)
        assert s_fast.attrs.pop("path") == "fast"
        assert s_engine.attrs.pop("path") == "engine"
        assert s_engine.attrs.pop("engine_reason") == "interpreted backend"
        assert "engine_reason" not in s_fast.attrs
        assert s_fast.attrs == s_engine.attrs
        assert (s_fast.virtual_start, s_fast.virtual_end) == (
            s_engine.virtual_start, s_engine.virtual_end)
        assert json.dumps(m_fast, sort_keys=True) == json.dumps(m_engine, sort_keys=True)

    def test_engine_reason_names_the_feature(self):
        sim = Simulator(4, nonblocking(), M, mode=ExecMode.MEASURED, backend="compiled")
        assert sim.engine_reason().startswith("MEASURED")
        sim = Simulator(4, nonblocking(), M, backend="compiled", collect_trace=True)
        assert sim.engine_reason() == "collect_trace"
        sim = Simulator(4, nonblocking(), M, backend="compiled", default_timeout=1.0)
        assert sim.engine_reason() == "default_timeout"
