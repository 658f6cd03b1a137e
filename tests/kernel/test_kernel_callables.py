"""Comp blocks carrying a Python ``kernel(env, arrays)`` callable.

The compiled backend lowers them when the callable is an importable
module-level function: the generated code re-imports it by
``module:qualname`` and hands it a dict holding exactly the scalars the
interpreter's ``env`` holds at that point.  Everything else falls back
with a reason.
"""

import json

import pytest

from repro.ir import make_factory
from repro.ir.builder import P, ProgramBuilder, myid
from repro.kernel import (
    UnsupportedConstructError,
    cache_stats,
    clear_cache,
    kernel_for,
    lower_program,
    program_fingerprint,
    set_warm_dir,
)
from repro.machine import TESTING_MACHINE
from repro.sim import ExecMode, Simulator
from repro.symbolic import Gt, Var

M = TESTING_MACHINE

#: env snapshots the probe kernel takes, in call order
SEEN: list = []


def probe(env, arrays):
    """Snapshot the env, then write a branch flag and a fresh scalar."""
    SEEN.append(sorted(env.items()))
    env["flag"] = env["i"] % 2  # uniform across ranks: the ring stays matched
    env["note"] = env.get("note", 0) + 1
    arrays.setdefault("calls", 0)


def other_probe(env, arrays):
    env["flag"] = 1


@pytest.fixture(autouse=True)
def _fresh():
    clear_cache()
    set_warm_dir(None)
    SEEN.clear()
    yield
    clear_cache()
    set_warm_dir(None)


def program(kernel=probe):
    b = ProgramBuilder("pyk", params=("iters",))
    with b.loop("i", 1, Var("iters")):
        with b.if_(Gt(Var("i"), 1)):
            b.assign("late", Var("i") * 10)  # bound only from iteration 2
        b.compute("stage", work=100 * (myid + 1), writes={"flag"}, kernel=kernel)
        with b.if_(Gt(Var("flag"), 0), data_dependent=True):
            b.compute("fix", work=30)
            b.send(dest=(myid + 1) % P, nbytes=64, tag=0)
            b.recv(source=(myid - 1) % P, nbytes=64, tag=0)
        b.allreduce(nbytes=8, contrib=Var("i"), result_var="acc", reduce_kind="sum")
        b.assign("after", Var("acc") * 2)
    return b.build()


def closure_program():
    def local_kernel(env, arrays):
        env["flag"] = 0

    return program(local_kernel)


def run(prog, backend, mode=ExecMode.DE, **kw):
    # extra input keys reach the env too, as dict(inputs) does
    factory = make_factory(prog, {"iters": 3, "unused": 7})
    sim = Simulator(4, factory, M, mode=mode, backend=backend, **kw)
    result = sim.run()
    return sim, json.dumps([p.to_dict() for p in result.stats.procs], sort_keys=True)


class TestLowering:
    @pytest.mark.parametrize("kw", [{}, {"collect_trace": True}], ids=["fast", "engine"])
    def test_env_and_results_match_interpreter(self, kw):
        _, ref = run(program(), "interpreted", **kw)
        interp_seen = list(SEEN)
        SEEN.clear()
        sim, got = run(program(), "compiled", **kw)
        assert sim.backend == "compiled"
        assert got == ref
        assert SEEN == interp_seen
        keys = {k for snap in interp_seen for k, _ in snap}
        assert {"unused", "late", "after", "note", "acc"} <= keys

    def test_measured_mode_matches(self):
        _, ref = run(program(), "interpreted", mode=ExecMode.MEASURED)
        _, got = run(program(), "compiled", mode=ExecMode.MEASURED)
        assert got == ref

    def test_sweep3d_lowers(self):
        from repro.apps.sweep3d import build_sweep3d

        kernel = lower_program(build_sweep3d())
        assert "_kref('repro.apps.sweep3d', '_fixup_probe')" in kernel.source


class TestFingerprint:
    def test_changes_with_only_the_callable(self):
        assert program_fingerprint(program(probe)) != program_fingerprint(
            program(other_probe))

    def test_same_callable_same_fingerprint(self):
        assert program_fingerprint(program()) == program_fingerprint(program())


class TestFallback:
    @pytest.mark.parametrize("make", [
        lambda: program(lambda env, arrays: None),
        closure_program,
    ], ids=["lambda", "closure"])
    def test_falls_back_with_reason(self, make):
        with pytest.raises(UnsupportedConstructError, match="lambda or closure"):
            lower_program(make())
        sim = Simulator(4, make_factory(make(), {"iters": 1}), M, backend="auto")
        assert sim.backend == "interpreted"
        assert "lambda or closure" in sim.backend_fallback_reason
        assert "lambda or closure" in sim.engine_reason()
        assert cache_stats()["fallback_reason"] == sim.backend_fallback_reason


class TestWarmReload:
    def test_reload_imports_the_callable(self, tmp_path):
        set_warm_dir(tmp_path)
        kernel = kernel_for(program())
        clear_cache()
        set_warm_dir(tmp_path)
        warm = kernel_for(program())
        assert warm.fingerprint == kernel.fingerprint
        assert cache_stats()["warm_loads"] == 1 and cache_stats()["lowered"] == 0
        _, ref = run(program(), "interpreted")
        _, got = run(program(), "compiled")
        assert got == ref

    def test_unimportable_callable_loads_cold(self, tmp_path):
        set_warm_dir(tmp_path)
        kernel = kernel_for(program())
        path = tmp_path / f"kernel-{kernel.fingerprint}.json"
        doc = json.loads(path.read_text())
        doc["source"] = doc["source"].replace(
            f"_kref({__name__!r}, 'probe')", "_kref('no_such_module_xyz', 'probe')")
        assert doc["source"] != kernel.source
        path.write_text(json.dumps(doc))
        clear_cache()
        set_warm_dir(tmp_path)
        kernel_for(program())
        stats = cache_stats()
        assert stats["warm_loads"] == 0 and stats["lowered"] == 1
