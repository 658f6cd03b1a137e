"""Parallel run executor: fan independent simulation runs across processes.

The simulation kernel is single-threaded by design (one global event
heap), but the *experiments* built on top of it are embarrassingly
parallel: validation-sweep points and repeated calibration runs share
nothing except read-only configuration.  This module fans such
independent runs across a ``ProcessPoolExecutor``; campaign grid cells
go through the supervised pool in :mod:`repro.workflow.supervisor`,
which shares :func:`_quiet_worker` with it.

Design rules (the determinism contract, see docs/robustness.md):

* **Workers rebuild, parents aggregate.**  Programs are not picklable
  (``nas_sp`` closes over numpy state), so a worker never receives live
  objects — it receives the *recipe* (:class:`WorkflowSpec`) and
  rebuilds its own workflow once per process, caching it in a module
  global.
* **Completion order never shapes results.**  Parents derive every
  artifact (validation series, calibration lists) in *spec order*, so
  ``--jobs 4`` output is byte-identical to ``--jobs 1``.
* **Every run is seeded by its spec, not by execution order.**  The
  engine is deterministic under a fixed seed, so the same cell computes
  the same record no matter which worker runs it, or when.
* **Workers ignore SIGINT.**  Only the parent traps signals; it cancels
  pending work and leaves the journal a consistent prefix.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

__all__ = [
    "resolve_jobs",
    "WorkflowSpec",
    "run_validation_points",
    "calibrate_many",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class WorkflowSpec:
    """Picklable recipe for a :class:`~repro.workflow.ModelingWorkflow`.

    Carries only names and numbers; :meth:`build` resolves them against
    the application registry and machine presets inside the worker.
    """

    app: str
    machine: str
    calib_nprocs: int
    overrides: tuple[tuple[str, float], ...] = ()
    seed: int = 0
    backend: str | None = None  # simulation kernel; results identical either way

    def build(self):
        from ..cli import APPS
        from ..machine import get_machine
        from .pipeline import ModelingWorkflow

        try:
            builder, default_inputs = APPS[self.app]
        except KeyError:
            raise ValueError(f"unknown app {self.app!r}") from None
        calib = default_inputs(self.calib_nprocs)
        calib.update(dict(self.overrides))
        return ModelingWorkflow(
            builder(), get_machine(self.machine),
            calib_inputs=calib, calib_nprocs=self.calib_nprocs, seed=self.seed,
            backend=self.backend,
        )


# -- worker-process state ------------------------------------------------------
# One rebuild per worker process, then reuse: the calibration and the
# compiled program are the expensive parts, and they are pure functions
# of the recipe, so caching them per process cannot change results.

_STATE: dict = {}


def _quiet_worker() -> None:
    """Common worker setup: leave interrupts to the parent, and do not
    accumulate observability state nobody will ever collect."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    from ..obs.metrics import METRICS
    from ..obs.spans import TRACER

    TRACER.disable()
    METRICS.disable()


def _workflow_init(spec: WorkflowSpec) -> None:
    _quiet_worker()
    _STATE["workflow"] = spec.build()


def _validation_point(i: int, inputs: dict, nprocs: int,
                      include_de: bool, label: str):
    from .validation import _run_point

    return _run_point(_STATE["workflow"], i, inputs, nprocs, include_de, label)


def _calibration_run(seed: int) -> dict:
    from ..measure import measure_wparams

    wf = _STATE["workflow"]
    cal = measure_wparams(
        wf.program, wf.calib_inputs, wf.calib_nprocs, wf.machine, seed
    )
    # BranchProfile is process-local detail; ship only the numbers
    return {"seed": seed, "wparams": cal.wparams, "elapsed": cal.elapsed}


# -- parent-side drivers -------------------------------------------------------


def run_validation_points(spec: WorkflowSpec, configs, include_de,
                          labels, jobs: int):
    """All three estimators per config, fanned across workers.

    Returns points in **config order** regardless of completion order;
    each point's seed derives from its index (``seed + 101 + i``), so a
    point computes identically wherever it runs.
    """
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(configs)),
        initializer=_workflow_init, initargs=(spec,),
    ) as pool:
        futures = [
            pool.submit(
                _validation_point, i, inputs, nprocs, include_de,
                labels[i] if labels else str(nprocs),
            )
            for i, (inputs, nprocs) in enumerate(configs)
        ]
        return [f.result() for f in futures]


def calibrate_many(spec: WorkflowSpec, seeds, jobs: int | None = None) -> list[dict]:
    """Repeat the calibration run under different measurement seeds.

    Calibration repetitions quantify the w_i measurement noise the paper
    discusses in Sec. 4.2; each repetition is independent, so they fan
    out like any other sweep.  Returns one
    ``{"seed", "wparams", "elapsed"}`` dict per seed, in seed order.
    """
    seeds = list(seeds)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(seeds) <= 1:
        _workflow_init_local = spec.build()
        from ..measure import measure_wparams

        out = []
        for seed in seeds:
            cal = measure_wparams(
                _workflow_init_local.program, _workflow_init_local.calib_inputs,
                _workflow_init_local.calib_nprocs, _workflow_init_local.machine, seed,
            )
            out.append({"seed": seed, "wparams": cal.wparams, "elapsed": cal.elapsed})
        return out
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(seeds)),
        initializer=_workflow_init, initargs=(spec,),
    ) as pool:
        futures = [pool.submit(_calibration_run, seed) for seed in seeds]
        return [f.result() for f in futures]
