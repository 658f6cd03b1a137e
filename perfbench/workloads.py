"""Workload records: what each workload runs, why, and which layers it loads.

This module is plain data plus the seeded input generators.  It imports
nothing from ``repro`` so ``run.py`` can read it without paying the
simulator's import.

Every input derives from the benchmark's ``--seed``.  The seed picks one
of ``VARIANTS`` input variants (``seed % VARIANTS``); ``reference.json``
holds the exact expected outputs of every variant, recorded by
``record_reference.py``.  ``serve_mix`` additionally draws its whole
query sequence from the full seed; its oracle is recomputed in-process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: number of distinct seeded input variants with a recorded reference
VARIANTS = 8

# -- sweep3d_am_10k / sweep3d_am_10k_auto --------------------------------------
#: target processors of the paper's headline scale (Figs. 15-16)
SWEEP_NPROCS = 10_000
#: ``sweep3d_per_proc_inputs`` arguments: 4x4x255 cells per rank, 833,600 events
SWEEP_PER_PROC = dict(it=4, jt=4, kt=255, kb=2, ab=1, niter=1)
#: calibration exactly as ``benchmarks/conftest.py``: a 150^3 grid on 16 ranks
SWEEP_CALIB = dict(itg=150, jtg=150, kt=150, nprocs=16, kb=4, ab=2, mmi=3, niter=2)
#: warm-up run done during set-up (lowers the kernel on ``backend="auto"``)
SWEEP_WARMUP_NPROCS = 16

# -- campaign_grid ----------------------------------------------------------------
CAMPAIGN_JOBS = 2
CAMPAIGN_APPS = ["sweep3d", "nas_sp", "tomcatv", "sample_wavefront"]
CAMPAIGN_MODES = ["measured", "de", "am"]
CAMPAIGN_NPROCS = [16, 64, 256]
#: the paper's bound on AM prediction error (Sec. 5)
AM_ERROR_BOUND_PCT = 17.0

# -- serve_mix --------------------------------------------------------------------
SERVE_APPS = CAMPAIGN_APPS
SERVE_MODES = CAMPAIGN_MODES
SERVE_NPROCS = CAMPAIGN_NPROCS
#: closed-loop queries per fresh store (one unit of work)
SERVE_QUERIES = 150


def variant(seed: int) -> int:
    """The input variant a benchmark seed selects."""
    return seed % VARIANTS


def campaign_grid(seed: int) -> dict:
    """The campaign grid, as ``repro campaign --grid`` reads it."""
    return {
        "name": "perfbench",
        "apps": CAMPAIGN_APPS,
        "modes": CAMPAIGN_MODES,
        "nprocs": CAMPAIGN_NPROCS,
        "seed": variant(seed),
        "budgets": {"max_wall_seconds": 300},
    }


def serve_requests(seed: int) -> list[dict]:
    """The 36 distinct what-if queries: 4 apps x 3 modes x 3 nprocs."""
    return [
        {"app": app, "mode": mode, "nprocs": nprocs, "seed": variant(seed)}
        for app in SERVE_APPS for mode in SERVE_MODES for nprocs in SERVE_NPROCS
    ]


def serve_sequence(seed: int, n: int = SERVE_QUERIES) -> list[int]:
    """Indexes into :func:`serve_requests`, in query order.

    Every request is asked at least once, so the set of cache misses —
    which dominates the cost — is the same for every seed; the other
    queries follow a seeded Zipf(1) popularity over a seeded permutation,
    so a few requests dominate and repeat.  The order is shuffled."""
    rng = random.Random(seed)
    order = list(range(len(SERVE_APPS) * len(SERVE_MODES) * len(SERVE_NPROCS)))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) for rank in range(len(order))]
    sequence = order + rng.choices(order, weights=weights, k=n - len(order))
    rng.shuffle(sequence)
    return sequence


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]  # layers on this workload's critical path
    bypasses: tuple[str, ...]  # layers it deliberately does not reach
    ops: str  # what one counted operation is (attempted/failed)
    #: units per run at least, so every time metric is a best-of-N; short
    #: units get more, since host slow phases last longer than one unit
    min_units: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep3d_am_10k",
            "Paper headline scale (10,000 ranks) on the default backend; "
            "the interpreted event loop does over 90% of the work.",
            loads=("startup", "measure", "codegen", "stg", "slicing", "sim (interpreted)"),
            bypasses=("kernel", "workflow.campaign", "supervisor", "obs", "store",
                      "serve", "api"),
            ops="one MPI-SIM-AM run_am at 10,000 ranks",
        ),
        Workload(
            "sweep3d_am_10k_auto",
            "Same inputs with backend=auto: the only workload reaching lowering "
            "and the bare compiled fast path (kernel.runtime.run_fast); its "
            "outputs must equal the interpreted ones bit for bit.",
            loads=("startup", "measure", "codegen", "stg", "slicing", "kernel",
                   "sim (compiled fast path)"),
            bypasses=("workflow.campaign", "supervisor", "obs", "store", "serve", "api"),
            ops="one MPI-SIM-AM run_am at 10,000 ranks",
            min_units=5,
        ),
        Workload(
            "campaign_grid",
            "The configuration users run (ROADMAP aim 3): repro campaign "
            "--jobs 2 --backend auto with supervision and telemetry on; fixed "
            "per-cell costs dominate and the fast path is never reached.",
            loads=("startup", "measure", "codegen", "kernel", "sim (instrumented, interpreted)",
                   "workflow.campaign", "util.atomic_io", "obs", "supervisor"),
            bypasses=("sim (compiled fast path)", "store", "serve", "api"),
            ops="one campaign grid cell",
            min_units=3,
        ),
        Workload(
            "serve_mix",
            "A fresh repro serve store and one closed-loop client sending "
            "skewed /v1/run queries: hits load the store read path, misses "
            "calibrate, simulate and put; the only workload loading store, "
            "serve and api.",
            loads=("startup", "measure", "codegen", "sim (interpreted)", "store", "serve", "api"),
            bypasses=("kernel", "supervisor", "sim (compiled fast path)"),
            ops="one /v1/run query",
        ),
    )
}

#: units of the end-to-end metrics.  The first five are what BENCHMARK.json
#: gates (times in reference-host seconds); the rest are printed where they
#: apply: the raw measured times, the host slowdown they were divided by,
#: and the workload-specific metrics.
E2E_UNITS = {
    "setup_s": "s",
    "run_cpu_s": "s",
    "run_wall_s": "s",
    "events_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "raw_setup_s": "s",
    "raw_run_cpu_s": "s",
    "raw_run_wall_s": "s",
    "host_slowdown": "ratio",
    "failed_frac": "ratio",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "am_max_err_pct": "%",
}

ALL = tuple(WORKLOADS)
S10K = ("sweep3d_am_10k", "sweep3d_am_10k_auto")
CAMP = ("campaign_grid",)
SERVE = ("serve_mix",)

#: per-layer metric -> (unit, [(end-to-end metric, workloads)...]) — the
#: prediction, fixed in advance, of which user-visible number each layer
#: should move and where.  A later change names its claim from this map.
LAYER_MAP: dict[str, tuple[str, list[tuple[str, tuple[str, ...]]]]] = {}


def _layer(names, unit, moves):
    for name in names:
        LAYER_MAP[name] = (unit, moves)


_layer(["startup.import_s", "startup.fitting_import_s"], "s",
       [("setup_s", ALL), ("run_cpu_s", CAMP)])
_MEASURE_MOVES = [("setup_s", S10K), ("run_cpu_s", CAMP), ("query_p90_ms", SERVE)]
_layer(["measure.calibrate_s"], "s", _MEASURE_MOVES)
_layer(["measure.calibrations"], "count", _MEASURE_MOVES)
_layer(["codegen.compile_s", "stg.condense_s", "slicing.slice_s", "codegen.simplify_s"],
       "s", _MEASURE_MOVES)
_layer(["codegen.fixpoint_iterations"], "count", _MEASURE_MOVES)
_KERNEL_MOVES = [("setup_s", ("sweep3d_am_10k_auto",)),
                 ("run_cpu_s", ("sweep3d_am_10k_auto",) + CAMP)]
_layer(["kernel.lower_s"], "s", _KERNEL_MOVES)
_layer(["kernel.cache_hits", "kernel.cache_misses", "kernel.fallbacks",
        "kernel.warm_loads"], "count", _KERNEL_MOVES)
_SIM_MOVES = [("events_per_cpu_s", S10K), ("run_cpu_s", S10K + CAMP),
              ("peak_rss_mb", S10K), ("query_p90_ms", SERVE)]
_layer(["sim.run_cpu_s"], "s", _SIM_MOVES)
_layer(["sim.events"], "count", _SIM_MOVES)
_layer(["sim.cpu_us_per_event.interpreted", "sim.cpu_us_per_event.compiled_fast",
        "sim.cpu_us_per_event.instrumented"], "us", _SIM_MOVES)
_layer(["sim.fast_path_share"], "ratio", _SIM_MOVES)
_layer(["sim.modeled_peak_mb"], "MB", [("peak_rss_mb", S10K)])
_CAMPAIGN_MOVES = [("run_wall_s", CAMP), ("run_cpu_s", CAMP)]
_layer(["campaign.cell_s_p50", "campaign.cell_s_p90"], "s", _CAMPAIGN_MOVES)
_layer(["campaign.journal_append_ms"], "ms", _CAMPAIGN_MOVES)
_layer(["campaign.journal_bytes", "obs.telemetry_bytes"], "bytes", _CAMPAIGN_MOVES)
_layer(["obs.merge_s"], "s", _CAMPAIGN_MOVES)
_SUPERVISOR_MOVES = [("run_wall_s", CAMP), ("failed_frac", CAMP)]
_layer(["supervisor.busy_frac"], "ratio", _SUPERVISOR_MOVES)
_layer(["supervisor.quarantined"], "count", _SUPERVISOR_MOVES)
_layer(["store.get_ms_p50"], "ms", [("query_p50_ms", SERVE)])
_layer(["store.put_ms_p50"], "ms", [("query_p90_ms", SERVE)])
_layer(["store.hit_ratio"], "ratio", [("query_p50_ms", SERVE)])
_layer(["store.bytes"], "bytes", [("query_p50_ms", SERVE)])
_layer(["store.warm_calibrations"], "count", [("query_p90_ms", SERVE)])
_layer(["serve.hit_ms_p50"], "ms", [("query_p50_ms", SERVE)])
_layer(["serve.miss_ms_p50", "serve.miss_ms_p90"], "ms", [("query_p90_ms", SERVE)])
_layer(["serve.executed_events"], "count", [("query_p90_ms", SERVE)])
_layer(["serve.rejected"], "count", [("failed_frac", SERVE)])
_layer(["api.context_hash_us"], "us", [("query_p50_ms", SERVE)])
_layer(["trace.overhead_cpu_s"], "s", [("run_cpu_s", ALL)])
_layer(["code.src_lines"], "count", [])
