"""Spans recorded from outside the program, and the per-layer metrics.

Two sources, both read without changing the program:

* :class:`SpanLog` wraps calls into each layer's public functions in the
  process that owns it (the benchmark worker, or the traced ``repro
  serve`` it starts) and keeps the spans in memory until the run ends;
* :func:`capsule_spans` reads the telemetry capsules ``repro campaign``
  writes by default, which cover the work done inside campaign workers.

Both produce the same span records: ``id``, ``name``, ``parent``, ``run``
(the workload-run id), ``segment`` (``"setup"`` or the unit index),
``start``/``end`` (``time.perf_counter`` seconds), ``cpu_s`` (process CPU
seconds, ``None`` for capsule spans, whose clock is wall time only) and
``attrs``.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

from workloads import LAYER_MAP


class SpanLog:
    """In-memory spans around wrapped calls; one log per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.segment: str | int = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> dict:
        stack = self._stack()
        rec = {
            "name": name, "parent": stack[-1] if stack else None,
            "run": self.run_id, "segment": self.segment, "attrs": attrs,
            "start": time.perf_counter(), "end": None,
            "_cpu0": time.process_time(),
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        rec["cpu_s"] = time.process_time() - rec.pop("_cpu0")
        self._stack().pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call;
        ``after(log, rec, args, result)`` may add attributes from the result."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(self, rec, args, out)
                return out
            finally:
                self.end(rec)

        setattr(owner, attr, wrapper)

    def note(self, name: str, **attrs) -> None:
        """A zero-length span carrying counters."""
        self.end(self.begin(name, **attrs))

    def extend(self, spans: list[dict]) -> None:
        """Adopt spans recorded elsewhere (capsules, the traced server)."""
        with self._lock:
            base = len(self.spans)
            for s in spans:
                s = dict(s, id=s["id"] + base)
                if s["parent"] is not None:
                    s["parent"] += base
                self.spans.append(s)

    def children(self, rec: dict, name: str) -> list[dict]:
        return [s for s in self.spans[rec["id"] + 1:]
                if s["parent"] == rec["id"] and s["name"] == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


# -- wrappers around the layers' public functions ------------------------------


def _after_compile(log, rec, args, out):
    rec["attrs"]["iterations"] = len(log.children(rec, "stg.condense"))


def _after_sim(log, rec, args, out):
    sim = args[0]
    fast = bool(log.children(rec, "kernel.run_fast"))
    compiled = sim.backend == "compiled"
    rec["attrs"].update(
        events=out.stats.total_events,
        memory_bytes=out.memory.total_bytes,
        asked_compiled=compiled or sim.backend_fallback_reason is not None,
        path="compiled_fast" if fast else ("instrumented" if compiled else "interpreted"),
    )


def install_layer_wrappers(log: SpanLog) -> None:
    """Wrap measure, codegen/stg/slicing, kernel and sim entry points."""
    import repro.codegen.pipeline as codegen
    import repro.kernel.lower as lower
    import repro.kernel.runtime as runtime
    import repro.workflow.pipeline as workflow
    from repro.sim.engine import Simulator

    log.wrap(workflow, "measure_wparams", "measure.calibrate")
    log.wrap(workflow, "compile_program", "codegen.compile", _after_compile)
    log.wrap(codegen, "condense", "stg.condense")
    log.wrap(codegen, "slice_program", "slicing.slice")
    log.wrap(codegen, "generate_simplified", "codegen.simplify")
    log.wrap(lower, "lower_program", "kernel.lower")
    log.wrap(runtime, "run_fast", "kernel.run_fast")
    log.wrap(Simulator, "run", "sim.run", _after_sim)


def install_campaign_wrappers(log: SpanLog) -> None:
    """Wrap the journal append and telemetry merge done in the campaign parent."""
    import repro.obs.merge as merge
    from repro.util.atomic_io import AtomicJournal

    log.wrap(AtomicJournal, "append", "campaign.journal_append")
    log.wrap(merge, "write_merged_perfetto", "obs.merge")


def _after_handle_run(log, rec, args, out):
    rec["attrs"]["cached"] = bool(out.get("cached"))


def install_serve_wrappers(log: SpanLog) -> None:
    """Wrap the store, the query handler and context hashing in the server."""
    from repro.api import CampaignRequest
    from repro.serve import SimulationService
    from repro.store import ResultStore

    log.wrap(ResultStore, "get", "store.get")
    log.wrap(ResultStore, "put", "store.put")
    log.wrap(SimulationService, "handle_run", "serve.handle_run", _after_handle_run)
    log.wrap(CampaignRequest, "context_hash", "api.context_hash")


def kernel_counters() -> dict:
    """The kernel layer's own lowering/cache counters (public snapshot)."""
    from repro.kernel.lower import cache_stats

    stats = cache_stats()
    return {k: stats[k] for k in ("cache_hits", "cache_misses", "fallbacks", "warm_loads")}


# -- capsules: spans recorded inside campaign workers ------------------------


def capsule_spans(capsules: list[dict], run_id: str, segment) -> list[dict]:
    """Normalize the spans and kernel counters of campaign telemetry capsules.

    Each capsule's main ``sim.run`` is classified by the kernel counters
    the same capsule carries: the compiled kernel was consulted when a
    lookup was counted, and it ran (through the engine, since telemetry
    is on) unless a fallback was counted.  A compiled run that completed
    without a ``sim.run`` span reached the fast path, which emits none.
    """
    out: list[dict] = []
    for cap in capsules:
        counters: dict[str, float] = {}
        for m in cap.get("metrics", []):
            if m.get("type") == "counter" and m["name"].startswith("kernel_"):
                counters[m["name"]] = counters.get(m["name"], 0) + m["value"]
        consulted = sum(counters.get(f"kernel_{k}", 0)
                        for k in ("cache_hits", "cache_misses", "warm_loads")) > 0
        compiled = consulted and counters.get("kernel_fallbacks", 0) == 0
        spans = cap.get("spans", [])
        ids = {s["sid"]: len(out) + i for i, s in enumerate(spans)}
        names = {s["sid"]: s["name"] for s in spans}
        parents = {s["sid"]: s.get("parent") for s in spans}

        def under_calibration(sid):
            while sid is not None:
                if names.get(sid) == "measure.calibrate":
                    return True
                sid = parents.get(sid)
            return False

        main_sim = False
        for s in spans:
            attrs = dict(s.get("attrs", {}))
            if s["name"] == "sim.run":
                calib = under_calibration(s.get("parent"))
                main_sim = main_sim or not calib
                attrs["path"] = "instrumented" if compiled and not calib else "interpreted"
                attrs["asked_compiled"] = consulted and not calib
            out.append({
                "id": ids[s["sid"]], "name": s["name"],
                "parent": ids.get(s.get("parent")),
                "run": f"{run_id}/{cap['run_id']}", "segment": segment,
                "start": s["host_start"], "end": s["host_end"], "cpu_s": None,
                "attrs": attrs,
            })
        if compiled and not main_sim and cap.get("outcome") == "ok":
            out.append(_synthetic(out, "sim.run", run_id, cap, segment,
                                  path="compiled_fast", asked_compiled=True,
                                  events=cap["stats"]["total_events"]))
        if counters.get("kernel_lowering_seconds"):
            out.append(_synthetic(out, "kernel.lower", run_id, cap, segment,
                                  dur=counters["kernel_lowering_seconds"]))
        out.append(_synthetic(out, "kernel.counters", run_id, cap, segment, **{
            k: counters.get(f"kernel_{k}", 0)
            for k in ("cache_hits", "cache_misses", "fallbacks", "warm_loads")}))
    return out


def _synthetic(out, name, run_id, cap, segment, dur=0.0, **attrs) -> dict:
    return {"id": len(out), "name": name, "parent": None,
            "run": f"{run_id}/{cap['run_id']}", "segment": segment,
            "start": 0.0, "end": dur, "cpu_s": None, "attrs": attrs}


# -- per-layer metrics -----------------------------------------------------------

#: metrics that add up over a run: reported as set-up plus the mean unit
ADDITIVE = {
    "measure.calibrate_s", "measure.calibrations", "codegen.compile_s",
    "stg.condense_s", "slicing.slice_s", "codegen.simplify_s", "kernel.lower_s",
    "kernel.cache_hits", "kernel.cache_misses", "kernel.fallbacks",
    "kernel.warm_loads", "sim.run_cpu_s", "sim.events", "obs.merge_s",
}


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _ms(spans) -> list[float]:
    return [_dur(s) * 1e3 for s in spans]


def _cpu(s: dict) -> float:
    return s["cpu_s"] if s["cpu_s"] is not None else _dur(s)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, max(0, int(q * len(values) + 0.5) - 1))]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every span-derived per-layer metric over *spans* (0 when not exercised)."""
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(_dur(s) for s in by.get(name, []))

    m: dict[str, float] = {}
    m["measure.calibrate_s"] = total("measure.calibrate")
    m["measure.calibrations"] = len(by.get("measure.calibrate", []))
    m["codegen.compile_s"] = total("codegen.compile")
    m["stg.condense_s"] = total("stg.condense")
    m["slicing.slice_s"] = total("slicing.slice")
    m["codegen.simplify_s"] = total("codegen.simplify")
    iters = [s["attrs"]["iterations"] for s in by.get("codegen.compile", [])
             if "iterations" in s["attrs"]]
    m["codegen.fixpoint_iterations"] = statistics.fmean(iters) if iters else 0.0
    m["kernel.lower_s"] = total("kernel.lower")
    for k in ("cache_hits", "cache_misses", "fallbacks", "warm_loads"):
        m[f"kernel.{k}"] = sum(s["attrs"].get(k, 0) for s in by.get("kernel.counters", []))
    sims = by.get("sim.run", [])
    m["sim.run_cpu_s"] = sum(_cpu(s) for s in sims)
    m["sim.events"] = sum(s["attrs"].get("events", 0) for s in sims)
    for path in ("interpreted", "compiled_fast", "instrumented"):
        run = [s for s in sims if s["attrs"].get("path") == path]
        events = sum(s["attrs"].get("events", 0) for s in run)
        m[f"sim.cpu_us_per_event.{path}"] = (
            1e6 * sum(_cpu(s) for s in run) / events if events else 0.0)
    asked = [s for s in sims if s["attrs"].get("asked_compiled")]
    m["sim.fast_path_share"] = (
        sum(1 for s in asked if s["attrs"]["path"] == "compiled_fast") / len(asked)
        if asked else 0.0)
    m["sim.modeled_peak_mb"] = max(
        (s["attrs"].get("memory_bytes", 0) for s in sims), default=0) / 2**20
    cells = [_dur(s) for s in by.get("campaign.run", [])]
    m["campaign.cell_s_p50"] = percentile(cells, 0.5)
    m["campaign.cell_s_p90"] = percentile(cells, 0.9)
    appends = _ms(by.get("campaign.journal_append", []))
    m["campaign.journal_append_ms"] = statistics.fmean(appends) if appends else 0.0
    m["obs.merge_s"] = total("obs.merge")
    m["store.get_ms_p50"] = percentile(_ms(by.get("store.get", [])), 0.5)
    m["store.put_ms_p50"] = percentile(_ms(by.get("store.put", [])), 0.5)
    handled = by.get("serve.handle_run", [])
    m["serve.hit_ms_p50"] = percentile(_ms(s for s in handled if s["attrs"].get("cached")), 0.5)
    misses = _ms(s for s in handled if not s["attrs"].get("cached"))
    m["serve.miss_ms_p50"] = percentile(misses, 0.5)
    m["serve.miss_ms_p90"] = percentile(misses, 0.9)
    hashes = [_dur(s) * 1e6 for s in by.get("api.context_hash", [])]
    m["api.context_hash_us"] = statistics.fmean(hashes) if hashes else 0.0
    return m


def combine(spans: list[dict], unit_gauges: list[dict]) -> dict[str, float]:
    """All per-layer metrics of one traced worker run.

    Spans of the output check are left out.  Additive metrics are the
    set-up segment plus the mean over units;
    percentiles, ratios and per-event costs pool every span; gauges
    measured once per unit (file sizes, store counters) are averaged.
    """
    spans = [s for s in spans if s["segment"] == "setup" or isinstance(s["segment"], int)]
    units = sorted({s["segment"] for s in spans if s["segment"] != "setup"})
    pooled = layer_metrics(spans)
    setup = layer_metrics([s for s in spans if s["segment"] == "setup"])
    per_unit = [layer_metrics([s for s in spans if s["segment"] == u]) for u in units]
    out = {name: 0.0 for name in LAYER_MAP}
    for name, value in pooled.items():
        if name in ADDITIVE:
            value = setup[name] + (
                statistics.fmean(u[name] for u in per_unit) if per_unit else 0.0)
        out[name] = value
    for name in {k for g in unit_gauges for k in g}:
        out[name] = statistics.fmean(g.get(name, 0.0) for g in unit_gauges)
    return out
