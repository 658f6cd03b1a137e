"""Run one benchmark workload in this fresh process and write what it measured.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
    python3 perfbench/worker.py ... --setup-only        # set-up CPU time only
    python3 perfbench/worker.py --serve-traced FILE --run-id ID --store DIR

``run.py`` starts it from the repository root with ``PYTHONPATH=src`` and
``REPRO_BACKEND`` unset.  The worker sets its workload up, then repeats
units of work until ``--seconds`` of timed work have passed and at
least the workload's ``min_units`` units have run, checks every unit's
outputs exactly, and writes one JSON document to ``--out``.  With
``--trace 1`` it also records spans around the layers (see
``layers.py``), writes them to ``.work/traces/`` and reports the
per-layer metrics.

``--serve-traced`` is the traced ``repro serve``: the same server, with
the layer wrappers installed, dumping its spans to FILE on shutdown.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from layers import (
    SpanLog,
    capsule_spans,
    combine,
    install_campaign_wrappers,
    install_layer_wrappers,
    install_serve_wrappers,
    kernel_counters,
    percentile,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: CPU seconds the host probe takes on the reference host speed; gated
#: times are reported in these reference seconds (see host_probe)
REF_PROBE_S = 0.15
#: probes taken right after set-up (one more follows every unit)
SETUP_PROBES = 3
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 60.0


def digest(doc) -> str:
    """SHA-256 of a document's canonical JSON (floats as exact reprs)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_result_digest(result) -> str:
    """Digest of per-rank SimStats, the MemoryReport and elapsed."""
    mem = result.memory
    return digest({
        "procs": [p.to_dict() for p in result.stats.procs],
        "memory": {"nprocs": mem.nprocs, "app_bytes": mem.app_bytes,
                   "kernel_bytes": mem.kernel_bytes},
        "elapsed": result.elapsed,
    })


def cell_digest(record: dict) -> str:
    """Digest of one journaled campaign cell's elapsed and stats."""
    return digest({"elapsed": record["elapsed"], "stats": record["stats"]})


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def self_and_children_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def proc_cpu(pid: int) -> float:
    """CPU seconds of another live process (and its reaped children)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def host_probe() -> float:
    """CPU seconds of ``hostprobe.py``'s fixed loop, run in a fresh process.

    The loop uses no ``repro`` code, so its time measures only how fast
    the host runs Python right now.  On a shared 2-vCPU container that
    speed swings by about 1.5x in phases of minutes, and every
    workload's CPU time swings with it.
    """
    out = subprocess.run([sys.executable, str(HERE / "hostprobe.py")],
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def proc_hwm_mb(pid: int) -> float:
    """Peak resident memory of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- sweep3d_am_10k / sweep3d_am_10k_auto ---------------------------------------


def sweep_workflow(variant: int, backend: str | None):
    """Sweep3D on the IBM SP, calibrated as ``benchmarks/conftest.py`` does."""
    from repro.apps import build_sweep3d, sweep3d_inputs
    from repro.machine import IBM_SP
    from repro.workflow import ModelingWorkflow

    c = W.SWEEP_CALIB
    return ModelingWorkflow(
        build_sweep3d(), IBM_SP,
        calib_inputs=sweep3d_inputs(c["itg"], c["jtg"], c["kt"], c["nprocs"],
                                    kb=c["kb"], ab=c["ab"], mmi=c["mmi"], niter=c["niter"]),
        calib_nprocs=c["nprocs"], seed=variant, backend=backend,
    )


def sweep_inputs(nprocs: int) -> dict:
    """The fixed per-rank Sweep3D problem at *nprocs* ranks."""
    from repro.apps.sweep3d import sweep3d_per_proc_inputs

    p = W.SWEEP_PER_PROC
    return sweep3d_per_proc_inputs(p["it"], p["jt"], p["kt"], nprocs,
                                   kb=p["kb"], ab=p["ab"], niter=p["niter"])


class Runner:
    """What every workload runner shares; subclasses add setup/unit/check."""

    def __init__(self, args, log, workdir):
        self.args, self.log, self.workdir = args, log, workdir
        self.variant = W.variant(args.seed)
        self.unit_gauges: list[dict] = []  # traced runs: layer gauges per unit

    def peak_rss_mb(self) -> float:
        return rss_mb()

    def extra(self, units) -> dict:
        return {}

    def close(self) -> None:
        pass


class SweepWorkload(Runner):
    """One MPI-SIM-AM Sweep3D run at 10,000 ranks per unit, via ModelingWorkflow."""

    def __init__(self, args, log, workdir, backend):
        super().__init__(args, log, workdir)
        self.backend = backend
        self.digests: list[str] = []

    def setup(self) -> float:
        self.wf = sweep_workflow(self.variant, self.backend)
        self.inputs = sweep_inputs(W.SWEEP_NPROCS)
        self.wf.calibrate()
        self.wf.compiled
        self.wf.run_am(sweep_inputs(W.SWEEP_WARMUP_NPROCS), W.SWEEP_WARMUP_NPROCS)
        if self.log is not None:
            self.log.note("kernel.counters", **kernel_counters())
        return time.process_time()

    def unit(self, index: int) -> dict:
        before = kernel_counters() if self.log is not None else None
        c0, w0 = time.process_time(), time.perf_counter()
        result = self.wf.run_am(self.inputs, W.SWEEP_NPROCS)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if self.log is not None:
            after = kernel_counters()
            self.log.note("kernel.counters", **{k: after[k] - before[k] for k in after})
        self.digests.append(sim_result_digest(result))
        return {"cpu_s": cpu, "wall_s": wall, "events": result.stats.total_events,
                "ops": 1, "failed": 0}

    def check(self, units) -> list[str]:
        ref = load_reference()["sweep3d_am_10k"][str(self.variant)]
        return [
            f"{self.args.workload}: unit {i} result digest {d[:16]} != reference "
            f"{ref[:16]} (variant {self.variant})"
            for i, d in enumerate(self.digests) if d != ref
        ]


# -- campaign_grid ----------------------------------------------------------------


class CampaignWorkload(Runner):
    """The 36-cell paper-app grid, run as ``repro campaign --jobs 2 --backend auto``."""

    def __init__(self, args, log, workdir):
        super().__init__(args, log, workdir)
        self.runs: list[tuple[int, dict[str, dict]]] = []  # (exit code, run_id -> record)

    def setup(self) -> float:
        import repro.cli
        from repro.workflow.campaign import expand_grid

        if self.log is not None:
            install_campaign_wrappers(self.log)
        self.main = repro.cli.main
        grid = W.campaign_grid(self.args.seed)
        self.grid_path = self.workdir / "grid.json"
        self.grid_path.write_text(json.dumps(grid))
        self.specs = expand_grid(grid).specs
        return time.process_time()

    def unit(self, index: int) -> dict:
        out = self.workdir / f"campaign-{index}"
        argv = ["campaign", "--grid", str(self.grid_path), "--out", str(out),
                "--jobs", str(W.CAMPAIGN_JOBS), "--backend", "auto"]
        c0, w0 = self_and_children_cpu(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.main(argv)
        cpu, wall = self_and_children_cpu() - c0, time.perf_counter() - w0
        records: dict[str, dict] = {}
        with open(out / "campaign.journal.jsonl") as fh:
            for line in fh:
                doc = json.loads(line)
                if doc.get("type") == "run":
                    records[doc["run_id"]] = doc  # the latest record wins
        self.runs.append((rc, records))
        ok = [r for r in records.values() if r["outcome"] == "ok"]
        if self.log is not None:
            self._trace_unit(index, out, wall, records)
        return {"cpu_s": cpu, "wall_s": wall,
                "events": sum(r["stats"]["total_events"] for r in ok),
                "ops": len(self.specs), "failed": len(self.specs) - len(ok)}

    def _trace_unit(self, index: int, out: Path, wall: float, records: dict) -> None:
        capsules = []
        with open(out / "telemetry.jsonl") as fh:
            for line in fh:
                doc = json.loads(line)
                if doc.get("type") == "capsule":
                    capsules.append(doc)
        spans = capsule_spans(capsules, self.log.run_id, index)
        self.log.extend(spans)
        cells = sum(s["end"] - s["start"] for s in spans if s["name"] == "campaign.run")
        quarantine = out / "quarantine"
        self.unit_gauges.append({
            "campaign.journal_bytes": (out / "campaign.journal.jsonl").stat().st_size,
            "obs.telemetry_bytes": (out / "telemetry.jsonl").stat().st_size,
            "supervisor.busy_frac": cells / (W.CAMPAIGN_JOBS * wall),
            "supervisor.quarantined": max(
                sum(1 for r in records.values() if r["outcome"] == "poison"),
                len(list(quarantine.iterdir())) if quarantine.is_dir() else 0),
        })

    def check(self, units) -> list[str]:
        name = self.args.workload
        ref = load_reference()["campaign_grid"][str(self.variant)]
        problems = []
        for i, (rc, records) in enumerate(self.runs):
            if rc != 0:
                problems.append(f"{name}: unit {i}: repro campaign exited {rc}")
            for spec in self.specs:
                cell = f"{spec.app}/{spec.mode}/{spec.nprocs}"
                rec = records.get(spec.run_id)
                if rec is None:
                    problems.append(f"{name}: unit {i}: cell {cell} missing from the journal")
                elif rec["outcome"] != "ok":
                    problems.append(f"{name}: unit {i}: cell {cell} ended {rec['outcome']}: "
                                    f"{rec.get('error')}")
                elif cell_digest(rec) != ref.get(spec.run_id):
                    problems.append(f"{name}: unit {i}: cell {cell} elapsed/stats differ "
                                    f"from the reference (variant {self.variant})")
            err = self._am_max_err_pct(records)
            if err is not None and err > W.AM_ERROR_BOUND_PCT:
                problems.append(f"{name}: unit {i}: am_max_err_pct {err} exceeds "
                                f"{W.AM_ERROR_BOUND_PCT}")
        return problems

    def _am_max_err_pct(self, records) -> float | None:
        elapsed = {}
        for spec in self.specs:
            rec = records.get(spec.run_id)
            if rec is None or rec["outcome"] != "ok":
                return None
            elapsed[(spec.app, spec.mode, spec.nprocs)] = rec["elapsed"]
        return max(
            100.0 * abs(elapsed[(a, "am", p)] - elapsed[(a, "measured", p)])
            / elapsed[(a, "measured", p)]
            for a in W.CAMPAIGN_APPS for p in W.CAMPAIGN_NPROCS
        )

    def peak_rss_mb(self) -> float:
        return max(rss_mb(), rss_mb(resource.RUSAGE_CHILDREN))

    def extra(self, units) -> dict:
        errs = [self._am_max_err_pct(records) for _, records in self.runs]
        return {"am_max_err_pct": max((e for e in errs if e is not None), default=None)}


# -- serve_mix --------------------------------------------------------------------


class Server:
    """One ``repro serve --port 0`` process on a fresh store."""

    def __init__(self, store: Path, workdir: Path, trace_file: Path | None, run_id: str):
        if trace_file is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--store", str(store), "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "--serve-traced", str(trace_file),
                   "--run-id", run_id, "--store", str(store)]
        self.trace_file = trace_file
        self.stderr = open(workdir / f"{store.name}.stderr", "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_cpu_s = proc_cpu(self.proc.pid)

    def _await_ready(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(f"repro serve exited with {self.proc.wait()} before ready")
                if line.startswith("listening on http://"):
                    return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not become ready in time")

    def cpu_s(self) -> float:
        return proc_cpu(self.proc.pid)

    def hwm_mb(self) -> float:
        return proc_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class ServeWorkload(Runner):
    """Closed-loop /v1/run queries against a fresh store, one unit per store."""

    def __init__(self, args, log, workdir):
        super().__init__(args, log, workdir)
        self.requests = W.serve_requests(args.seed)
        self.sequence = W.serve_sequence(args.seed)
        self.server: Server | None = None
        self.served: dict[int, list[dict]] = {}
        self.latencies: list[float] = []
        self.peak = 0.0

    def _start(self, index: int) -> Server:
        trace = None
        if self.log is not None:
            trace = self.workdir / f"server-{index}.spans.json"
        return Server(self.workdir / f"store-{index}", self.workdir, trace,
                      f"{self.log.run_id}/server-{index}" if self.log else "")

    def setup(self) -> float:
        from repro.api import RunRequest
        from repro.serve import ServiceClient

        self.RunRequest, self.ServiceClient = RunRequest, ServiceClient
        self.server = self._start(0)
        return time.process_time() + self.server.ready_cpu_s

    def unit(self, index: int) -> dict:
        if self.server is None:
            self.server = self._start(index)
        server = self.server
        client = self.ServiceClient("127.0.0.1", server.port, timeout=120.0)
        requests = [self.RunRequest(**r) for r in self.requests]
        failed = 0
        s0, c0, w0 = server.cpu_s(), time.process_time(), time.perf_counter()
        for idx in self.sequence:
            t0 = time.perf_counter()
            try:
                doc = client.run(requests[idx])
            except Exception as exc:  # a refused or failed query is counted, not fatal
                doc = {"error": f"{type(exc).__name__}: {exc}"}
            self.latencies.append((time.perf_counter() - t0) * 1e3)
            self.served.setdefault(idx, []).append(doc)
            if doc.get("result", {}).get("outcome") != "ok":
                failed += 1
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0 + server.cpu_s() - s0
        stats = client.stats()
        self.peak = max(self.peak, server.hwm_mb())
        server.stop()
        self.server = None
        if self.log is not None:
            self._trace_unit(index, server, stats)
        return {"cpu_s": cpu, "wall_s": wall, "events": stats["server"]["executed_events"],
                "ops": len(self.sequence), "failed": failed}

    def _trace_unit(self, index: int, server: Server, stats: dict) -> None:
        doc = json.loads(server.trace_file.read_text())
        for s in doc["spans"]:
            s["segment"] = index
        self.log.extend(doc["spans"])
        st = stats["store"]
        lookups = st["hits"] + st["misses"]
        self.unit_gauges.append({
            "store.hit_ratio": st["hits"] / lookups if lookups else 0.0,
            "store.bytes": st["bytes"],
            "store.warm_calibrations": st["warm_calibrations"],
            "serve.executed_events": stats["server"]["executed_events"],
            "serve.rejected": stats["server"].get("rejected", 0),
        })

    def check(self, units) -> list[str]:
        """Every served result equals execute_request under the server's
        default context, recomputed here, outside the timed phase."""
        import inspect

        from repro.api import RunResult, canonical_json
        from repro.serve import SimulationService
        from repro.workflow.campaign import execute_request

        defaults = inspect.signature(SimulationService).parameters
        machine = defaults["default_machine"].default
        calib_procs = defaults["default_calib_procs"].default
        name = self.args.workload
        problems = []
        for idx in sorted(self.served):
            req = self.RunRequest(**self.requests[idx])
            want = canonical_json(RunResult.from_record(
                execute_request(req, machine, calib_procs=calib_procs)).to_json())
            for doc in self.served[idx]:
                # a refused query has no result to check; it counts as failed
                if "result" in doc and canonical_json(doc["result"]) != want:
                    problems.append(f"{name}: query {req.app}/{req.mode}/{req.nprocs} served "
                                    "a result that differs from execute_request")
                    break
        return problems

    def peak_rss_mb(self) -> float:
        return max(self.peak, rss_mb())

    def extra(self, units) -> dict:
        lat = self.latencies
        return {"query_p50_ms": percentile(lat, 0.5), "query_p90_ms": percentile(lat, 0.9),
                "queries": len(lat)}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def make_workload(args, log, workdir):
    if args.workload == "sweep3d_am_10k":
        return SweepWorkload(args, log, workdir, backend=None)
    if args.workload == "sweep3d_am_10k_auto":
        return SweepWorkload(args, log, workdir, backend="auto")
    if args.workload == "campaign_grid":
        return CampaignWorkload(args, log, workdir)
    if args.workload == "serve_mix":
        return ServeWorkload(args, log, workdir)
    raise SystemExit(f"unknown workload {args.workload!r}")


def run(args) -> dict:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    log = None
    if args.trace:
        log = SpanLog(f"{args.workload}-s{args.seed}-{os.getpid()}")
        install_layer_wrappers(log)
    wl = make_workload(args, log, workdir)
    try:
        setup_s = wl.setup()
        probes = [host_probe() for _ in range(SETUP_PROBES)]
        setup = {"setup_s": setup_s * REF_PROBE_S / statistics.median(probes),
                 "raw_setup_s": setup_s}
        if args.setup_only:
            return setup
        units: list[dict] = []
        min_units = W.WORKLOADS[args.workload].min_units
        while len(units) < min_units or sum(u["wall_s"] for u in units) < args.seconds:
            if log is not None:
                log.segment = len(units)
            units.append(wl.unit(len(units)))
            probes.append(host_probe())
    finally:
        wl.close()
    if log is not None:
        log.segment = "check"  # oracle recomputation is not the workload's work
    problems = wl.check(units)
    ops = sum(u["ops"] for u in units)
    failed = sum(u["failed"] for u in units)
    # the best unit, since within a run CPU time only ever reads high, in
    # reference-host seconds: divided by the run's median probe, which no
    # single noisy probe can move
    slowdown = statistics.median(probes) / REF_PROBE_S
    best = min(units, key=lambda u: u["cpu_s"])
    metrics = {
        "run_cpu_s": best["cpu_s"] / slowdown,
        "run_wall_s": best["wall_s"] / slowdown,
        "events_per_cpu_s": best["events"] / best["cpu_s"] * slowdown,
        "peak_rss_mb": wl.peak_rss_mb(),
        "failed_frac": failed / ops,
        "host_slowdown": slowdown,
        "raw_run_cpu_s": best["cpu_s"],
        "raw_run_wall_s": best["wall_s"],
    }
    extra = wl.extra(units)
    metrics.update({k: v for k, v in extra.items() if k in W.E2E_UNITS and v is not None})
    out = {**setup, "probes": probes, "units": units, "ops": ops, "failed": failed,
           "problems": problems, "metrics": metrics, "extra": extra}
    if log is not None:
        traces = HERE / ".work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{log.run_id}.json"
        log.dump(path)
        out["trace_file"] = str(path)
        out["layers"] = combine(log.spans, wl.unit_gauges)
    return out


def serve_traced(args) -> int:
    """``repro serve`` with the layer wrappers installed; spans dumped on exit."""
    import atexit

    log = SpanLog(args.run_id)
    install_layer_wrappers(log)
    install_serve_wrappers(log)

    def dump():
        log.note("kernel.counters", **kernel_counters())
        log.dump(args.serve_traced)

    atexit.register(dump)
    from repro.cli import main

    return main(["serve", "--store", args.store, "--port", "0"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir")
    ap.add_argument("--out")
    ap.add_argument("--serve-traced", metavar="FILE")
    ap.add_argument("--run-id", default="server")
    ap.add_argument("--store")
    args = ap.parse_args(argv)
    if args.serve_traced:
        return serve_traced(args)
    result = run(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
