"""Paper-scale end-to-end benchmark of the simulator, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--repeats R] [--seconds S] [--trace 0|1]

Run from anywhere; it uses the ``src/`` next to this directory.  Each
workload runs in fresh worker processes (``worker.py``).  With
``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  ``--all`` runs every workload
``--repeats`` times with consecutive seeds and prints each metric's
median, spread and sample count.  Any output check that fails names its
workload and makes the command exit 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
#: fresh processes whose set-up CPU time is sampled per run (median reported)
SETUP_SAMPLES = 3
#: fresh interpreters timed for the start-up probes of the traced run
STARTUP_PROBES = 3
#: a run must finish inside this many seconds
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)  # "default" means the shipped default
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run *cmd* in its own session; kill the whole group past *deadline*."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:4])}: timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               deadline: float, setup_only: bool = False) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=WORK))
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = run_child(cmd, deadline)
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def startup_probes(deadline: float) -> dict:
    """CPU time to import ``repro.cli`` in a fresh interpreter, and the
    cumulative import time of ``repro.machine.fitting`` (``-X importtime``)."""
    imports, fitting = [], []
    code = "import time; t = time.process_time(); import repro.cli; print(time.process_time() - t)"
    for _ in range(STARTUP_PROBES):
        proc = run_child([sys.executable, "-c", code], deadline)
        imports.append(float(proc.stdout.split()[-1]))
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import repro.cli"], deadline)
        us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "repro.machine.fitting":
                us = int(parts[1])
        fitting.append(us / 1e6)
    return {"startup.import_s": statistics.median(imports),
            "startup.fitting_import_s": statistics.median(fitting)}


def src_lines() -> int:
    """Non-blank lines of the Python sources under ``src/``."""
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of *workload*: end-to-end or traced metrics."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not trace:
        setups = [run_worker(workload, seed, seconds, 0, deadline, setup_only=True)
                  for _ in range(SETUP_SAMPLES - 1)]
        main = run_worker(workload, seed, seconds, 0, deadline)
        setups.append(main)
        metrics = dict(main["metrics"],
                       setup_s=statistics.median(w["setup_s"] for w in setups),
                       raw_setup_s=statistics.median(w["raw_setup_s"] for w in setups))
        return {"workload": workload, "seed": seed, "metrics": metrics,
                "extra": main["extra"], "units": len(main["units"]),
                "attempted": main["ops"], "failed": main["failed"],
                "problems": main["problems"], "src_lines": src_lines()}
    plain = run_worker(workload, seed, seconds, 0, deadline)
    traced = run_worker(workload, seed, seconds, 1, deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_cpu_s"] = (traced["metrics"]["run_cpu_s"]
                                      - plain["metrics"]["run_cpu_s"])
    layers.update(startup_probes(deadline))
    layers["code.src_lines"] = src_lines()
    return {"workload": workload, "seed": seed, "metrics": plain["metrics"],
            "traced_metrics": traced["metrics"], "layers": layers,
            "extra": plain["extra"], "units": len(traced["units"]),
            "attempted": plain["ops"] + traced["ops"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "trace_file": traced["trace_file"], "src_lines": layers["code.src_lines"]}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def moves(name: str) -> str:
    return "; ".join(f"{m} on {', '.join(ws)}" for m, ws in W.LAYER_MAP[name][1]) or "-"


def print_run(r: dict) -> None:
    w = W.WORKLOADS[r["workload"]]
    print(f"{r['workload']}: seed {r['seed']} (input variant {W.variant(r['seed'])}), "
          f"{r['units']} unit(s); {r['attempted']} attempted ({w.ops}), {r['failed']} failed")
    for name, value in r["metrics"].items():
        print(f"  {name:<20} {fmt(value):>14} {W.E2E_UNITS[name]}")
    if "queries" in r["extra"]:
        print(f"  (query percentiles over {r['extra']['queries']} queries)")
    if "layers" in r:
        print(f"  traced run_cpu_s {fmt(r['traced_metrics']['run_cpu_s'])} s; "
              f"tracing overhead {fmt(r['layers']['trace.overhead_cpu_s'])} s; "
              f"spans in {r['trace_file']}")
        for name, value in r["layers"].items():
            print(f"  {name:<36} {fmt(value):>14} {W.LAYER_MAP[name][0]:<6} "
                  f"moves: {moves(name)}")
    print(f"code.src_lines {r['src_lines']}")
    for p in r["problems"]:
        print(f"CHECK FAILED {p}", file=sys.stderr)


def result_line(r: dict, bench: dict, trace: int) -> str:
    values = r["layers"] if trace else r["metrics"]
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        if values.get(m["name"]) is None:
            raise BenchError(f"{r['workload']}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({"correct": not r["problems"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": metrics})


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 samples)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def summarize(runs: dict[str, list[dict]], trace: int) -> None:
    print(f"\n{'workload':<20} {'metric':<20} {'unit':<6} {'median':>12} {'spread':>8} {'n':>3}")
    for workload, rs in runs.items():
        for name in W.E2E_UNITS:
            values = [r["metrics"][name] for r in rs if r["metrics"].get(name) is not None]
            if values:
                print(f"{workload:<20} {name:<20} {W.E2E_UNITS[name]:<6} "
                      f"{fmt(statistics.median(values)):>12} {spread(values):>8.3f} "
                      f"{len(values):>3}")
    if not trace:
        return
    print(f"\n{'per-layer metric':<36} {'unit':<6} " + " ".join(f"{w:>20}" for w in runs)
          + "  moves")
    for name, (unit, _) in W.LAYER_MAP.items():
        cells = [fmt(statistics.median(r["layers"][name] for r in rs)) for rs in runs.values()]
        print(f"{name:<36} {unit:<6} " + " ".join(f"{c:>20}" for c in cells)
              + f"  {moves(name)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(W.WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, repeated")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=3, help="runs per workload with --all")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    try:
        if args.workload:
            r = measure(args.workload, args.seed, seconds, args.trace)
            print_run(r)
            print(result_line(r, bench, args.trace))
            return 0 if not r["problems"] else 1
        runs: dict[str, list[dict]] = {}
        for workload in W.WORKLOADS:
            runs[workload] = []
            for i in range(args.repeats):
                r = measure(workload, args.seed + i, seconds, args.trace)
                print_run(r)
                runs[workload].append(r)
        summarize(runs, args.trace)
        failed = [w for w, rs in runs.items() if any(r["problems"] for r in rs)]
        if failed:
            print(f"output checks FAILED on: {', '.join(failed)}", file=sys.stderr)
            return 1
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
