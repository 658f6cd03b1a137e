"""Record the exact expected outputs of every input variant in reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted: what it writes is the
oracle every later benchmark run is checked against.  The Sweep3D
references come from the interpreted backend (both 10k workloads must
match the same value); the campaign references come from the same grid
run sequentially, on the interpreted backend, without telemetry.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads as W
from worker import REFERENCE, cell_digest, sim_result_digest, sweep_inputs, sweep_workflow


def sweep_reference(v: int) -> str:
    wf = sweep_workflow(v, "interpreted")
    return sim_result_digest(wf.run_am(sweep_inputs(W.SWEEP_NPROCS), W.SWEEP_NPROCS))


def campaign_reference(v: int) -> dict[str, str]:
    from repro.cli import main

    work = REFERENCE.parent / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        grid = Path(tmp) / "grid.json"
        grid.write_text(json.dumps(W.campaign_grid(v)))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["campaign", "--grid", str(grid), "--out", str(out), "--jobs", "1",
                       "--backend", "interpreted", "--no-telemetry"])
        if rc != 0:
            raise SystemExit(f"reference campaign for variant {v} exited {rc}")
        cells = {}
        for line in (out / "campaign.journal.jsonl").read_text().splitlines():
            doc = json.loads(line)
            if doc.get("type") == "run":
                if doc["outcome"] != "ok":
                    raise SystemExit(f"variant {v}: cell {doc['run_id']} ended {doc['outcome']}")
                cells[doc["run_id"]] = cell_digest(doc)
        return cells


def main() -> int:
    ref = {"variants": W.VARIANTS, "sweep3d_am_10k": {}, "campaign_grid": {}}
    for v in range(W.VARIANTS):
        ref["sweep3d_am_10k"][str(v)] = sweep_reference(v)
        ref["campaign_grid"][str(v)] = campaign_reference(v)
        print(f"variant {v}: sweep3d {ref['sweep3d_am_10k'][str(v)][:16]}, "
              f"{len(ref['campaign_grid'][str(v)])} campaign cells", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
