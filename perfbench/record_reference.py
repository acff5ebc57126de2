"""Record the correctness references in ``reference.json``.

    python3 perfbench/record_reference.py

For every workload and each of the ``run.REFERENCE_SEEDS`` initial
conditions, runs one workload call and stores the fingerprint of its final
fields (see ``workloads.fingerprint``) with the workload's configuration.
Run it only on a commit whose results are trusted: the benchmark holds
every later commit to these numbers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import spans
import workloads


def reference_fingerprint(w: workloads.Workload, seed: int) -> dict:
    workdir = run.OUT / f"record-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with spans.Recorder(False) as recorder:
            workloads.run(w, seed, workdir)
        return workloads.fingerprint(recorder.system, recorder.fields)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    table = {}
    for name, w in workloads.WORKLOADS.items():
        seeds = {}
        for seed in range(1, run.REFERENCE_SEEDS + 1):
            seeds[str(seed)] = reference_fingerprint(w, seed)
            print(f"{name} seed {seed}: {seeds[str(seed)]}", flush=True)
        table[name] = {"config": w.config(), "seeds": seeds}
    (run.HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
