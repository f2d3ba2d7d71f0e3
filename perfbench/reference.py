"""Record the per-seed recalls that run.py checks every run against.

    python3 perfbench/reference.py --seeds 0-63

For each seed and each workload that reports recalls (retrieve-dense,
retrieve-bm25, experiment) this runs the workload's set-up and timed command
once, checks the outputs as a benchmark run does, and writes the recalls and
query and candidate counts to perfbench/reference.json. Run it only when the
workloads themselves change: the file pins what the program must reproduce.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
from spread import parse_seeds


def record(workload: str, seed: int) -> dict:
    plan = run.WORKLOADS[workload].plan(seed, False)
    workdir = run.WORK / f"reference-{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for filename, text in plan.files.items():
        (workdir / filename).write_text(text, encoding="utf-8")
    runner = run.Runner(workdir, run.BLAS_THREADS, time.monotonic() + run.RUN_DEADLINE_S)
    try:
        samples = [runner.run(step) for step in plan.setup + [plan.timed]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.failures:
        raise RuntimeError(f"{workload} seed {seed}: {runner.failures}")
    return samples[-1].facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args(argv)
    reference = {
        "about": "recalls each seed must reproduce, within "
        f"{run.REFERENCE_SLACK_QUERIES} query per k; written by perfbench/reference.py",
        "environment": {k: v for k, v in run.environment(None, run.BLAS_THREADS).items() if k != "seed"},
        "workloads": {},
    }
    for workload in run.REFERENCE_WORKLOADS:
        entries = reference["workloads"][workload] = {}
        for seed in parse_seeds(args.seeds):
            entries[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: {json.dumps(entries[str(seed)], sort_keys=True)}", flush=True)
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
