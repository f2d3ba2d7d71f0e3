"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1 --trace 1 --out perfbench/baseline-trace.json

Each (workload, seed) is a fresh `perfbench/run.py` process, run for every
workload of BENCHMARK.json at its run_seconds. For every metric it prints the
median and the quartiles of the values (Python's statistics.quantiles(n=4)),
and the quartile distance as a share of the median. An end-to-end spread is
steady when it is below a third of the metric's bound in BENCHMARK.json. With
--out the summary, including the unbounded figures each run prints (recalls,
eval times, pairs per second), is written as JSON, e.g. to record a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    results = ROOT / ".perfbench_work" / "results"
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            line = run_once(workload, seed, seconds, args.trace)
            if not line["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect result {line}")
            runs.append(line)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items() if not args.trace), flush=True)
        table = {}
        for name, first in runs[0]["metrics"].items():
            table[name] = summarize([r["metrics"][name]["value"] for r in runs])
            table[name]["unit"] = first["unit"]
        summary["workloads"][workload] = table
        saved = [json.loads((results / f"{workload}-seed{seed}-trace{args.trace}.json").read_text()) for seed in seeds]
        summary.setdefault("environment", {k: v for k, v in saved[0]["env"].items() if k != "seed"})
        if saved[0]["figures"]:
            summary.setdefault("figures", {})[workload] = {
                name: {**summarize([r["figures"][name]["value"] for r in saved]), "unit": fig["unit"]}
                for name, fig in saved[0]["figures"].items()
            }
        for name, s in table.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = s["spread"] < bound / 3
                steady &= ok
                verdict = f"bound {bound}  {'steady' if ok else 'NOT STEADY'}"
            print(f"  {workload:<15} {name:<44} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
