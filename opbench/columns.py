"""Join `--benchmark-json` runs of opbench/test_ops.py into one BENCH file.

    python opbench/columns.py --parent parent-*.json --change change-*.json --out BENCH_11.json

Each row is one op, direction and batch shape, keyed like
`gelu.forward[512x48]`. A side's figure is the median, over that side's runs,
of each run's median milliseconds per call; the row also gives their ratio,
the change's runs and its rounds summed over them.
"""

import argparse
import json
import statistics


def medians(path):
    with open(path, encoding="utf-8") as f:
        run = json.load(f)
    rows = {}
    for bench in run["benchmarks"]:
        params = bench["params"]
        key = f"{params['op']}.{params['direction']}[{params['inputs']}]"
        rows[key] = (bench["stats"]["median"] * 1e3, bench["stats"]["rounds"])
    return rows, run["machine_info"]


def side(paths):
    """(key -> (median over runs of the per-run median ms, runs, rounds)), and
    the machine of the first run."""
    runs = [medians(path) for path in paths]
    keys = set.intersection(*(set(rows) for rows, _ in runs))
    return {
        key: (
            statistics.median(rows[key][0] for rows, _ in runs),
            len(runs),
            sum(rows[key][1] for rows, _ in runs),
        )
        for key in keys
    }, runs[0][1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    parent, _ = side(args.parent)
    change, machine = side(args.change)
    ops = {
        key: {
            "parent_ms": round(parent[key][0], 4),
            "change_ms": round(change[key][0], 4),
            "change_over_parent": round(change[key][0] / parent[key][0], 3),
            "runs": change[key][1],
            "rounds": change[key][2],
        }
        for key in sorted(set(change) & set(parent))
    }
    bench = {
        "what": "median ms per call of each encoder op (opbench/test_ops.py), float32, "
                "default encoder shapes, one BLAS thread; each side the median of its runs, "
                "which alternated parent and change",
        "machine": {
            "cpu": machine["cpu"].get("brand_raw"),
            "cores": machine["cpu"].get("count"),
            "python": machine["python_version"],
        },
        "ops": ops,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
