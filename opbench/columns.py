"""Join two `--benchmark-json` runs of opbench/test_ops.py into one BENCH file.

    python opbench/columns.py parent.json change.json --out BENCH_8.json

Each row is one op, direction and batch shape, keyed like
`gelu.forward[512x48]`, with the median milliseconds per call of the parent
and of the change, their ratio and the change's rounds.
"""

import argparse
import json


def medians(path):
    with open(path, encoding="utf-8") as f:
        run = json.load(f)
    rows = {}
    for bench in run["benchmarks"]:
        params = bench["params"]
        key = f"{params['op']}.{params['direction']}[{params['inputs']}]"
        rows[key] = (bench["stats"]["median"] * 1e3, bench["stats"]["rounds"])
    return rows, run["machine_info"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    parent, _ = medians(args.parent)
    change, machine = medians(args.change)
    ops = {
        key: {
            "parent_ms": round(parent[key][0], 4),
            "change_ms": round(change[key][0], 4),
            "change_over_parent": round(change[key][0] / parent[key][0], 3),
            "rounds": change[key][1],
        }
        for key in sorted(change)
    }
    bench = {
        "what": "median ms per call of each encoder op (opbench/test_ops.py), float32, "
                "default encoder shapes, one BLAS thread",
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
