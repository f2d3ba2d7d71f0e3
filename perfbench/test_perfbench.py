"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q -p no:cacheprovider

The smoke test runs every workload at tiny size, traced and untraced, and
takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def scratch():
    """A temporary directory inside the checkout's ignored work area."""
    run.WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _span(sid, parent, name, start, end):
    return tracing.Span(sid, parent, name, float(start), float(end))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "cli.main", 0, 10),
        _span(1, 0, "corpus.parse_corpus", 1, 4),
        _span(2, 0, "encoders.encode", 3, 6),  # overlaps span 1
        _span(3, 0, "util.sha256_file", 8, 12),  # runs past its parent's end
        _span(4, 1, "corpus.split_sentences", 2, 3),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10 - 5 - 2, 1: 2, 2: 3, 3: 4, 4: 1})


def test_spans_of_different_runs_do_not_mix():
    def dump(run_id, offset):
        return {"run_id": run_id, "gaps": [], "spans": [
            [0, None, "cli.main", offset, offset + 4, None],
            [1, 0, "corpus.parse_corpus", offset + 1, offset + 2, None],
        ]}

    spans = tracing.load_spans(dump("a", 0)) + tracing.load_spans(dump("b", 10))
    assert tracing.self_times(spans) == {("a", 0): 3, ("a", 1): 1, ("b", 0): 3, ("b", 1): 1}


def test_step_times_drop_the_first_step_and_validation():
    spans = [
        _span(0, None, "training.finetune", 0, 20),
        _span(1, 0, "training.adam_step", 1, 2),
        _span(2, 0, "training.adam_step", 4, 5),
        _span(3, 0, "training.recall_at_k", 5, 9),
        _span(4, 0, "training.adam_step", 10, 11),
        _span(5, None, "training.adam_step", 30, 31),  # outside any loop
    ]
    assert tracing.step_times(spans) == {"finetune": [3.0, 2.0]}


@pytest.mark.parametrize("n, q", [(0, 50.0), (15, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert tracing.tail_percentile(n) == pytest.approx(q)


def test_layer_metrics_count_calls_and_ratios():
    spans = [
        _span(0, None, "training.pretrain", 0, 10),
        _span(1, 0, "pairs.sample_mixture", 0, 1),
        _span(2, 1, "pairs.gen_ict", 0, 0.5),
        _span(3, 1, "pairs.gen_ict", 0.5, 1),
    ]
    spans[2].attrs = {"yield": 0}
    spans[3].attrs = {"yield": 1}
    metrics, _ = tracing.layer_metrics([spans])
    assert metrics["pairs.gen.attempts"] == 2
    assert metrics["pairs.gen.yield_ratio"] == 0.5
    assert metrics["pairs.gen.s"] == 1.0
    assert metrics["training.self_s"] == 9.0
    assert metrics["retrieval.bm25_topk.us_per_call"] == 0.0


def test_wrappers_cover_names_imported_elsewhere(scratch):
    code = (
        "import sys, tracing\n"
        "t = tracing.Tracer('x')\n"
        "names = tracing.install(t)\n"
        "from twotower import encoders, training, benchmark\n"
        "assert training.encode_with_cache is encoders.encode_with_cache\n"
        "assert training.encode_with_cache.__wrapped__.__module__ == 'twotower.encoders'\n"
        "assert benchmark.finetune is training.finetune\n"
        "assert 'retrieval.InvertedIndex' in names, names\n"
        "assert t.gaps == [], t.gaps\n"
    )
    env = run.Runner(scratch, 1, 0.0).env
    env["PYTHONPATH"] = f"{BENCH_DIR}:{env['PYTHONPATH']}"
    subprocess.run([sys.executable, "-c", code], env=env, cwd=scratch, check=True)


def test_checks_reject_bad_outputs(scratch):
    (scratch / "e.json").write_text(json.dumps(
        {"recalls": {"1": 0.1, "5": 0.3, "10": 0.2, "50": 0.5, "100": 0.9}, "n_queries": 5, "n_candidates": 9}))
    with pytest.raises(run.CheckFailed, match="decreases"):
        run.check_eval("e.json", bm25=False)(scratch)
    with pytest.raises(run.CheckFailed):
        run.check_eval("missing.json", bm25=False)(scratch)
    (scratch / "s.jsonl").write_text("".join(json.dumps({"step": i, "loss": 1.0}) + "\n" for i in (1, 2)))
    _write_checkpoint(scratch / "m", {"a": np.ones((2, 3), np.float32), "b": np.zeros(4, np.int64)})
    assert run.check_pretrain("m", "s.jsonl", 2)(scratch)["final_loss"] == 1.0
    with pytest.raises(run.CheckFailed, match="step records"):
        run.check_pretrain("m", "s.jsonl", 3)(scratch)
    (scratch / "m.json").write_text("{}")
    with pytest.raises(run.CheckFailed, match="version"):
        run.check_pretrain("m", "s.jsonl", 2)(scratch)
    _write_checkpoint(scratch / "m", {"a": np.ones(2, np.float32)})
    (scratch / "s.jsonl").write_text(json.dumps({"step": 1, "loss": math.inf}) + "\n")
    with pytest.raises(run.CheckFailed, match="non-finite"):
        run.check_pretrain("m", "s.jsonl", 1)(scratch)


def _write_checkpoint(prefix: Path, arrays: dict, **override) -> None:
    """The layout of twotower.util.save_tensors."""
    entries, offset = [], 0
    for name in sorted(arrays):
        raw = arrays[name].tobytes()
        entries.append({"name": name, "dtype": str(arrays[name].dtype), "shape": list(arrays[name].shape),
                        "offset": offset, "nbytes": len(raw)})
        offset += len(raw)
    payload = b"".join(arrays[name].tobytes() for name in sorted(arrays))
    manifest = {"version": 1, "meta": {}, "tensors": entries, "bin_sha256": hashlib.sha256(payload).hexdigest()}
    manifest.update(override)
    prefix.with_suffix(".bin").write_bytes(payload)
    prefix.with_suffix(".json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("override, match", [
    ({"bin_sha256": None}, "digest"),
    ({"bin_sha256": "0" * 64}, "does not match"),
    ({"version": 2}, "version"),
    ({"tensors": []}, "no tensors"),
    ({"tensors": [{"name": "a", "dtype": "float32", "shape": [2, 3], "offset": 0, "nbytes": 24}]}, "cover 24 of 56"),
    ({"tensors": [{"name": "a", "dtype": "float32", "shape": [2, 3], "offset": 0, "nbytes": 24},
                  {"name": "b", "dtype": "int64", "shape": [5], "offset": 24, "nbytes": 32}]}, "does not fit"),
    ({"tensors": [{"name": "a", "dtype": "float32", "offset": 0}]}, "entry"),
    ({"tensors": [{"name": "a"}, {"name": "b", "offset": "0"}]}, "without offsets"),
])
def test_checkpoint_check_rejects_a_manifest_that_would_not_load(scratch, override, match):
    _write_checkpoint(scratch / "m", {"a": np.ones((2, 3), np.float32), "b": np.zeros(4, np.int64)}, **override)
    manifest = json.loads((scratch / "m.json").read_text())
    with pytest.raises(run.CheckFailed, match=match):
        run.check_checkpoint(manifest, (scratch / "m.bin").read_bytes())


def test_reference_check_allows_one_query_and_no_more():
    recalls = {"1": 0.1, "5": 0.2, "10": 0.3, "50": 0.6, "100": 0.9}
    expected = {"recalls": recalls, "n_queries": 10, "n_candidates": 50}
    run.check_reference({**expected, "recalls": {**recalls, "100": 0.8}}, expected)
    with pytest.raises(run.CheckFailed, match="recall@100"):
        run.check_reference({**expected, "recalls": {**recalls, "100": 0.7}}, expected)
    with pytest.raises(run.CheckFailed, match="n_candidates"):
        run.check_reference({**expected, "n_candidates": 51}, expected)
    table = {"table": {"bm25/none": recalls, "transformer/mlm": recalls}, "n_queries": 10}
    run.check_reference(table, table)
    with pytest.raises(run.CheckFailed, match="transformer/mlm recall@1"):
        run.check_reference({**table, "table": {**table["table"], "transformer/mlm": {**recalls, "1": 0.3}}}, table)


def test_reference_covers_the_recall_workloads():
    reference = json.loads(run.REFERENCE_PATH.read_text())["workloads"]
    assert set(reference) == set(run.REFERENCE_WORKLOADS)
    assert all(len(seeds) >= 10 for seeds in reference.values())


def test_the_timed_command_runs_at_least_twice():
    lengths = []

    def one_long_round():
        lengths.append(1.0)
        return 1e6

    run._timed_rounds(1.0, one_long_round)
    assert len(lengths) == run.MIN_ROUNDS == 2


def test_workloads_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {name: w.why for name, w in run.WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_refuses_a_checkout_without_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH_DIR, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
