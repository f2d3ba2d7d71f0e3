"""Benchmark of the public `twotower` CLI.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a source checkout. Each workload makes its inputs with
`twotower synth --seed <seed>`, then runs CLI commands as subprocesses, one at
a time, from this single process. Every command is one operation: a non-zero
exit or an output that fails its check counts as failed and yields no number.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
runs every command of the workload through perfbench/tracing.py, which wraps
the program's functions from outside, and reports the per-layer metrics plus
`trace.overhead_s`, the traced minus the untraced wall time of the timed
command. The last line of standard output is one JSON object; the lines above
it are for people. Working files go to .perfbench_work/ in the checkout, and
each result is also written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH_DIR))

import numpy  # noqa: E402
import tracing  # noqa: E402  (sibling module)

SETUP_REPEATS = 5
# The timed command always runs at least twice, so that the repeat check
# compares two runs and no figure rests on a single sample.
MIN_ROUNDS = 2
RUN_DEADLINE_S = 170.0
KS = (1, 5, 10, 50, 100)
# Lowest BM25 recall@100 accepted for a seed without reference recalls; the
# recorded seeds lie at or above it (see reference.json).
BM25_RECALL_FLOOR = 0.8
# One test query moves recall by at most one point.
MIN_TABLE_QUERIES = 100
# Per-seed recalls of the retrieve and experiment workloads, written by
# reference.py. A run of a recorded seed must reproduce them.
REFERENCE_PATH = BENCH_DIR / "reference.json"
REFERENCE_WORKLOADS = ("retrieve-dense", "retrieve-bm25", "experiment")
# Switching OpenBLAS between three kernels (native, Haswell, Sandybridge)
# changed no recall at all; one query of slack per k lets a tie at the cut-off
# break the other way after a change of summation order.
REFERENCE_SLACK_QUERIES = 1
# The checkpoint format version `twotower` writes and reads.
TENSOR_FORMAT_VERSION = 1

END_TO_END = {
    "command_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CheckFailed(Exception):
    """A command's output is missing, malformed or implausible."""


# ------------------------------------------------------------------ checks


def _json_lines(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _check_recalls(recalls, where: str) -> Dict[str, float]:
    if not isinstance(recalls, dict):
        raise CheckFailed(f"{where}: no recalls")
    values = []
    for k in KS:
        value = recalls.get(str(k))
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise CheckFailed(f"{where}: recall@{k} is {value!r}")
        values.append(float(value))
    if any(b < a for a, b in zip(values, values[1:])):
        raise CheckFailed(f"{where}: recall decreases with k: {values}")
    return {str(k): v for k, v in zip(KS, values)}


def check_synth(corpus: str, qa: str, articles: int, qa_count: int) -> Callable[[Path], dict]:
    def check(wd: Path) -> dict:
        try:
            n_articles, n_qa = len(_json_lines(wd / corpus)), len(_json_lines(wd / qa))
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"synth output: {exc}") from exc
        if (n_articles, n_qa) != (articles, qa_count):
            raise CheckFailed(f"synth wrote {n_articles} articles and {n_qa} QA, asked {articles}/{qa_count}")
        return {}

    return check


def check_vocab(path: str) -> Callable[[Path], dict]:
    def check(wd: Path) -> dict:
        try:
            with open(wd / path, encoding="utf-8") as f:
                size = sum(1 for line in f if line.strip())
        except OSError as exc:
            raise CheckFailed(f"vocab: {exc}") from exc
        if size == 0:
            raise CheckFailed("vocab is empty")
        return {}

    return check


def check_checkpoint(manifest, payload: bytes) -> str:
    """The checks `util.load_tensors` makes, without importing the program:
    known format version, payload digest, and tensor entries that tile the
    payload exactly with sizes that match their dtype and shape."""
    if not isinstance(manifest, dict) or manifest.get("version") != TENSOR_FORMAT_VERSION:
        raise CheckFailed(f"checkpoint manifest is not format version {TENSOR_FORMAT_VERSION}")
    digest = manifest.get("bin_sha256")
    if not isinstance(digest, str):
        raise CheckFailed("checkpoint manifest has no payload digest")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckFailed("checkpoint payload does not match its manifest")
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not entries:
        raise CheckFailed("checkpoint manifest lists no tensors")
    try:
        entries = sorted(entries, key=lambda entry: entry["offset"])
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"checkpoint tensor entries without offsets: {exc}") from exc
    offset = 0
    for entry in entries:
        try:
            size = math.prod(entry["shape"]) * numpy.dtype(entry["dtype"]).itemsize
            ok = entry["offset"] == offset and entry["nbytes"] == size and isinstance(entry["name"], str)
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"checkpoint tensor entry {entry!r}: {exc}") from exc
        if not ok:
            raise CheckFailed(f"checkpoint tensor entry {entry!r} does not fit the payload at {offset}")
        offset += size
    if offset != len(payload):
        raise CheckFailed(f"checkpoint tensors cover {offset} of {len(payload)} payload bytes")
    return digest


def check_pretrain(prefix: str, metrics: str, steps: int) -> Callable[[Path], dict]:
    """A checkpoint that would load; one finite loss per requested step in the
    --metrics stream."""

    def check(wd: Path) -> dict:
        manifest = _load_json(wd / f"{prefix}.json")
        try:
            payload = (wd / f"{prefix}.bin").read_bytes()
        except OSError as exc:
            raise CheckFailed(f"checkpoint payload: {exc}") from exc
        digest = check_checkpoint(manifest, payload)
        try:
            records = [r for r in _json_lines(wd / metrics) if "step" in r]
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"metrics stream: {exc}") from exc
        if len(records) < steps:
            raise CheckFailed(f"metrics stream has {len(records)} step records, asked {steps}")
        losses = [r.get("loss") for r in records]
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in losses):
            raise CheckFailed("non-finite loss in the metrics stream")
        return {"final_loss": losses[-1], "checkpoint": digest}

    return check


def check_eval(path: str, bm25: bool) -> Callable[[Path], dict]:
    def check(wd: Path) -> dict:
        payload = _load_json(wd / path)
        if not isinstance(payload, dict):
            raise CheckFailed(f"{path}: not an object")
        recalls = _check_recalls(payload.get("recalls"), path)
        n_queries, n_candidates = payload.get("n_queries"), payload.get("n_candidates")
        if not (isinstance(n_queries, int) and n_queries > 0 and isinstance(n_candidates, int) and n_candidates > 0):
            raise CheckFailed(f"{path}: {n_queries!r} queries, {n_candidates!r} candidates")
        if bm25 and recalls["100"] < BM25_RECALL_FLOOR:
            raise CheckFailed(f"bm25 recall@100 {recalls['100']:.3f} is below {BM25_RECALL_FLOOR}")
        return {"recalls": recalls, "n_queries": n_queries, "n_candidates": n_candidates}

    return check


def check_reference(facts: dict, expected: dict) -> None:
    """Recalls must repeat the seed's recorded ones to within one query per k,
    on the same number of queries and candidates."""
    for key in ("n_queries", "n_candidates"):
        if key in expected and facts.get(key) != expected[key]:
            raise CheckFailed(f"{key} is {facts.get(key)!r}, reference {expected[key]!r}")
    slack = REFERENCE_SLACK_QUERIES / expected["n_queries"] + 1e-12
    got, want = _recall_sets(facts), _recall_sets(expected)
    if set(got) != set(want):
        raise CheckFailed(f"recall sets {sorted(got)}, reference {sorted(want)}")
    for label, recalls in want.items():
        for k, value in recalls.items():
            if abs(got[label][k] - value) > slack:
                raise CheckFailed(f"{label} recall@{k} is {got[label][k]:.4f}, reference {value:.4f}")


def _recall_sets(facts: dict) -> Dict[str, Dict[str, float]]:
    return facts["table"] if "table" in facts else {"recalls": facts["recalls"]}


def load_reference(workload: str, seed: int) -> Optional[dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)["workloads"].get(workload, {}).get(str(seed))


TABLE_CELLS = (("transformer", "none"), ("transformer", "mlm"), ("transformer", "ict+bfs+wlp"), ("bm25", "none"))


def check_report(path: str) -> Callable[[Path], dict]:
    def check(wd: Path) -> dict:
        report = _load_json(wd / path)
        cells = report.get("cells") if isinstance(report, dict) else None
        if not isinstance(cells, list):
            raise CheckFailed(f"{path}: no cells")
        table = {}
        for encoder, task in TABLE_CELLS:
            found = [c for c in cells if c.get("encoder") == encoder and c.get("task") == task and not c.get("augmented")]
            where = f"{path} {encoder}/{task}"
            if len(found) != 1:
                raise CheckFailed(f"{where}: {len(found)} cells")
            n_queries = found[0].get("n_queries")
            if not isinstance(n_queries, int) or n_queries < MIN_TABLE_QUERIES:
                raise CheckFailed(f"{where}: {n_queries!r} test queries, need {MIN_TABLE_QUERIES}")
            table[f"{encoder}/{task}"] = _check_recalls(found[0].get("recalls"), where)
        if table["bm25/none"]["100"] < BM25_RECALL_FLOOR:
            raise CheckFailed(f"bm25 cell recall@100 is below {BM25_RECALL_FLOOR}")
        return {"table": table, "n_queries": n_queries}

    return check


# --------------------------------------------------------------- workloads


@dataclass
class Step:
    """One `twotower` command and the check of what it wrote."""

    argv: List[str]
    check: Callable[[Path], dict]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    setup: List[Step]
    timed: Step
    files: Dict[str, str] = field(default_factory=dict)  # written before set-up
    work_items: int = 0  # units of work in one timed command (pairs, queries)


@dataclass
class Workload:
    name: str
    why: str
    plan: Callable[[int, bool], Plan]


def _synth(seed: int, articles: int, topics: int, qa: int) -> Step:
    argv = ["synth", "--out", "corpus.jsonl", "--qa", "qa.jsonl", "--seed", str(seed),
            "--articles", str(articles), "--topics", str(topics), "--qa-count", str(qa), "--force"]
    return Step(argv, check_synth("corpus.jsonl", "qa.jsonl", articles, qa))


def _vocab() -> Step:
    return Step(["vocab", "--corpus", "corpus.jsonl", "--out", "vocab.txt", "--force"], check_vocab("vocab.txt"))


def _pretrain(out: str, steps: int) -> Step:
    argv = ["pretrain", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt", "--out", out,
            "--metrics", f"{out}.metrics.jsonl", "--tasks", "ict+bfs+wlp", "--steps", str(steps),
            "--batch", "32", "--hidden-dim", "64", "--layers", "2", "--query-max-len", "16",
            "--doc-max-len", "48", "--dtype", "float32", "--force"]
    return Step(argv, check_pretrain(out, f"{out}.metrics.jsonl", steps))


def _retrieval_eval(bm25: bool) -> Step:
    out = "bm25.json" if bm25 else "dense.json"
    argv = ["bm25-eval" if bm25 else "eval", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt",
            "--qa", "qa.jsonl", "--out", out, "--split-part", "train", "--augment", "500",
            "--k", ",".join(map(str, KS)), "--force"]
    if not bm25:
        argv[-1:-1] = ["--ckpt", "ckpt"]
    return Step(argv, check_eval(out, bm25))


def plan_pretrain(seed: int, tiny: bool) -> Plan:
    steps = 2 if tiny else 24
    synth = _synth(seed, 20, 5, 100) if tiny else _synth(seed, 500, 100, 1000)
    return Plan([synth, _vocab()], _pretrain("model", steps), work_items=steps * 32)


def _plan_retrieve(seed: int, tiny: bool, bm25: bool) -> Plan:
    synth = _synth(seed, 20, 5, 100) if tiny else _synth(seed, 250, 50, 500)
    setup = [synth, _vocab()] + ([] if bm25 else [_pretrain("ckpt", 1)])
    return Plan(setup, _retrieval_eval(bm25))


def plan_experiment(seed: int, tiny: bool) -> Plan:
    steps = 2 if tiny else 4
    grid = {
        "encoders": ["transformer"],
        "tasks": ["none", "mlm", "ict+bfs+wlp"],
        "include_bm25": True,
        "ks": list(KS),
        "pretrain_steps": steps,
        "finetune_steps": steps,
        "eval_every": steps // 2,
        "patience": 1000,
    }
    # 20 articles give every seed from 0 to 47 over 512 candidates, so the
    # batch-512 index build, and with it peak memory, has the same shape on
    # every seed.
    synth = _synth(seed, 20, 5, 550)
    timed = Step(["experiment", "--corpus", "corpus.jsonl", "--qa", "qa.jsonl", "--out", "exp",
                  "--config", "grid.json", "--force"], check_report("exp/report.json"))
    return Plan([synth], timed, files={"grid.json": json.dumps(grid, indent=1)})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pretrain",
            "ict+bfs+wlp pre-training at default shapes on 500 articles: encoder forward and backward, "
            "loss and Adam; no ranking runs, so a ranking change predicts no change here",
            plan_pretrain,
        ),
        Workload(
            "retrieve-dense",
            "dense eval of a 1-step checkpoint, 360 queries against ~2.3k candidates: batch-512 "
            "forward-only index build plus dense top-k; no backward, Adam or BM25",
            lambda seed, tiny: _plan_retrieve(seed, tiny, bm25=False),
        ),
        Workload(
            "retrieve-bm25",
            "bm25-eval on the same inputs as retrieve-dense: inverted-index build and BM25 top-k; "
            "the encoder does no work, so an encoder change predicts no change here",
            lambda seed, tiny: _plan_retrieve(seed, tiny, bm25=True),
        ),
        Workload(
            "experiment",
            "the headline table on a reduced grid: transformer x {none, mlm, ict+bfs+wlp} plus BM25, "
            "with MLM, finetune and validation every 2 steps; catches a stage sped up by slowing another",
            plan_experiment,
        ),
    )
}


# ------------------------------------------------------------------ runner


@dataclass
class Sample:
    wall: float
    rss_mb: float
    facts: dict


# One BLAS thread: at these matrix sizes a second thread buys under 5% of wall
# time, doubles CPU time and makes every timing depend on a neighbour's load.
BLAS_THREADS = 1


def environment(seed: Optional[int], threads: int) -> dict:
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "machine": platform.machine(),
    }


class Runner:
    """Runs commands one at a time in a work directory and counts operations."""

    def __init__(self, workdir: Path, threads: int, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failures: List[str] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TWOTOWER_")}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def run(self, step: Step, spans: Optional[Path] = None) -> Optional[Sample]:
        """Run one command (traced when `spans` is given) and check its outputs."""
        self.attempted += 1
        if spans is None:
            argv = [sys.executable, "-m", "twotower.cli", *step.argv]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(spans),
                    "--run-id", spans.stem, "--", *step.argv]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.fail(f"{step.name}: no time left in the run")
            return None
        log_path = self.workdir / "commands.log"
        with open(log_path, "ab") as log:
            log.write(f"$ twotower {' '.join(step.argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the command before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{step.name}: exit code {proc.returncode}: {' | '.join(tail)}")
            return None
        try:
            facts = step.check(self.workdir)
        except CheckFailed as exc:
            self.fail(f"{step.name}: {exc}")
            return None
        return Sample(wall, usage.ru_maxrss / 1024.0, facts)


def _timed_rounds(seconds: float, round_fn: Callable[[], Optional[float]]) -> None:
    """Call round_fn MIN_ROUNDS times, then until `seconds` are used; it returns
    the round's length, or None to stop. Past the minimum another round starts
    while half of one more still fits, so a run overshoots `seconds` by at most
    half a round."""
    start = time.perf_counter()
    rounds = 0
    while True:
        length = round_fn()
        rounds += 1
        if length is None:
            return
        if rounds >= MIN_ROUNDS and time.perf_counter() - start + length / 2 > seconds:
            return


@dataclass
class Result:
    workload: str
    env: dict
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, dict] = field(default_factory=dict)
    figures: Dict[str, dict] = field(default_factory=dict)  # named figures for people
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.metrics)


def _figure(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _named_figures(workload: str, plan: Plan, samples: List[Sample]) -> Dict[str, dict]:
    n = len(samples)
    wall = statistics.median(s.wall for s in samples)
    facts = samples[0].facts
    if workload == "pretrain":
        return {"pretrain_pairs_per_s": _figure(plan.work_items / wall, "1/s", n)}
    if workload == "experiment":
        table = facts["table"]
        out = {"experiment_s": _figure(wall, "s", n)}
        out["table_recall_at_100"] = _figure(table["transformer/ict+bfs+wlp"]["100"], "ratio", n)
        for cell in ("transformer/none", "transformer/mlm", "bm25/none"):
            out[f"table_recall_at_100[{cell}]"] = _figure(table[cell]["100"], "ratio", n)
        out["table_test_queries"] = _figure(facts["n_queries"], "count", n)
        return out
    kind = "bm25" if workload.endswith("bm25") else "dense"
    return {
        f"{kind}_eval_s": _figure(wall, "s", n),
        f"{kind}_recall_at_100": _figure(facts["recalls"]["100"], "ratio", n),
        "queries": _figure(facts["n_queries"], "count", n),
        "candidates": _figure(facts["n_candidates"], "count", n),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    workload = WORKLOADS[name]
    plan = workload.plan(seed, tiny)
    result = Result(name, environment(seed, BLAS_THREADS))
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for filename, text in plan.files.items():
        (workdir / filename).write_text(text, encoding="utf-8")
    runner = Runner(workdir, BLAS_THREADS, time.monotonic() + RUN_DEADLINE_S)
    expected = None if tiny else load_reference(name, seed)
    result.notes["reference"] = expected is not None
    try:
        if trace:
            _measure_traced(runner, plan, seconds, result, expected)
        else:
            _measure(runner, plan, seconds, result, expected)
    finally:
        result.attempted = runner.attempted
        result.failed = len(runner.failures)
        result.notes["failures"] = runner.failures
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _accept(runner: Runner, step: Step, sample: Optional[Sample], earlier: List[Sample],
            expected: Optional[dict]) -> Optional[Sample]:
    """Keep a sample only if it repeats the earlier samples' outputs exactly
    and, for a seed with reference recalls, reproduces them."""
    if sample is None:
        return None
    if earlier and sample.facts != earlier[0].facts:
        runner.fail(f"{step.name}: outputs differ between identical runs: {earlier[0].facts} vs {sample.facts}")
        return None
    if expected is not None:
        try:
            check_reference(sample.facts, expected)
        except CheckFailed as exc:
            runner.fail(f"{step.name}: {exc}")
            return None
    return sample


def _measure(runner: Runner, plan: Plan, seconds: float, result: Result, expected: Optional[dict]) -> None:
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        samples = [runner.run(step) for step in plan.setup]
        if any(s is None for s in samples):
            return
        setup_walls.append(sum(s.wall for s in samples))
    timed: List[Sample] = []

    def one() -> Optional[float]:
        sample = _accept(runner, plan.timed, runner.run(plan.timed), timed, expected)
        if sample is None:
            return None
        timed.append(sample)
        return sample.wall

    _timed_rounds(seconds, one)
    if not timed or runner.failures:
        return
    n = len(timed)
    values = {
        "command_s": (statistics.median(s.wall for s in timed), n),
        "peak_rss_mb": (max(s.rss_mb for s in timed), n),
        "setup_s": (statistics.median(setup_walls), len(setup_walls)),
    }
    result.metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}
    result.notes["samples"] = {k: n_k for k, (_, n_k) in values.items()}
    result.notes["walls"] = [s.wall for s in timed]
    result.notes["setup_walls"] = setup_walls
    result.notes["facts"] = timed[0].facts
    result.figures = _named_figures(result.workload, plan, timed)


def _measure_traced(runner: Runner, plan: Plan, seconds: float, result: Result,
                    expected: Optional[dict]) -> None:
    passes: List[List[tracing.Span]] = []
    traced_walls: List[float] = []
    untraced: List[Sample] = []
    gaps: List[str] = []

    def one() -> Optional[float]:
        start = time.perf_counter()
        spans: List[tracing.Span] = []
        for i, step in enumerate(plan.setup + [plan.timed]):
            path = runner.workdir / f"spans-{len(passes)}-{i}-{step.name}.json"
            sample = runner.run(step, spans=path)
            if step is plan.timed:
                sample = _accept(runner, step, sample, untraced, expected)
            if sample is None:
                return None
            with open(path, encoding="utf-8") as f:
                dump = json.load(f)
            spans.extend(tracing.load_spans(dump))
            gaps.extend(g for g in dump["gaps"] if g not in gaps)
        traced_walls.append(sample.wall)
        plain = _accept(runner, plan.timed, runner.run(plan.timed), [sample], None)
        if plain is None:
            return None
        untraced.append(plain)
        passes.append(spans)
        return time.perf_counter() - start

    _timed_rounds(seconds, one)
    if not passes or runner.failures:
        return
    values, notes = tracing.layer_metrics(passes)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(s.wall for s in untraced)
    result.metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracing.LAYER_METRICS.items()}
    result.notes.update(notes)
    result.notes["gaps"] = gaps
    result.notes["traced_walls"] = traced_walls
    result.notes["untraced_walls"] = [s.wall for s in untraced]


# ------------------------------------------------------------------ output


def _print_result(result: Result) -> None:
    env = result.env
    print(f"== workload {result.workload}  seed {env['seed']}  BLAS threads {env['blas_threads']}  "
          f"nproc {env['nproc']}  numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}")
    samples = result.notes.get("samples", {})
    for name, metric in result.metrics.items():
        n = samples.get(name, result.notes.get("passes", ""))
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<8} n={n}")
    for name, fig in result.figures.items():
        print(f"  {name:<44} {fig['value']:>14.6g} {fig['unit']:<8} n={fig['n']}")
    if "steps" in result.notes:
        print(f"  optimizer steps timed per loop {result.notes['steps']}; "
              f"training.step_ms.tail is p{result.notes['step_ms_tail_percentile']:.0f}")
    for gap in result.notes.get("gaps", []):
        print(f"  gap: {gap}")
    if not result.notes["reference"] and result.workload in REFERENCE_WORKLOADS:
        print(f"  no reference recalls for seed {env['seed']}: recalls checked against floors only")
    print(f"  operations attempted {result.attempted}, failed {result.failed}")


def _save(result: Result, trace: bool) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": result.workload,
        "trace": trace,
        "env": result.env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "figures": result.figures,
        "notes": result.notes,
    }
    path = out / f"{result.workload}-seed{result.env['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "twotower" / "cli.py").is_file():
        print(f"error: no twotower sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        _print_result(result)
        _save(result, bool(args.trace))
        results.append(result)
    prefix = len(results) > 1
    line = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            (f"{r.workload}.{k}" if prefix else k): v for r in results for k, v in r.metrics.items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
