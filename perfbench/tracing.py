"""Span tracing of one in-process `twotower` CLI command, and the span
arithmetic that turns traced runs into per-layer metrics.

As a program it wraps every public function of the twotower modules, runs
`twotower.cli.main` on the arguments after `--` and writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py --spans out.json --run-id r1 -- \
        pretrain --corpus c.jsonl --vocab v.txt --out ckpt --steps 4

The wrappers are installed from outside: the program itself is unchanged.
`training` and `benchmark` import encoder and training functions by name, so
every module attribute bound to a wrapped function object is replaced, not
only the one in the defining module. Expected functions that cannot be found
(after a rename, say) are listed as gaps in the output instead of failing.

Counts such as FLOPs and real-token share are computed from the call
arguments' shapes inside the wrappers; they are not measured by hardware
counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

MODULES = ("cli", "synth", "corpus", "pairs", "encoders", "training", "retrieval", "benchmark", "util")

# Functions the per-layer metrics are built from.
EXPECTED = (
    "corpus.parse_corpus",
    "corpus.build_vocab",
    "corpus.tokenize_corpus",
    "pairs.sample_mixture",
    "pairs.gen_ict",
    "pairs.gen_bfs",
    "pairs.gen_wlp",
    "pairs.gen_mlm",
    "encoders.encode_with_cache",
    "encoders.backward_from_cache",
    "encoders.encode",
    "encoders.hidden_states",
    "encoders.hidden_backward",
    "training.pretrain",
    "training.mlm_pretrain",
    "training.finetune",
    "training.recall_at_k",
    "training.adam_step",
    "training.in_batch_softmax_loss",
    "retrieval.build_dense_index",
    "retrieval.dense_topk",
    "retrieval.bm25_topk",
    "retrieval.InvertedIndex",
    "benchmark.build_reqa",
    "benchmark.evaluate",
    "util.sha256_file",
    "util.save_tensors",
    "util.load_tensors",
)

PAIR_TASK_GENERATORS = ("pairs.gen_ict", "pairs.gen_bfs", "pairs.gen_wlp")
PAIR_GENERATION = ("pairs.sample_mixture", "pairs.gen_mlm") + PAIR_TASK_GENERATORS
TRAINING_LOOPS = {
    "training.pretrain": "pretrain",
    "training.mlm_pretrain": "mlm",
    "training.finetune": "finetune",
}
OPTIMIZER_STEP = "training.adam_step"
VALIDATION = "training.recall_at_k"


SpanId = Tuple[str, int]  # (run id, span number within the run)


@dataclasses.dataclass
class Span:
    id: SpanId
    parent: Optional[SpanId]
    name: str
    start: float
    end: float
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# ------------------------------------------------------------ shape counts


def _arg(args, kwargs, index: int, key: str):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else None


def _body_flops(cfg, batch: int, length: int) -> int:
    """Matmul FLOPs of the transformer body, 2 per multiply-add: QKV and output
    projections, attention scores and context, and the two FFN matmuls."""
    h, ff = cfg.hidden_dim, cfg.ff_dim
    per_layer = 8 * batch * length * h * h + 4 * batch * length * length * h + 4 * batch * length * h * ff
    return cfg.num_layers * per_layer


def _head_flops(cfg, batch: int) -> int:
    return 2 * batch * cfg.hidden_dim * cfg.emb_dim


def _batch_shape(batch) -> Tuple[int, int, int]:
    """(sequences, padded width, real tokens) of a batch as the encoder pads it."""
    lengths = [len(seq) for seq in batch]
    return len(lengths), max(lengths), sum(lengths)


def _count_forward(head: bool):
    def count(args, kwargs, ok):
        cfg = _arg(args, kwargs, 1, "config")
        b, width, real = _batch_shape(_arg(args, kwargs, 2, "batch"))
        attrs = {"seqs": b, "real_tokens": real, "padded_tokens": b * width}
        if cfg.arch == "transformer":
            attrs["flops"] = _body_flops(cfg, b, width) + (_head_flops(cfg, b) if head else 0)
        return attrs

    return count


def _count_backward_from_cache(args, kwargs, ok):
    cfg = _arg(args, kwargs, 1, "config")
    if cfg.arch != "transformer":
        return {}
    b, width = _arg(args, kwargs, 2, "cache")["ids"].shape
    return {"flops": 2 * (_body_flops(cfg, b, width) + _head_flops(cfg, b))}


def _count_hidden_backward(args, kwargs, ok):
    cfg = _arg(args, kwargs, 1, "config")
    b, width = _arg(args, kwargs, 3, "d_hidden").shape[:2]
    return {"flops": 2 * _body_flops(cfg, b, width)}


def _count_encode(args, kwargs, ok):
    return {"seqs": len(_arg(args, kwargs, 2, "batch"))}


def _count_index(args, kwargs, ok):
    return {"seqs": len(_arg(args, kwargs, 2, "candidates"))}


def _count_pair_attempt(args, kwargs, ok):
    return {"yield": 1 if ok else 0}


COUNTERS: Dict[str, Callable] = {
    "encoders.encode_with_cache": _count_forward(head=True),
    "encoders.hidden_states": _count_forward(head=False),
    "encoders.backward_from_cache": _count_backward_from_cache,
    "encoders.hidden_backward": _count_hidden_backward,
    "encoders.encode": _count_encode,
    "retrieval.build_dense_index": _count_index,
    **{name: _count_pair_attempt for name in PAIR_TASK_GENERATORS},
}


# ------------------------------------------------------------------ tracer


class Tracer:
    """Keeps spans in memory; `wrap` returns a timed stand-in for a function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[tuple] = []
        self.gaps: List[str] = []
        self._stack: List[int] = []
        self._next_id = 0

    def _close(self, sid, parent, name, start, end, attrs):
        self.spans.append((sid, parent, name, start, end, attrs))
        self._stack.pop()

    def _open(self) -> Tuple[int, Optional[int]]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _count(self, name, counter, args, kwargs, ok):
        if counter is None:
            return None
        try:
            return counter(args, kwargs, ok)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
            gap = f"{name}: cannot count from arguments ({type(exc).__name__}: {exc})"
            if gap not in self.gaps:
                self.gaps.append(gap)
            return None

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the time lands where the items are drawn.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid, parent = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, parent, name, start, time.perf_counter(), None)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._close(sid, parent, name, start, end, self._count(name, counter, args, kwargs, ok))

        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id, "gaps": self.gaps, "spans": self.spans}


def _wrappable_classes(module) -> Iterable[Tuple[str, type]]:
    for attr, obj in vars(module).items():
        if (
            inspect.isclass(obj)
            and not attr.startswith("_")
            and obj.__module__ == module.__name__
            and "__init__" in vars(obj)
            and not dataclasses.is_dataclass(obj)
            and not issubclass(obj, BaseException)
        ):
            yield attr, obj


def install(tracer: Tracer) -> List[str]:
    """Wrap the public functions and hand-written constructors of every
    twotower module; return the qualified names wrapped."""
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"twotower.{short}")
        except ImportError:
            tracer.gaps.append(f"twotower.{short}: module not found")
    names: List[str] = []
    wrappers: Dict[int, Callable] = {}  # id of the original function -> its wrapper
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
                names.append(f"{short}.{attr}")
        for attr, cls in _wrappable_classes(module):
            cls.__init__ = tracer.wrap(f"{short}.{attr}", vars(cls)["__init__"])
            names.append(f"{short}.{attr}")
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    tracer.gaps.extend(f"{name}: not found" for name in EXPECTED if name not in names)
    return sorted(names)


# ---------------------------------------------------------- span arithmetic


def load_spans(dump: dict) -> List[Span]:
    """Spans of one traced command, as written by main(), keyed by run id."""
    run = dump["run_id"]
    return [
        Span((run, sid), None if parent is None else (run, parent), name, start, end, attrs)
        for sid, parent, name, start, end, attrs in dump["spans"]
    ]


def self_times(spans: Sequence[Span]) -> Dict[SpanId, float]:
    """Span id -> duration minus the part of its interval that its children cover."""
    children: Dict[SpanId, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(span.id, ())):
            a, b = max(a, span.start), min(b, span.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[span.id] = span.duration - covered
    return out


def step_times(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Optimizer-step durations per training loop kind, in seconds.

    A step runs from the end of one optimizer update to the end of the next
    inside the same loop span, less any validation it contains. The first
    step of a loop also holds initialisation and is dropped.
    """
    by_parent: Dict[SpanId, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            by_parent[span.parent].append(span)
    out: Dict[str, List[float]] = defaultdict(list)
    for loop in spans:
        kind = TRAINING_LOOPS.get(loop.name)
        if kind is None:
            continue
        kids = by_parent.get(loop.id, [])
        ends = sorted(s.end for s in kids if s.name == OPTIMIZER_STEP)
        checks = [s for s in kids if s.name == VALIDATION]
        for previous, end in zip(ends, ends[1:]):
            inside = sum(s.duration for s in checks if s.start >= previous and s.end <= end)
            out[kind].append(end - previous - inside)
    return out


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it (median below 20)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# Per-layer metrics: name -> unit. A pass is one traced run of every command
# of a workload (set-up included); ".s" and count metrics are per pass.
LAYER_METRICS = {
    "encoders.encode_with_cache.ms_per_call": "ms",
    "encoders.encode_with_cache.gflop_per_s": "GFLOP/s",
    "encoders.backward_from_cache.ms_per_call": "ms",
    "encoders.backward_from_cache.gflop_per_s": "GFLOP/s",
    "encoders.encode.docs_per_s": "1/s",
    "encoders.hidden_states.ms_per_call": "ms",
    "encoders.hidden_backward.ms_per_call": "ms",
    "encoders.real_token_share": "ratio",
    "training.step_ms.p50": "ms",
    "training.step_ms.tail": "ms",
    **{f"training.{kind}_step_ms.p50": "ms" for kind in TRAINING_LOOPS.values()},
    "training.adam_step.ms_per_call": "ms",
    "training.in_batch_softmax_loss.ms_per_call": "ms",
    "training.pretrain.s": "s",
    "training.mlm_pretrain.s": "s",
    "training.finetune.s": "s",
    "training.recall_at_k.s": "s",
    "pairs.gen.s": "s",
    "pairs.gen.attempts": "count",
    "pairs.gen.yield_ratio": "ratio",
    "retrieval.build_dense_index.s": "s",
    "retrieval.build_dense_index.docs_per_s": "1/s",
    "retrieval.dense_topk.s": "s",
    "retrieval.dense_topk.us_per_call": "us",
    "retrieval.bm25_topk.s": "s",
    "retrieval.bm25_topk.us_per_call": "us",
    "retrieval.InvertedIndex.s": "s",
    "corpus.parse_corpus.s": "s",
    "corpus.build_vocab.s": "s",
    "corpus.tokenize_corpus.s": "s",
    "benchmark.build_reqa.s": "s",
    "benchmark.evaluate.s": "s",
    "util.sha256_file.s": "s",
    "util.save_tensors.s": "s",
    "util.load_tensors.s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: Sequence[Sequence[Span]]) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics over traced passes, plus notes (sample counts).

    A function a workload never calls reports 0 for its time, rate and count.
    """
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    attrs: Dict[str, float] = defaultdict(float)
    per_pass: List[Dict[str, float]] = []
    steps: Dict[str, List[float]] = defaultdict(list)
    for spans in passes:
        own = self_times(spans)
        names = {s.id: s.name for s in spans}
        this: Dict[str, float] = defaultdict(float)
        for span in spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            this[span.name + ".s"] += span.duration
            this[span.name.split(".")[0] + ".self_s"] += own[span.id]
            for key, value in (span.attrs or {}).items():
                attrs[f"{span.name}#{key}"] += value
                this[f"{span.name}#{key}"] += value
            if span.name in PAIR_GENERATION and names.get(span.parent) not in PAIR_GENERATION:
                this["pairs.gen.s"] += span.duration
            if span.name in PAIR_TASK_GENERATORS:
                this["pairs.gen.attempts"] += 1
        this["trace.spans"] = len(spans)
        per_pass.append(this)
        for kind, values in step_times(spans).items():
            steps[kind].extend(values)

    def median_pass(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in per_pass) if per_pass else 0.0

    def ms_per_call(name: str, scale: float = 1e3) -> float:
        return _ratio(total.get(name, 0.0), calls.get(name, 0)) * scale

    def attr(name: str, key: str) -> float:
        return attrs.get(f"{name}#{key}", 0.0)

    def per_second(name: str, key: str, scale: float = 1.0) -> float:
        return _ratio(attr(name, key), total.get(name, 0.0)) * scale

    yields = sum(attr(n, "yield") for n in PAIR_TASK_GENERATORS)
    attempts = sum(calls.get(n, 0) for n in PAIR_TASK_GENERATORS)
    forward = ("encoders.encode_with_cache", "encoders.hidden_states")
    real = sum(attr(n, "real_tokens") for n in forward)
    padded = sum(attr(n, "padded_tokens") for n in forward)
    all_steps = [v for values in steps.values() for v in values]
    tail_q = tail_percentile(len(all_steps))
    metrics = {
        "encoders.encode_with_cache.ms_per_call": ms_per_call("encoders.encode_with_cache"),
        "encoders.encode_with_cache.gflop_per_s": per_second("encoders.encode_with_cache", "flops", 1e-9),
        "encoders.backward_from_cache.ms_per_call": ms_per_call("encoders.backward_from_cache"),
        "encoders.backward_from_cache.gflop_per_s": per_second("encoders.backward_from_cache", "flops", 1e-9),
        "encoders.encode.docs_per_s": per_second("encoders.encode", "seqs"),
        "encoders.hidden_states.ms_per_call": ms_per_call("encoders.hidden_states"),
        "encoders.hidden_backward.ms_per_call": ms_per_call("encoders.hidden_backward"),
        "encoders.real_token_share": _ratio(real, padded),
        "training.step_ms.p50": percentile(all_steps, 50.0) * 1e3 if all_steps else 0.0,
        "training.step_ms.tail": percentile(all_steps, tail_q) * 1e3 if all_steps else 0.0,
        **{
            f"training.{kind}_step_ms.p50": percentile(steps[kind], 50.0) * 1e3 if steps.get(kind) else 0.0
            for kind in TRAINING_LOOPS.values()
        },
        "training.adam_step.ms_per_call": ms_per_call("training.adam_step"),
        "training.in_batch_softmax_loss.ms_per_call": ms_per_call("training.in_batch_softmax_loss"),
        "pairs.gen.attempts": median_pass("pairs.gen.attempts"),
        "pairs.gen.yield_ratio": _ratio(yields, attempts),
        "retrieval.build_dense_index.docs_per_s": per_second("retrieval.build_dense_index", "seqs"),
        "retrieval.dense_topk.us_per_call": ms_per_call("retrieval.dense_topk", 1e6),
        "retrieval.bm25_topk.us_per_call": ms_per_call("retrieval.bm25_topk", 1e6),
    }
    for name in LAYER_METRICS:
        if name not in metrics and name != "trace.overhead_s":
            metrics[name] = median_pass(name)
    notes = {
        "passes": len(per_pass),
        "steps": {kind: len(values) for kind, values in steps.items()},
        "step_ms_tail_percentile": tail_q,
        "calls": dict(sorted(calls.items())),
    }
    return metrics, notes


# --------------------------------------------------------------------- main


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write the spans to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the twotower arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id)
    install(tracer)
    cli = importlib.import_module("twotower.cli")
    code = cli.main(cli_args)
    with open(args.spans, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
