"""Retrieval QA benchmark: candidate construction, cold-start splits,
open-domain augmentation, recall@k evaluation, and the experiment grid.
Gold and distractor candidates alike are built from a tokenized store's
sentence and passage token ids; no candidate text is tokenized again.

One cell of the recall table runs four stage functions, which the CLI
commands call too, so a chain of commands and `run_experiment` compute the
same cell the same way: `pretrain_model` (none, mlm or a pair mixture),
`finetune_model`, `with_distractors` (the open-domain candidate pool) and
`evaluate_system` (a `TwoTower`, or BM25 for None, over one candidate pool).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

try:
    import resource
except ImportError:  # a platform without getrusage (Windows)
    resource = None

from . import retrieval
from .corpus import NUM_SPECIALS, CorpusStore, Vocabulary, build_vocab, tokenize, tokenize_corpus
from .encoders import ARCH_TRANSFORMER, EncoderConfig, TwoTower
from .pairs import (
    PRETRAIN_TASKS,
    TASK_FINETUNE,
    PretrainPair,
    make_doc_input,
    make_query_input,
    passage_body,
    sample_mixture,
)
from .training import TrainRunConfig, finetune, mlm_pretrain, pretrain
from .util import canonical_json, fork_map, sha256_bytes, subrng

TASK_NONE = "none"
TASK_MLM = "mlm"
DEFAULT_KS = (1, 5, 10, 50, 100)


@dataclass
class QaEntry:
    question: str
    answer: str
    passage_id: int


@dataclass
class Candidate:
    """A (sentence, passage) answer candidate. BM25 matches the sentence then
    the passage; the doc tower reads them as `[CLS] sentence [SEP] passage`,
    cut to its own length."""

    id: int
    sentence_index: int
    passage_id: int
    sentence_tokens: List[int]
    passage_tokens: List[int]

    def doc_input(self, doc_max_len: int) -> List[int]:
        return make_doc_input(self.sentence_tokens, self.passage_tokens, doc_max_len)


@dataclass
class ReqaExample:
    question: str
    question_tokens: List[int]
    gold_id: int


@dataclass
class Split:
    train: List[ReqaExample]
    validation: List[ReqaExample]
    test: List[ReqaExample]
    ratio_label: str


@dataclass
class EvalReport:
    recalls: Dict[int, float]
    n_candidates: int
    n_queries: int


def read_qa_entries(lines: Iterable[str]) -> List[QaEntry]:
    entries = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = json.loads(line)
        for key in ("q", "a", "pid"):
            if key not in record:
                raise ValueError(f"QA line {lineno}: missing field {key!r}")
        entries.append(QaEntry(record["q"], record["a"], record["pid"]))
    return entries


def write_qa_entries(out, entries: Iterable[QaEntry]) -> None:
    for entry in entries:
        out.write(
            json.dumps({"q": entry.question, "a": entry.answer, "pid": entry.passage_id}) + "\n"
        )


def build_reqa(
    entries: Sequence[QaEntry],
    store: CorpusStore,
    vocab: Vocabulary,
    query_max_len: int,
) -> Tuple[List[ReqaExample], List[Candidate], int]:
    """Expand referenced passages into (sentence, passage) candidates and map
    each entry to the first sentence containing its answer span.

    Entries whose answer is not contained in any single sentence are dropped;
    the dropped count is returned.
    """
    referenced = sorted({e.passage_id for e in entries})
    for pid in referenced:
        if pid not in store.passages:
            raise ValueError(f"QA entry references unknown passage id {pid}")
    candidates: List[Candidate] = []
    lookup: Dict[Tuple[int, int], int] = {}
    for pid in referenced:
        passage = store.passages[pid]
        passage_ids = passage_body(passage)
        for i, sentence in enumerate(passage.sentences):
            cid = len(candidates)
            lookup[(pid, i)] = cid
            candidates.append(Candidate(cid, i, pid, sentence.token_ids, passage_ids))
    examples: List[ReqaExample] = []
    dropped = 0
    for entry in entries:
        passage = store.passages[entry.passage_id]
        gold = None
        for i, sentence in enumerate(passage.sentences):
            if entry.answer in sentence.text:
                gold = lookup[(entry.passage_id, i)]
                break
        if gold is None:
            dropped += 1
            continue
        examples.append(
            ReqaExample(
                question=entry.question,
                question_tokens=make_query_input(tokenize(entry.question, vocab), query_max_len),
                gold_id=gold,
            )
        )
    return examples, candidates, dropped


def _positive_ints(values) -> List[int]:
    """The values of a list or tuple of integers >= 1, else []."""
    values = list(values) if isinstance(values, (list, tuple)) else []
    ok = all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values)
    return values if ok else []


def check_ratio(ratio: Sequence[int]) -> Tuple[int, int]:
    """The (train%, test%) of a split ratio; ValueError unless it is two
    positive integers that sum to 100."""
    parts = _positive_ints(ratio)
    if len(parts) != 2 or sum(parts) != 100:
        raise ValueError(f"invalid split ratio {ratio!r}: expected two positive integers summing to 100")
    return parts[0], parts[1]


def _check_distinct(name: str, values: Sequence) -> None:
    """ValueError naming the first value that `values` holds twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} names {value!r} more than once")


def check_ks(ks: Sequence[int]) -> List[int]:
    """The recall cut-offs; ValueError unless they are a non-empty list of
    distinct integers >= 1."""
    if not _positive_ints(ks):
        raise ValueError(f"invalid ks {ks!r}: expected a non-empty list of integers >= 1")
    _check_distinct("ks", ks)
    return list(ks)


def make_split(
    examples: Sequence[ReqaExample], ratio: Tuple[int, int], seed: int
) -> Split:
    """Shuffle unique questions, send the first train% to the training pool
    and the rest to test; 10% of the training pool becomes validation.

    Duplicate question strings are co-assigned, so no question appears in
    two parts.
    """
    train_pct, test_pct = check_ratio(ratio)
    groups: Dict[str, List[ReqaExample]] = {}
    order: List[str] = []
    for example in examples:
        if example.question not in groups:
            groups[example.question] = []
            order.append(example.question)
        groups[example.question].append(example)
    rng = subrng(seed, "split", train_pct, test_pct)
    shuffled = [order[i] for i in rng.permutation(len(order))]
    n_train = int(len(shuffled) * train_pct / 100 + 0.5)
    n_val = int(n_train * 0.10 + 0.5)
    train_qs = shuffled[: n_train - n_val]
    val_qs = shuffled[n_train - n_val : n_train]
    test_qs = shuffled[n_train:]
    if not train_qs or not val_qs or not test_qs:
        raise ValueError(f"split {ratio} leaves an empty part ({len(shuffled)} unique questions)")
    flat = lambda qs: [ex for q in qs for ex in groups[q]]
    return Split(
        train=flat(train_qs),
        validation=flat(val_qs),
        test=flat(test_qs),
        ratio_label=f"{train_pct}/{test_pct}",
    )


def evaluate(
    ranked: Sequence[retrieval.RankedList],
    gold_ids: Sequence[int],
    ks: Sequence[int] = DEFAULT_KS,
    n_candidates: int = 0,
) -> EvalReport:
    """recall@k = fraction of queries whose gold id is in the top k."""
    if len(ranked) != len(gold_ids):
        raise ValueError("one ranked list per query is required")
    recalls = {
        k: sum(gold in rlist.ids[:k] for rlist, gold in zip(ranked, gold_ids)) / len(gold_ids)
        for k in ks
    }
    return EvalReport(recalls=recalls, n_candidates=n_candidates, n_queries=len(gold_ids))


@dataclass
class ExperimentConfig:
    ratios: List[List[int]] = field(default_factory=lambda: [[80, 20]])
    encoders: List[str] = field(default_factory=lambda: [ARCH_TRANSFORMER])
    tasks: List[str] = field(default_factory=lambda: [TASK_NONE, TASK_MLM, "ict+bfs+wlp"])
    seeds: List[int] = field(default_factory=lambda: [7])
    include_bm25: bool = True
    augment_limit: int = 0
    ks: List[int] = field(default_factory=lambda: list(DEFAULT_KS))
    # encoder hyper-parameters
    num_layers: int = 2
    hidden_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 256
    emb_dim: int = 32
    query_max_len: int = 16
    doc_max_len: int = 48
    dtype: str = "float32"
    # training hyper-parameters
    pretrain_steps: int = 800
    finetune_steps: int = 300
    batch_size: int = 32
    pretrain_lr: float = 1e-3
    finetune_lr: float = 5e-4
    eval_every: int = 50
    patience: int = 5
    # vocabulary
    vocab_max_size: int = 8192

    def __post_init__(self):
        # The whole grid is checked before any work; the vocabulary size is
        # not known yet, so the smallest valid one stands in.
        if not self.seeds or not self.ratios:
            raise ValueError("seeds and ratios must not be empty")
        for name in ("seeds", "ratios", "encoders", "tasks"):
            _check_distinct(name, getattr(self, name))
        for ratio in self.ratios:
            check_ratio(ratio)
        check_ks(self.ks)
        if self.augment_limit < 0:
            raise ValueError(f"augment_limit must be >= 0, got {self.augment_limit}")
        if self.vocab_max_size <= NUM_SPECIALS:
            raise ValueError(f"vocab_max_size must be > {NUM_SPECIALS}, got {self.vocab_max_size}")
        for task in self.tasks:
            parse_task_spec(task)
        for arch in self.encoders:
            self.encoder_config(arch, NUM_SPECIALS)
        self.pretrain_config(self.seeds[0])
        self.finetune_config(self.seeds[0])
        if not self.include_bm25 and not any(
            _has_cell(arch, task) for arch in self.encoders for task in self.tasks
        ):
            raise ValueError("the grid has no cell: no encoder/task pair to train and include_bm25 is false")

    def encoder_config(self, arch: str, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(
            arch=arch,
            num_layers=self.num_layers,
            hidden_dim=self.hidden_dim,
            num_heads=self.num_heads,
            ff_dim=self.ff_dim,
            emb_dim=self.emb_dim,
            vocab_size=vocab_size,
            query_max_len=self.query_max_len,
            doc_max_len=self.doc_max_len,
            dtype=self.dtype,
        )

    def pretrain_config(self, seed: int) -> TrainRunConfig:
        return TrainRunConfig(
            batch_size=self.batch_size,
            total_steps=self.pretrain_steps,
            seed=seed,
            lr_peak=self.pretrain_lr,
        )

    def finetune_config(self, seed: int) -> TrainRunConfig:
        return TrainRunConfig(
            batch_size=self.batch_size,
            total_steps=self.finetune_steps,
            seed=seed,
            lr_peak=self.finetune_lr,
            eval_every=self.eval_every,
            patience=self.patience,
        )


def _has_cell(arch: str, task: str) -> bool:
    """Whether the grid has an (arch, task) cell: the token-masking baseline
    is defined for the transformer only."""
    return task != TASK_MLM or arch == ARCH_TRANSFORMER


def parse_task_spec(
    spec: str, accept: Sequence[str] = (TASK_NONE, TASK_MLM)
) -> Optional[Tuple[str, ...]]:
    """The pair mixture, a tuple of task names, that a '+'-joined subset of
    the pre-training tasks names, or None for a spec in `accept` (none and
    mlm generate no pairs).

    Any other spec, a task named twice included, raises ValueError naming
    what is accepted.
    """
    if spec in accept:
        return None
    tasks = spec.split("+")
    if set(tasks) - set(PRETRAIN_TASKS):
        raise ValueError(
            f"task spec {spec!r}: expected {''.join(a + ' or ' for a in accept)}"
            f"a '+'-joined subset of {', '.join(PRETRAIN_TASKS)}"
        )
    repeated = sorted({t for t in tasks if tasks.count(t) > 1})
    if repeated:
        raise ValueError(f"task spec {spec!r} names {', '.join(repeated)} more than once")
    return tuple(tasks)


def dense_candidates(candidates: Sequence[Candidate], doc_max_len: int) -> List[Tuple[int, List[int]]]:
    """The (id, doc tower input) pairs that dense ranking scores, each cut to
    the doc tower's `doc_max_len`."""
    return [(c.id, c.doc_input(doc_max_len)) for c in candidates]


def finetune_pairs(
    split_part: Sequence[ReqaExample], candidates: Sequence[Candidate], doc_max_len: int
) -> List[PretrainPair]:
    by_id = {c.id: c for c in candidates}
    return [
        PretrainPair(
            query=ex.question_tokens,
            doc=by_id[ex.gold_id].doc_input(doc_max_len),
            task=TASK_FINETUNE,
            source=(-1, by_id[ex.gold_id].passage_id, by_id[ex.gold_id].sentence_index),
        )
        for ex in split_part
    ]


def pretrain_model(
    task: str,
    enc_cfg: EncoderConfig,
    train_cfg: TrainRunConfig,
    store: CorpusStore,
    metrics_out=None,
) -> TwoTower:
    """The model a task spec pre-trains: `none` is the seeded initialisation,
    `mlm` the masked-token baseline, any other spec contrastive pre-training
    on the pair mixture it names."""
    if task == TASK_NONE:
        return TwoTower.init(enc_cfg, train_cfg.seed)
    if task == TASK_MLM:
        model, _ = mlm_pretrain(train_cfg, enc_cfg, store, metrics_out)
        return model
    stream = sample_mixture(
        store,
        parse_task_spec(task),
        train_cfg.total_steps * train_cfg.batch_size,
        subrng(train_cfg.seed, "pairs", task),
        enc_cfg.query_max_len,
        enc_cfg.doc_max_len,
    )
    model, _ = pretrain(train_cfg, enc_cfg, stream, metrics_out)
    return model


def finetune_model(
    model: TwoTower,
    train_cfg: TrainRunConfig,
    split: Split,
    candidates: Sequence[Candidate],
    metrics_out=None,
) -> Tuple[TwoTower, List[dict], retrieval.DenseIndex]:
    """Fine-tune on the split's training questions, selecting the checkpoint
    by validation recall over the candidates; returns (model, history, the
    model's index of `dense_candidates(candidates, doc_max_len)`).

    The batch is at most the number of training questions (and at least 2):
    a larger one would hold some pairs twice."""
    batch_size = min(train_cfg.batch_size, max(2, len(split.train)))
    doc_max_len = model.config.doc_max_len
    return finetune(
        model,
        replace(train_cfg, batch_size=batch_size),
        finetune_pairs(split.train, candidates, doc_max_len),
        [ex.question_tokens for ex in split.validation],
        [ex.gold_id for ex in split.validation],
        dense_candidates(candidates, doc_max_len),
        metrics_out,
    )


def with_distractors(
    store: CorpusStore,
    entries: Sequence[QaEntry],
    candidates: Sequence[Candidate],
    limit: int,
    seed: int,
) -> List[Candidate]:
    """The candidates plus up to `limit` distractors (none when `limit` <= 0):
    sentences of the passages no QA entry references, in a seeded order, each
    built as `build_reqa` builds a gold candidate, with a fresh id,
    `sentence_index` 0 and passage id -1, -2, ..."""
    out = list(candidates)
    if limit <= 0:
        return out
    referenced = {e.passage_id for e in entries}
    unreferenced = [store.passages[pid] for pid in sorted(store.passages) if pid not in referenced]
    pool = [(sentence, passage) for passage in unreferenced for sentence in passage.sentences]
    next_id = max((c.id for c in out), default=-1) + 1
    for n, i in enumerate(subrng(seed, "distractors").permutation(len(pool))[:limit]):
        sentence, passage = pool[i]
        out.append(Candidate(next_id + n, 0, -(n + 1), sentence.token_ids, passage_body(passage)))
    return out


def evaluate_system(
    model: Optional[TwoTower],
    pool: Sequence[Candidate],
    part: Sequence[ReqaExample],
    ks: Sequence[int],
    index: Optional[retrieval.DenseIndex] = None,
) -> EvalReport:
    """recall@k of the part's questions over the candidate pool, ranked by the
    dense model, or by BM25 over whole candidates when `model` is None. A
    dense model ranks against `index`, its index of
    `dense_candidates(pool, doc_max_len)`, or against one built here when
    that is None."""
    queries = [ex.question_tokens for ex in part]
    if model is not None:
        if index is None:
            docs = dense_candidates(pool, model.config.doc_max_len)
            index = retrieval.build_dense_index(model, [cid for cid, _ in docs], [seq for _, seq in docs])
        ranked = retrieval.rank_dense(model, index, queries, max(ks))
    else:
        index = retrieval.InvertedIndex([(c.id, c.sentence_tokens + c.passage_tokens) for c in pool])
        ranked = [retrieval.bm25_topk(index, q, max(ks)) for q in queries]
    return evaluate(ranked, [ex.gold_id for ex in part], ks, n_candidates=len(pool))


# A unit of the grid is labelled (seed, encoder, task); each seed's BM25 cells
# form the unit (seed, "bm25", "none").
Unit = Tuple[int, str, str]
_BM25 = "bm25"


@dataclass(frozen=True)
class _Grid:
    """What every unit of a `run_experiment` grid reads and no unit writes."""

    cfg: ExperimentConfig
    store: CorpusStore
    vocab_size: int
    # (augmented, candidate pool) for the un-augmented pool and, with
    # `augment_limit` > 0, the pool with distractors.
    pools: List[Tuple[bool, List[Candidate]]]
    splits: Dict[int, List[Split]]
    log: Callable[[str], None]


def run_unit(grid: _Grid, unit: Unit) -> Tuple[List[dict], dict]:
    """The cells of one unit, and its timings: a dense unit is one pretrain,
    then a finetune and the test evals of each split; a BM25 unit is the test
    evals of each split. The timings hold the unit's label, the seconds of
    its pretrain (None for BM25), of each finetune and of each eval, each
    finetune's validation checks as [step, recall@10] and the step it
    selected, the earliest check of the highest recall, and the minor page
    faults the process took meanwhile (None where the platform does not
    count them)."""
    seed, encoder, task = unit
    cfg = grid.cfg
    faults = _minor_faults()
    timings = {"seed": seed, "encoder": encoder, "task": task, "pretrain_s": None,
               "finetune_s": [], "val_checks": [], "selected_step": [], "eval_s": []}
    cells: List[dict] = []

    # `model` is None for BM25; `index` is a dense model's index of the
    # un-augmented pool.
    def add_cells(split: Split, model: Optional[TwoTower], index=None) -> None:
        for augmented, pool in grid.pools:
            start = time.perf_counter()
            report = evaluate_system(model, pool, split.test, cfg.ks, None if augmented else index)
            timings["eval_s"].append(time.perf_counter() - start)
            labels = (split.ratio_label, encoder, task, seed, augmented)
            payload = canonical_json({"config": asdict(cfg), "cell": labels})
            cells.append(
                {
                    "ratio": split.ratio_label,
                    "encoder": encoder,
                    "task": task,
                    "seed": seed,
                    "augmented": augmented,
                    "recalls": {str(k): report.recalls[k] for k in cfg.ks},
                    "n_candidates": report.n_candidates,
                    "n_queries": report.n_queries,
                    "fingerprint": sha256_bytes(payload.encode())[:16],
                }
            )

    if encoder == _BM25:
        for split in grid.splits[seed]:
            add_cells(split, None)
    else:
        if task != TASK_NONE:
            grid.log(f"pretrain[{seed}] {encoder}/{task}: {cfg.pretrain_steps} steps")
        start = time.perf_counter()
        enc_cfg = cfg.encoder_config(encoder, grid.vocab_size)
        pretrained = pretrain_model(task, enc_cfg, cfg.pretrain_config(seed), grid.store)
        timings["pretrain_s"] = time.perf_counter() - start
        for split in grid.splits[seed]:
            grid.log(f"finetune[{seed}] {encoder}/{task} @ {split.ratio_label}")
            start = time.perf_counter()
            best, history, index = finetune_model(
                pretrained, cfg.finetune_config(seed), split, grid.pools[0][1]
            )
            timings["finetune_s"].append(time.perf_counter() - start)
            checks = [[h["step"], h["val_recall"]] for h in history if "val_recall" in h]
            timings["val_checks"].append(checks)
            timings["selected_step"].append(max(checks, key=lambda check: check[1])[0])
            add_cells(split, best, index)
    timings["minflt"] = None if faults is None else _minor_faults() - faults
    return cells, timings


def _minor_faults() -> Optional[int]:
    """The minor page faults this process has taken, or None where the
    platform does not count them."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_experiment(
    store: CorpusStore,
    entries: Sequence[QaEntry],
    cfg: ExperimentConfig,
    log: Callable[[str], None] = lambda msg: print(msg, file=sys.stderr),
    stats: Optional[dict] = None,
) -> dict:
    """Execute the (split ratio x encoder x pre-training task) grid and
    return the full report as a JSON-serializable dict.

    The grid runs as units (see `run_unit`): for each seed, one per
    (encoder, task) cell, then one for its BM25 cells. The units run through
    `util.fork_map`, in worker processes, at most one per unit and one per
    usable CPU over the BLAS threads of a process (`util._worker_budget`):
    one per CPU with OPENBLAS_NUM_THREADS=1, and none by default or under
    `taskset -c 0`, where the units run one after another in this process.
    Threads for encodes, forks for grid units: a unit's index and query
    encodes run serially in a worker, and a grid of one unit, run here,
    encodes on threads as `retrieval._encode_all` says.
    Each worker adds about one unit's working set to the memory the command
    takes. Workers are forked after the corpus, candidates and splits are
    built, so a worker receives only unit labels and returns only cells and
    timings. Cells are joined in unit order, so the report never depends on
    which unit finished first. A unit's exception is raised here. `stats`,
    when given, receives the worker count and each unit's timings, in unit
    order."""
    vocab = build_vocab(store, cfg.vocab_max_size)
    tokenize_corpus(store, vocab)
    examples, candidates, dropped = build_reqa(entries, store, vocab, cfg.query_max_len)
    log(f"benchmark: {len(examples)} examples, {len(candidates)} candidates, {dropped} dropped")
    pools = [(False, candidates)]
    if cfg.augment_limit > 0:
        augmented = with_distractors(store, entries, candidates, cfg.augment_limit, cfg.seeds[0])
        log(f"augmentation: +{len(augmented) - len(candidates)} distractors")
        pools.append((True, augmented))
    splits = {seed: [make_split(examples, tuple(r), seed) for r in cfg.ratios] for seed in cfg.seeds}
    grid = _Grid(cfg, store, len(vocab), pools, splits, log)
    units: List[Unit] = []
    for seed in cfg.seeds:
        units += [(seed, arch, task) for arch in cfg.encoders for task in cfg.tasks if _has_cell(arch, task)]
        if cfg.include_bm25:
            units.append((seed, _BM25, TASK_NONE))

    results, workers = fork_map(functools.partial(run_unit, grid), units)
    cells = [cell for unit_cells, _ in results for cell in unit_cells]
    if stats is not None:
        stats.update(workers=workers, units=[timings for _, timings in results])

    return {
        "config": asdict(cfg),
        "benchmark": {
            "n_examples": len(examples),
            "n_candidates": len(candidates),
            "n_dropped": dropped,
            "vocab_size": len(vocab),
        },
        "cells": cells,
        "means": summarize_cells(cells, cfg.ks),
    }


def summarize_cells(cells: Sequence[dict], ks: Sequence[int]) -> List[dict]:
    """Mean recalls per (ratio, encoder, task, augmented) across seeds."""
    grouped: Dict[Tuple, List[dict]] = {}
    for cell in cells:
        key = (cell["ratio"], cell["encoder"], cell["task"], cell["augmented"])
        grouped.setdefault(key, []).append(cell)
    means = []
    for key in sorted(grouped, key=lambda item: tuple(str(x) for x in item)):
        members = grouped[key]
        means.append(
            {
                "ratio": key[0],
                "encoder": key[1],
                "task": key[2],
                "augmented": key[3],
                "n_seeds": len(members),
                "recalls": {
                    str(k): sum(m["recalls"][str(k)] for m in members) / len(members)
                    for k in ks
                },
            }
        )
    return means
