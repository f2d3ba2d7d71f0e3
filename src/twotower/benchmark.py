"""Retrieval QA benchmark: candidate construction, cold-start splits,
open-domain augmentation, recall@k evaluation, and the experiment grid.

One cell of the recall table runs four stage functions, which the CLI
commands call too, so a chain of commands and `run_experiment` compute the
same cell the same way: `pretrain_model` (none, mlm or a pair mixture),
`finetune_model`, `with_distractors` (the open-domain candidate pool) and
`evaluate_system` (a `TwoTower` or BM25 over one candidate pool).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

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
from .util import canonical_json, sha256_bytes, subrng

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
        passage = store.passage(pid)
        passage_ids = passage_body(passage)
        for i, sentence in enumerate(passage.sentences):
            cid = len(candidates)
            lookup[(pid, i)] = cid
            candidates.append(Candidate(cid, i, pid, sentence.token_ids, passage_ids))
    examples: List[ReqaExample] = []
    dropped = 0
    for entry in entries:
        passage = store.passage(entry.passage_id)
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


def check_ks(ks: Sequence[int]) -> List[int]:
    """The recall cut-offs; ValueError unless they are a non-empty list of
    integers >= 1."""
    if not _positive_ints(ks):
        raise ValueError(f"invalid ks {ks!r}: expected a non-empty list of integers >= 1")
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


def augment_open_domain(
    candidates: Sequence[Candidate],
    external: Iterable[Tuple[str, str]],
    limit: int,
    vocab: Vocabulary,
) -> List[Candidate]:
    """Append up to `limit` external (sentence, passage) texts as distractor
    candidates with fresh ids; existing candidates and gold ids are unchanged."""
    out = list(candidates)
    next_id = max((c.id for c in out), default=-1) + 1
    n_added = 0
    for sentence_text, passage_text in external:
        if n_added >= limit:
            break
        out.append(
            Candidate(
                id=next_id,
                sentence_index=0,
                passage_id=-(n_added + 1),
                sentence_tokens=tokenize(sentence_text, vocab),
                passage_tokens=tokenize(passage_text, vocab),
            )
        )
        next_id += 1
        n_added += 1
    return out


def sample_distractors(
    store: CorpusStore, exclude_pids: Iterable[int], limit: int, seed: int
) -> List[Tuple[str, str]]:
    """(sentence, passage) texts drawn from passages no QA entry references."""
    excluded = set(exclude_pids)
    pool = [
        (sentence.text, passage.text)
        for pid in sorted(store.passages)
        if pid not in excluded
        for passage in [store.passage(pid)]
        for sentence in passage.sentences
    ]
    rng = subrng(seed, "distractors")
    order = rng.permutation(len(pool))
    return [pool[i] for i in order[:limit]]


def evaluate(
    ranked: Sequence[Optional[retrieval.RankedList]],
    gold_ids: Sequence[int],
    ks: Sequence[int] = DEFAULT_KS,
    n_candidates: int = 0,
) -> EvalReport:
    """recall@k = fraction of queries whose gold id is in the top k."""
    if len(ranked) != len(gold_ids):
        raise ValueError("one ranked list per query is required")
    positions = []
    for i, (rlist, gold) in enumerate(zip(ranked, gold_ids)):
        if rlist is None:
            raise ValueError(f"missing ranked list for query {i}")
        try:
            positions.append(rlist.ids.index(gold))
        except ValueError:
            positions.append(len(rlist.ids) + max(ks))
    recalls = {k: sum(1 for p in positions if p < k) / len(positions) for k in ks}
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
    warmup_fraction: float = 0.1
    eval_every: int = 50
    patience: int = 5
    # vocabulary
    vocab_max_size: int = 8192
    vocab_min_freq: int = 1
    # bm25
    bm25_k1: float = 1.2
    bm25_b: float = 0.75

    def __post_init__(self):
        # The whole grid is checked before any work; the vocabulary size is
        # not known yet, so the smallest valid one stands in.
        if not self.seeds or not self.ratios:
            raise ValueError("seeds and ratios must not be empty")
        for ratio in self.ratios:
            check_ratio(ratio)
        check_ks(self.ks)
        if self.augment_limit < 0:
            raise ValueError(f"augment_limit must be >= 0, got {self.augment_limit}")
        for task in self.tasks:
            parse_task_spec(task)
        for arch in self.encoders:
            self.encoder_config(arch, NUM_SPECIALS)
        self.pretrain_config(self.seeds[0])
        self.finetune_config(self.seeds[0])
        self.bm25_params()
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
            warmup_fraction=self.warmup_fraction,
        )

    def finetune_config(self, seed: int) -> TrainRunConfig:
        return TrainRunConfig(
            batch_size=self.batch_size,
            total_steps=self.finetune_steps,
            seed=seed,
            lr_peak=self.finetune_lr,
            warmup_fraction=self.warmup_fraction,
            eval_every=self.eval_every,
            patience=self.patience,
        )

    def bm25_params(self) -> retrieval.BM25Params:
        return retrieval.BM25Params(k1=self.bm25_k1, b=self.bm25_b)


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
) -> Tuple[TwoTower, List[dict]]:
    """Fine-tune on the split's training questions, selecting the checkpoint
    by validation recall over the candidates; returns (model, history).

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
    vocab: Vocabulary,
) -> List[Candidate]:
    """The candidates plus up to `limit` distractors drawn from the passages
    no QA entry references (none when `limit` <= 0)."""
    if limit <= 0:
        return list(candidates)
    referenced = {e.passage_id for e in entries}
    distractors = sample_distractors(store, referenced, limit, seed)
    return augment_open_domain(candidates, distractors, limit, vocab)


def evaluate_system(
    system: Union[TwoTower, retrieval.BM25Params],
    pool: Sequence[Candidate],
    part: Sequence[ReqaExample],
    ks: Sequence[int],
) -> EvalReport:
    """recall@k of the part's questions over the candidate pool, ranked by the
    dense model or by BM25 with the given parameters."""
    queries = [ex.question_tokens for ex in part]
    if isinstance(system, TwoTower):
        docs = dense_candidates(pool, system.config.doc_max_len)
        ranked = retrieval.rank_dense(system, queries, docs, max(ks))
    else:
        index = retrieval.InvertedIndex([(c.id, c.sentence_tokens + c.passage_tokens) for c in pool])
        ranked = [retrieval.bm25_topk(index, q, max(ks), system) for q in queries]
    return evaluate(ranked, [ex.gold_id for ex in part], ks, n_candidates=len(pool))


def run_experiment(
    store: CorpusStore,
    entries: Sequence[QaEntry],
    cfg: ExperimentConfig,
    log: Callable[[str], None] = lambda msg: print(msg, file=sys.stderr),
) -> dict:
    """Execute the (split ratio x encoder x pre-training task) grid and
    return the full report as a JSON-serializable dict."""
    vocab = build_vocab(store, cfg.vocab_max_size, cfg.vocab_min_freq)
    tokenize_corpus(store, vocab)
    examples, candidates, dropped = build_reqa(entries, store, vocab, cfg.query_max_len)
    log(f"benchmark: {len(examples)} examples, {len(candidates)} candidates, {dropped} dropped")
    bm25_params = cfg.bm25_params()
    pools = [(False, candidates)]
    if cfg.augment_limit > 0:
        augmented = with_distractors(store, entries, candidates, cfg.augment_limit, cfg.seeds[0], vocab)
        log(f"augmentation: +{len(augmented) - len(candidates)} distractors")
        pools.append((True, augmented))

    cells: List[dict] = []

    def add_cells(split: Split, encoder: str, task: str, seed: int, system) -> None:
        for augmented, pool in pools:
            report = evaluate_system(system, pool, split.test, cfg.ks)
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

    for seed in cfg.seeds:
        splits = [make_split(examples, tuple(r), seed) for r in cfg.ratios]
        for arch in cfg.encoders:
            enc_cfg = cfg.encoder_config(arch, len(vocab))
            for task in cfg.tasks:
                if not _has_cell(arch, task):
                    continue
                if task != TASK_NONE:
                    log(f"pretrain[{seed}] {arch}/{task}: {cfg.pretrain_steps} steps")
                pretrained = pretrain_model(task, enc_cfg, cfg.pretrain_config(seed), store)
                for split in splits:
                    log(f"finetune[{seed}] {arch}/{task} @ {split.ratio_label}")
                    best, _ = finetune_model(pretrained, cfg.finetune_config(seed), split, candidates)
                    add_cells(split, arch, task, seed, best)
        if cfg.include_bm25:
            for split in splits:
                add_cells(split, "bm25", TASK_NONE, seed, bm25_params)

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
