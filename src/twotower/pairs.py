"""Positive (query, document) pair generation for encoder pre-training.

Three paragraph-level tasks plus a token-masking baseline:

* ict  - query is a sentence drawn from a passage; doc is the passage with
         that sentence removed.
* bfs  - query is a lead-section sentence; doc is another passage of the
         same article.
* wlp  - query is a lead-section sentence of a target article; doc is a
         passage of a different article that hyperlinks to the target.
* mlm  - masked-token prediction examples (used by the baseline trainer,
         not emitted as pairs).

Docs are always ``[CLS] title [SEP] body`` token sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .corpus import CLS_ID, MASK_ID, NUM_SPECIALS, SEP_ID, Article, CorpusStore, Passage

TASK_ICT = "ict"
TASK_BFS = "bfs"
TASK_WLP = "wlp"
TASK_FINETUNE = "finetune"
PRETRAIN_TASKS = (TASK_ICT, TASK_BFS, TASK_WLP)

MAX_RESAMPLES = 100


class PairGenError(Exception):
    """A pair cannot be generated from the given source."""


class NotEnoughSentences(PairGenError):
    pass


class NotEnoughPassages(PairGenError):
    pass


class NoInboundLink(PairGenError):
    pass


class DegenerateIctPair(PairGenError):
    """The sampled query sentence still occurs verbatim in the doc body."""


@dataclass
class PretrainPair:
    query: List[int]
    doc: List[int]
    task: str
    # (query article id, doc passage id, query sentence index in its passage)
    source: Tuple[int, int, int]
    # Extra provenance for invariant checks.
    query_passage_id: int = -1

    def doc_body(self) -> List[int]:
        return self.doc[self.doc.index(SEP_ID) + 1 :]

    def query_content(self) -> List[int]:
        return self.query[1:] if self.query and self.query[0] == CLS_ID else self.query


@dataclass
class MlmExample:
    input: List[int]
    labels: List[Tuple[int, int]]


@dataclass
class TaskMixture:
    weights: Dict[str, float]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("mixture needs at least one task")
        if any(w <= 0 for w in self.weights.values()):
            raise ValueError("mixture weights must be positive")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {total}")
        unknown = set(self.weights) - set(PRETRAIN_TASKS)
        if unknown:
            raise ValueError(f"unknown tasks in mixture: {sorted(unknown)}")

    @classmethod
    def uniform(cls, tasks: Iterable[str] = PRETRAIN_TASKS) -> "TaskMixture":
        tasks = list(tasks)
        return cls({t: 1.0 / len(tasks) for t in tasks})


def make_query_input(content_ids: List[int], query_max_len: int) -> List[int]:
    """Encoder query input: [CLS] then content, truncated to query_max_len."""
    return ([CLS_ID] + list(content_ids))[:query_max_len]


def make_doc_input(title_ids: List[int], body_ids: List[int], doc_max_len: int) -> List[int]:
    """Encoder doc input: [CLS] title [SEP] body, truncated to doc_max_len.

    The title is capped so that the single SEP and at least one body token
    always survive truncation.
    """
    title = list(title_ids)[: max(doc_max_len - 3, 0)]
    return ([CLS_ID] + title + [SEP_ID] + list(body_ids))[:doc_max_len]


def _contains_subseq(haystack: List[int], needle: List[int]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    first = needle[0]
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i] == first and haystack[i : i + len(needle)] == needle:
            return True
    return False


def gen_ict(
    passage: Passage,
    title_ids: List[int],
    rng: np.random.Generator,
    query_max_len: int,
    doc_max_len: int,
) -> PretrainPair:
    """Draw a sentence uniformly; pair it with the rest of the passage."""
    n = len(passage.sentences)
    if n < 2:
        raise NotEnoughSentences(f"passage {passage.id} has {n} sentence(s)")
    i = int(rng.integers(n))
    query = make_query_input(passage.sentences[i].token_ids, query_max_len)
    body: List[int] = []
    for j, sentence in enumerate(passage.sentences):
        if j != i:
            body.extend(sentence.token_ids)
    doc = make_doc_input(title_ids, body, doc_max_len)
    pair = PretrainPair(
        query=query,
        doc=doc,
        task=TASK_ICT,
        source=(passage.article_id, passage.id, i),
        query_passage_id=passage.id,
    )
    if _contains_subseq(pair.doc_body(), pair.query_content()):
        raise DegenerateIctPair(f"passage {passage.id} sentence {i} survives removal")
    return pair


def _lead_sentences(article: Article) -> List[Tuple[Passage, int]]:
    return [(p, i) for p in article.lead.passages for i in range(len(p.sentences))]


def gen_bfs(
    article: Article,
    rng: np.random.Generator,
    query_max_len: int,
    doc_max_len: int,
    title_ids: Optional[List[int]] = None,
) -> PretrainPair:
    """Pair a uniform lead-section sentence with a uniform other passage of
    the same article (the query's own passage is excluded)."""
    leads = _lead_sentences(article)
    q_passage, q_idx = leads[int(rng.integers(len(leads)))]
    candidates = [p for p in article.passages() if p.id != q_passage.id]
    if not candidates:
        raise NotEnoughPassages(f"article {article.id} has no passage outside the query's")
    doc_passage = candidates[int(rng.integers(len(candidates)))]
    body: List[int] = []
    for sentence in doc_passage.sentences:
        body.extend(sentence.token_ids)
    query = make_query_input(q_passage.sentences[q_idx].token_ids, query_max_len)
    doc = make_doc_input(title_ids or [], body, doc_max_len)
    return PretrainPair(
        query=query,
        doc=doc,
        task=TASK_BFS,
        source=(article.id, doc_passage.id, q_idx),
        query_passage_id=q_passage.id,
    )


def gen_wlp(
    target: Article,
    store: CorpusStore,
    rng: np.random.Generator,
    query_max_len: int,
    doc_max_len: int,
) -> PretrainPair:
    """Pair a uniform lead-section sentence of the target with a uniform
    passage from another article that links to the target."""
    inbound = store.inbound.get(target.id, [])
    if not inbound:
        raise NoInboundLink(f"article {target.id} has no inbound links")
    leads = _lead_sentences(target)
    q_passage, q_idx = leads[int(rng.integers(len(leads)))]
    doc_passage = store.passage(inbound[int(rng.integers(len(inbound)))])
    body: List[int] = []
    for sentence in doc_passage.sentences:
        body.extend(sentence.token_ids)
    linking_title = store.title_token_ids.get(doc_passage.article_id, [])
    query = make_query_input(q_passage.sentences[q_idx].token_ids, query_max_len)
    doc = make_doc_input(linking_title, body, doc_max_len)
    return PretrainPair(
        query=query,
        doc=doc,
        task=TASK_WLP,
        source=(target.id, doc_passage.id, q_idx),
        query_passage_id=q_passage.id,
    )


def gen_mlm(
    tokens: List[int],
    rng: np.random.Generator,
    mask_rate: float = 0.15,
    vocab_size: int = 0,
    replacement: Tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> MlmExample:
    """Independently select non-special positions at mask_rate; replace the
    selected with MASK / random id / original at the given split."""
    if not tokens:
        raise ValueError("cannot mask an empty sequence")
    if not 0.0 < mask_rate < 1.0:
        raise ValueError("mask_rate must be in (0, 1)")
    maskable = [i for i, t in enumerate(tokens) if t >= NUM_SPECIALS]
    selected = [i for i in maskable if rng.random() < mask_rate]
    if not selected and maskable:
        selected = [i for i in maskable if rng.random() < mask_rate]
    input_ids = list(tokens)
    labels: List[Tuple[int, int]] = []
    p_mask, p_random, _ = replacement
    for pos in selected:
        labels.append((pos, input_ids[pos]))
        r = rng.random()
        if r < p_mask:
            input_ids[pos] = MASK_ID
        elif r < p_mask + p_random:
            input_ids[pos] = int(rng.integers(NUM_SPECIALS, vocab_size))
        # else: keep the original token, label it anyway
    return MlmExample(input=input_ids, labels=labels)


def valid_sources(store: CorpusStore, task: str) -> List[int]:
    """Ids of sources (passages for ict, articles otherwise) that can yield
    at least one pair for the task."""
    if task == TASK_ICT:
        return sorted(p.id for p in store.passages.values() if len(p.sentences) >= 2)
    if task == TASK_BFS:
        return sorted(a.id for a in store.articles.values() if sum(1 for _ in a.passages()) >= 2)
    if task == TASK_WLP:
        return sorted(a for a in store.articles if store.inbound.get(a))
    raise ValueError(f"unknown task: {task!r}")


def sample_mixture(
    store: CorpusStore,
    mix: TaskMixture,
    n: int,
    rng: np.random.Generator,
    query_max_len: int,
    doc_max_len: int,
) -> Iterator[PretrainPair]:
    """Emit exactly n pairs; per pair the task is drawn from the mixture
    weights and the source uniformly among that task's valid sources.

    Generation failures (e.g. a duplicate sentence defeating the ict
    exclusion) are resampled up to MAX_RESAMPLES times.
    """
    tasks = sorted(mix.weights)
    weights = np.array([mix.weights[t] for t in tasks])
    sources = {t: valid_sources(store, t) for t in tasks}
    for task in tasks:
        if not sources[task]:
            raise ValueError(f"task {task!r} has no valid sources in this corpus")

    def generate(task: str) -> PretrainPair:
        pool = sources[task]
        for _ in range(MAX_RESAMPLES):
            source_id = pool[int(rng.integers(len(pool)))]
            try:
                if task == TASK_ICT:
                    passage = store.passage(source_id)
                    title = store.title_token_ids.get(passage.article_id, [])
                    return gen_ict(passage, title, rng, query_max_len, doc_max_len)
                if task == TASK_BFS:
                    article = store.article(source_id)
                    title = store.title_token_ids.get(article.id, [])
                    return gen_bfs(article, rng, query_max_len, doc_max_len, title)
                return gen_wlp(store.article(source_id), store, rng, query_max_len, doc_max_len)
            except PairGenError:
                continue
        raise RuntimeError(f"exceeded {MAX_RESAMPLES} resamples for task {task!r}")

    for _ in range(n):
        task = tasks[int(rng.choice(len(tasks), p=weights))]
        yield generate(task)
