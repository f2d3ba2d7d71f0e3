"""Exact dense top-k retrieval and an Okapi BM25 inverted-index baseline.

Both rankers score the whole candidate pool as one vector and select from it
with the one top-k, `_rank_with_ties`: descending score, then ascending
candidate id. The dense ranker encodes candidates and queries
`ENCODE_BATCH` rows at a time, in index builds, evaluation and validation
alike. A one-row tail joins the batch before it, and every batch is padded to
the longest sequence of the pool, so a row's embedding does not depend on the
batch it falls in: an index that validation built for a checkpoint can rank
that checkpoint's test questions. The batches run on threads of this
process, one per usable CPU when BLAS runs one thread a caller, and serially
otherwise and inside an `experiment` grid worker, with the same bits either
way: threads for encodes, forks for grid units. A non-finite embedding is an
`EncoderError`.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .corpus import PAD_ID
from .encoders import EncoderConfig, EncoderError, Params, TwoTower, encode
from .util import worker_count

# Rows per forward-only encode: at 32 rows of 48 tokens the FFN activation,
# 32 x 48 x 256 float32 values, is 1.5 MB and fits a 2 MB L2 cache, and the
# encoder's temporaries stay small enough for glibc to reuse instead of
# returning them to the OS and faulting them in again every batch. A batch is
# also the unit of work `_encode_all` hands a thread. With
# `_encode_all`'s padding any batch size gives the same embeddings bit for bit
# as long as no batch is one row of several: BLAS multiplies a lone row on its
# matrix-vector path, which rounds differently, so `_batches` merges a one-row
# tail into the batch before it.
ENCODE_BATCH = 32

# Okapi BM25's term-frequency saturation and length normalisation, at the
# usual values: the paper's BM-25 baseline is fixed, not tuned.
BM25_K1 = 1.2
BM25_B = 0.75


@dataclass
class RankedList:
    ids: List[int]
    scores: List[float]


@dataclass
class DenseIndex:
    """Candidate ids, int64 as in `InvertedIndex.ids`, and their doc embeddings."""

    ids: np.ndarray
    embeddings: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)


def _batches(n: int) -> List[slice]:
    """Slices of `ENCODE_BATCH` rows over n rows; a one-row tail joins the
    batch before it."""
    starts = list(range(0, n, ENCODE_BATCH))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def _encode_all(params: Params, config: EncoderConfig, seqs: Sequence[Sequence[int]]) -> np.ndarray:
    """Embeddings [n, k] of every sequence, encoded in `_batches` on the
    calling thread and the `worker_count - 1` it starts (numpy releases the
    GIL in BLAS and ufunc loops) and stacked in batch order. Each batch is
    padded to the longest of all the sequences: the masked softmax sums a
    row's keys in an order that depends on the padded width, so a narrower
    batch would move the bits of its rows. A non-finite row, from a corrupt
    or diverged checkpoint, is an `EncoderError`: the top-k cannot rank it."""
    width = max(len(seq) for seq in seqs)
    batches = _batches(len(seqs))
    parts, errors = [None] * len(batches), []
    todo = iter(range(len(batches)))  # its `next` holds the GIL: one thread gets each index

    def work():
        try:
            for i in todo:
                rows = [list(seq) + [PAD_ID] * (width - len(seq)) for seq in seqs[batches[i]]]
                parts[i] = encode(params, config, rows)
        except BaseException as exc:  # an error or a Ctrl-C: no thread starts another batch
            errors.append(exc)
            deque(todo, maxlen=0)

    helpers = [threading.Thread(target=work) for _ in range(worker_count(len(batches)) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    embeddings = np.vstack(parts)
    bad = int(np.count_nonzero(~np.isfinite(embeddings).all(axis=1)))
    if bad:
        raise EncoderError(f"{bad} of {len(seqs)} embeddings are not finite")
    return embeddings


def build_dense_index(
    model: TwoTower,
    candidate_ids: Sequence[int],
    candidates: Sequence[Sequence[int]],
) -> DenseIndex:
    """Embed every candidate with the doc tower, by `_encode_all`. A candidate
    longer than the doc tower takes is an `EncoderError`; callers cut
    candidates with `pairs.make_doc_input`."""
    if not candidates:
        raise ValueError("cannot index an empty candidate set")
    if len(candidate_ids) != len(candidates):
        raise ValueError("candidate_ids must align with candidates")
    return DenseIndex(ids=candidate_ids, embeddings=_encode_all(model.doc, model.config, candidates))


def _rank_with_ties(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k by (score desc, id asc) using partial selection, exact under ties."""
    n = scores.shape[0]
    k = min(k, n)
    kth = np.partition(scores, n - k)[n - k]
    above = np.flatnonzero(scores > kth)
    above = above[np.lexsort((ids[above], -scores[above]))]
    need = k - above.shape[0]
    tied = np.flatnonzero(scores == kth)
    tied = tied[np.argsort(ids[tied], kind="stable")][:need]
    sel = np.concatenate([above, tied])
    return ids[sel], scores[sel]


def dense_topk(index: DenseIndex, q_emb: np.ndarray, k: int) -> RankedList:
    """Exact inner-product top-k over the precomputed embedding matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.embeddings @ np.asarray(q_emb)
    top_ids, top_scores = _rank_with_ties(index.ids, scores, k)
    return RankedList(ids=[int(i) for i in top_ids], scores=[float(s) for s in top_scores])


def rank_dense(model: TwoTower, index: DenseIndex, queries: Sequence[Sequence[int]], k: int) -> List[RankedList]:
    """The dense top-k of every query over an index of the model's doc tower:
    each row of `_encode_all` scored against the whole index by `dense_topk`.
    No queries give no lists, as in BM25 ranking."""
    if not queries:
        return []
    return [dense_topk(index, row, k) for row in _encode_all(model.query, model.config, queries)]


class InvertedIndex:
    """BM25 postings: each token's candidate positions and term frequencies,
    as arrays, kept once; `ids` and `doc_lengths` are indexed by position."""

    def __init__(self, candidates: Sequence[Tuple[int, Sequence[int]]]):
        if not candidates:
            raise ValueError("cannot index an empty candidate set")
        seen = set()
        positions: Dict[int, List[int]] = {}
        counts: Dict[int, List[int]] = {}
        for pos, (cid, tokens) in enumerate(candidates):
            if cid in seen:
                raise ValueError(f"duplicate candidate id {cid}")
            seen.add(cid)
            for token, count in Counter(tokens).items():
                positions.setdefault(token, []).append(pos)
                counts.setdefault(token, []).append(count)
        self.ids = np.array([cid for cid, _ in candidates], dtype=np.int64)
        self.doc_lengths = np.array([len(tokens) for _, tokens in candidates], dtype=np.int64)
        self.N = len(candidates)
        self.avg_doc_length = int(self.doc_lengths.sum()) / self.N
        self.postings: Dict[int, Tuple[np.ndarray, np.ndarray]] = {
            t: (np.array(positions[t], dtype=np.int64), np.array(counts[t], dtype=np.int64))
            for t in positions
        }


def bm25_topk(index: InvertedIndex, query_tokens, k: int) -> RankedList:
    """Okapi BM25 with the +1 idf variant, at `BM25_K1` and `BM25_B`; query
    terms are deduplicated.

    Each term's postings add into one score vector over the pool, in
    ascending token order. A candidate no term touches scores 0.0, below
    every touched one (idf > 0 and tf >= 1), so it ranks by ascending id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(index.N)
    for token in sorted(set(query_tokens)):
        if token not in index.postings:
            continue
        pos, tf = index.postings[token]
        idf = math.log(1.0 + (index.N - len(pos) + 0.5) / (len(pos) + 0.5))
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * index.doc_lengths[pos] / index.avg_doc_length)
        scores[pos] += idf * tf * (BM25_K1 + 1.0) / (tf + norm)
    top_ids, top_scores = _rank_with_ties(index.ids, scores, k)
    return RankedList(ids=[int(i) for i in top_ids], scores=[float(s) for s in top_scores])
