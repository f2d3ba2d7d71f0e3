"""Exact dense top-k retrieval and an Okapi BM25 inverted-index baseline.

Both rankers score the whole candidate pool as one vector and select from it
with the one top-k, `_rank_with_ties`: descending score, then ascending
candidate id. The dense ranker encodes candidates and queries
`ENCODE_BATCH` at a time, in index builds, evaluation and validation alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .encoders import TwoTower, encode

# Rows per forward-only encode. Another batch size gives the same embeddings
# bit for bit unless it leaves a final batch of one row: BLAS multiplies that
# row on its matrix-vector path, which rounds differently, and so may move the
# validation recalls and the checkpoint `training.finetune` keeps.
ENCODE_BATCH = 256


@dataclass
class RankedList:
    ids: List[int]
    scores: List[float]


@dataclass
class DenseIndex:
    candidate_ids: List[int]
    embeddings: np.ndarray


@dataclass
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


def build_dense_index(
    model: TwoTower,
    candidate_ids: Sequence[int],
    candidates: Sequence[Sequence[int]],
) -> DenseIndex:
    """Embed every candidate with the doc tower, `ENCODE_BATCH` at a time. A
    candidate longer than the doc tower takes is an `EncoderError`; callers
    cut candidates with `pairs.make_doc_input`."""
    if not candidates:
        raise ValueError("cannot index an empty candidate set")
    if len(candidate_ids) != len(candidates):
        raise ValueError("candidate_ids must align with candidates")
    rows = [
        encode(model.doc, model.config, candidates[start : start + ENCODE_BATCH])
        for start in range(0, len(candidates), ENCODE_BATCH)
    ]
    return DenseIndex(candidate_ids=list(candidate_ids), embeddings=np.vstack(rows))


def _rank_with_ties(ids: np.ndarray, scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k by (score desc, id asc) using partial selection, exact under ties."""
    n = scores.shape[0]
    if k >= n:
        order = np.lexsort((ids, -scores))
        return ids[order], scores[order]
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
    ids = np.asarray(index.candidate_ids)
    top_ids, top_scores = _rank_with_ties(ids, scores, k)
    return RankedList(ids=[int(i) for i in top_ids], scores=[float(s) for s in top_scores])


def rank_dense(
    model: TwoTower,
    queries: Sequence[Sequence[int]],
    candidates: Sequence[Tuple[int, Sequence[int]]],
    k: int,
) -> List[RankedList]:
    """The dense top-k of every query over the (id, tokens) candidates.

    Queries and candidates are encoded `ENCODE_BATCH` at a time; each query
    row is scored against the whole index with `dense_topk`.
    """
    index = build_dense_index(model, [cid for cid, _ in candidates], [seq for _, seq in candidates])
    ranked = []
    for start in range(0, len(queries), ENCODE_BATCH):
        for row in encode(model.query, model.config, queries[start : start + ENCODE_BATCH]):
            ranked.append(dense_topk(index, row, k))
    return ranked


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
            tf: Dict[int, int] = {}
            for token in tokens:
                tf[token] = tf.get(token, 0) + 1
            for token, count in tf.items():
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


def bm25_topk(index: InvertedIndex, query_tokens, k: int, p: BM25Params) -> RankedList:
    """Okapi BM25 with the +1 idf variant; query terms are deduplicated.

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
        norm = p.k1 * (1.0 - p.b + p.b * index.doc_lengths[pos] / index.avg_doc_length)
        scores[pos] += idf * tf * (p.k1 + 1.0) / (tf + norm)
    top_ids, top_scores = _rank_with_ties(index.ids, scores, k)
    return RankedList(ids=[int(i) for i in top_ids], scores=[float(s) for s in top_scores])
