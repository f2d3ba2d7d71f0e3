"""Exact dense top-k retrieval and an Okapi BM25 inverted-index baseline.

Both rankers share the same tie-break: descending score, then ascending
candidate id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import util
from .corpus import TokenSeq
from .encoders import TwoTower

DENSE_INDEX_FORMAT = "twotower-dense-index-v1"


@dataclass
class RankedList:
    ids: List[int]
    scores: List[float]
    exhausted: bool = False  # set when fewer than k candidates existed

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(zip(self.ids, self.scores))


@dataclass
class DenseIndex:
    candidate_ids: List[int]
    embeddings: np.ndarray
    fingerprint: str = ""


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
    candidates: Sequence[TokenSeq],
    fingerprint: str = "",
    batch_size: int = 256,
) -> DenseIndex:
    """Embed every candidate with the doc tower; over-length candidates are
    truncated rather than rejected."""
    if not candidates:
        raise ValueError("cannot index an empty candidate set")
    if len(candidate_ids) != len(candidates):
        raise ValueError("candidate_ids must align with candidates")
    max_len = model.config.max_len(model.roles[1])
    clipped = []
    for seq in candidates:
        ids = seq.ids if isinstance(seq, TokenSeq) else list(seq)
        clipped.append(TokenSeq(ids[:max_len], truncated=len(ids) > max_len))
    rows = [
        model.encode_docs(clipped[start : start + batch_size])
        for start in range(0, len(clipped), batch_size)
    ]
    return DenseIndex(
        candidate_ids=list(candidate_ids), embeddings=np.vstack(rows), fingerprint=fingerprint
    )


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
    return RankedList(
        ids=[int(i) for i in top_ids],
        scores=[float(s) for s in top_scores],
        exhausted=k > len(index.candidate_ids),
    )


def rank_dense(
    model: TwoTower,
    queries: Sequence[TokenSeq],
    candidates: Sequence[Tuple[int, TokenSeq]],
    k: int,
    batch_size: int = 512,
) -> List[RankedList]:
    """The dense top-k of every query over the (id, tokens) candidates.

    Queries and candidates are encoded `batch_size` at a time; each query row
    is scored against the whole index with `dense_topk`.
    """
    index = build_dense_index(
        model, [cid for cid, _ in candidates], [seq for _, seq in candidates], batch_size=batch_size
    )
    ranked = []
    for start in range(0, len(queries), batch_size):
        for row in model.encode_queries(queries[start : start + batch_size]):
            ranked.append(dense_topk(index, row, k))
    return ranked


class InvertedIndex:
    """Token postings with term and document frequencies for BM25."""

    def __init__(self, candidates: Sequence[Tuple[int, Sequence[int]]]):
        if not candidates:
            raise ValueError("cannot index an empty candidate set")
        self.postings: Dict[int, List[Tuple[int, int]]] = {}
        self.doc_lengths: Dict[int, int] = {}
        for cid, tokens in candidates:
            if cid in self.doc_lengths:
                raise ValueError(f"duplicate candidate id {cid}")
            tf: Dict[int, int] = {}
            for token in tokens:
                tf[token] = tf.get(token, 0) + 1
            self.doc_lengths[cid] = len(tokens)
            for token, count in tf.items():
                self.postings.setdefault(token, []).append((cid, count))
        self.N = len(self.doc_lengths)
        self.avg_doc_length = sum(self.doc_lengths.values()) / self.N
        self.df: Dict[int, int] = {t: len(plist) for t, plist in self.postings.items()}
        self._tf_maps: Dict[int, Dict[int, int]] = {
            t: dict(plist) for t, plist in self.postings.items()
        }

    def idf(self, token: int) -> float:
        df = self.df.get(token, 0)
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))


def _query_terms(query_tokens) -> List[int]:
    ids = query_tokens.ids if isinstance(query_tokens, TokenSeq) else list(query_tokens)
    return sorted(set(ids))


def bm25_score(query_tokens, candidate_id: int, index: InvertedIndex, p: BM25Params) -> float:
    """Okapi BM25 with the +1 idf variant; query terms are deduplicated."""
    length_norm = p.k1 * (
        1.0 - p.b + p.b * index.doc_lengths[candidate_id] / index.avg_doc_length
    )
    total = 0.0
    for token in _query_terms(query_tokens):
        tf = index._tf_maps.get(token, {}).get(candidate_id, 0)
        if tf == 0:
            continue
        total += index.idf(token) * tf * (p.k1 + 1.0) / (tf + length_norm)
    return total


def bm25_topk(index: InvertedIndex, query_tokens, k: int, p: BM25Params) -> RankedList:
    """Score via the postings of the query's tokens only; identical result to
    exhaustively scoring every document."""
    if k < 1:
        raise ValueError("k must be >= 1")
    accum: Dict[int, float] = {}
    for token in _query_terms(query_tokens):
        plist = index.postings.get(token)
        if not plist:
            continue
        idf = index.idf(token)
        for cid, tf in plist:
            norm = p.k1 * (1.0 - p.b + p.b * index.doc_lengths[cid] / index.avg_doc_length)
            accum[cid] = accum.get(cid, 0.0) + idf * tf * (p.k1 + 1.0) / (tf + norm)
    scored = sorted(accum.items(), key=lambda item: (-item[1], item[0]))
    ids = [cid for cid, _ in scored[:k]]
    scores = [s for _, s in scored[:k]]
    if len(ids) < k:
        # Fill with zero-score docs the accumulator never touched, by id.
        for cid in sorted(c for c in index.doc_lengths if c not in accum):
            if len(ids) >= k:
                break
            ids.append(cid)
            scores.append(0.0)
    return RankedList(ids=ids, scores=scores, exhausted=k > index.N)


def save_dense_index(prefix: str, index: DenseIndex) -> None:
    tensors = {
        "embeddings": index.embeddings,
        "candidate_ids": np.asarray(index.candidate_ids, dtype=np.int64),
    }
    meta = {
        "format": DENSE_INDEX_FORMAT,
        "n": len(index.candidate_ids),
        "k": int(index.embeddings.shape[1]),
        "fingerprint": index.fingerprint,
    }
    util.save_tensors(prefix, tensors, meta)


def load_dense_index(prefix: str) -> DenseIndex:
    tensors, meta = util.load_tensors(prefix)
    if meta.get("format") != DENSE_INDEX_FORMAT:
        raise ValueError(f"not a dense index: {prefix}")
    return DenseIndex(
        candidate_ids=[int(i) for i in tensors["candidate_ids"]],
        embeddings=tensors["embeddings"],
        fingerprint=meta.get("fingerprint", ""),
    )
