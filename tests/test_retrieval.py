import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twotower import retrieval
from twotower.encoders import EncoderConfig, EncoderError, TwoTower, encode
from twotower.retrieval import (
    BM25Params,
    DenseIndex,
    InvertedIndex,
    bm25_topk,
    build_dense_index,
    dense_topk,
    rank_dense,
)
from twotower.util import subrng


def full_sort_oracle(ids, scores, k):
    """Naive oracle: score everything, stable sort by (-score, id)."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [ids[i] for i in order[:k]]


def bm25_score(query_tokens, candidate_id, docs, p):
    """Oracle: Okapi BM25 with the +1 idf variant and deduplicated query
    terms, computed from the raw (id, tokens) list, one candidate at a time."""
    n = len(docs)
    avg_doc_length = sum(len(tokens) for _, tokens in docs) / n
    doc = dict(docs)[candidate_id]
    total = 0.0
    for token in sorted(set(query_tokens)):
        tf = doc.count(token)
        if tf == 0:
            continue
        length_norm = p.k1 * (1.0 - p.b + p.b * len(doc) / avg_doc_length)
        df = sum(1 for _, tokens in docs if token in tokens)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (p.k1 + 1.0) / (tf + length_norm)
    return total


class TestDenseTopk:
    def test_spec_arithmetic_example(self):
        index = DenseIndex([0, 1, 2], np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0]]))
        ranked = dense_topk(index, np.array([1.0, 0.0]), 2)
        assert ranked.ids == [1, 2]
        assert ranked.scores == [2.0, 1.0]

    def test_zero_query_ranks_by_ascending_id(self):
        index = DenseIndex([5, 3, 9, 1], np.ones((4, 2)))
        ranked = dense_topk(index, np.zeros(2), 4)
        assert ranked.ids == [1, 3, 5, 9]
        assert all(s == 0.0 for s in ranked.scores)

    def test_matches_full_sort_oracle(self):
        rng = subrng(30)
        embeddings = rng.normal(size=(1000, 32))
        ids = list(rng.permutation(5000)[:1000])
        index = DenseIndex(ids, embeddings)
        for _ in range(50):
            q = rng.normal(size=32)
            k = int(rng.integers(1, 40))
            ranked = dense_topk(index, q, k)
            scores = embeddings @ q
            assert ranked.ids == full_sort_oracle(ids, list(scores), k)

    def test_matches_oracle_with_heavy_ties(self):
        rng = subrng(31)
        embeddings = rng.integers(-1, 2, size=(200, 4)).astype(float)
        ids = list(range(200))
        index = DenseIndex(ids, embeddings)
        for _ in range(30):
            q = rng.integers(-1, 2, size=4).astype(float)
            k = int(rng.integers(1, 50))
            ranked = dense_topk(index, q, k)
            scores = embeddings @ q
            assert ranked.ids == full_sort_oracle(ids, list(scores), k)

    def test_k_beyond_n_returns_all_flagged(self):
        index = DenseIndex([0, 1], np.eye(2))
        ranked = dense_topk(index, np.array([1.0, 0.5]), 5)
        assert ranked.ids == [0, 1]

    def test_monotone_in_k(self):
        rng = subrng(32)
        index = DenseIndex(list(range(100)), rng.normal(size=(100, 8)))
        q = rng.normal(size=8)
        previous = []
        for k in (1, 3, 10, 30, 100):
            ranked = dense_topk(index, q, k)
            assert ranked.ids[: len(previous)] == previous
            previous = ranked.ids

    def test_scale_invariance_of_ranking(self):
        rng = subrng(33)
        embeddings = rng.normal(size=(60, 8))
        q = rng.normal(size=8)
        a = dense_topk(DenseIndex(list(range(60)), embeddings), q, 10)
        b = dense_topk(DenseIndex(list(range(60)), embeddings * 3.5), q, 10)
        assert a.ids == b.ids

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            dense_topk(DenseIndex([0], np.ones((1, 2))), np.ones(2), 0)


def _table_encode(params, config, batch):
    """Embeds the one-token sequence [i] as row i of the tower's fixed table."""
    return params["table"][[seq[0] for seq in batch]]


class TestRankDense:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_sort_under_ties(self, data):
        dim = data.draw(st.integers(1, 3))
        n_docs = data.draw(st.integers(1, 30))
        n_queries = data.draw(st.integers(1, 8))
        small_ints = st.integers(-2, 2)
        docs = data.draw(arrays(np.float64, (n_docs, dim), elements=small_ints))
        queries = data.draw(arrays(np.float64, (n_queries, dim), elements=small_ints))
        ids = data.draw(st.lists(st.integers(0, 500), min_size=n_docs, max_size=n_docs, unique=True))
        k = data.draw(st.integers(1, n_docs + 3))
        batch_size = data.draw(st.integers(1, 5))
        cfg = EncoderConfig(vocab_size=30, dtype="float64")
        model = TwoTower(cfg, {"table": queries}, {"table": docs})
        candidates = [(cid, [row]) for row, cid in enumerate(ids)]
        with mock.patch.object(retrieval, "encode", _table_encode):
            ranked = rank_dense(model, [[i] for i in range(n_queries)], candidates, k, batch_size)
        assert len(ranked) == n_queries
        for q, got in zip(queries, ranked):
            scores = [float(d @ q) for d in docs]
            order = sorted(range(n_docs), key=lambda i: (-scores[i], ids[i]))[:k]
            assert got.ids == [ids[i] for i in order]
            assert got.scores == [scores[i] for i in order]


class TestBuildDenseIndex:
    def _setup(self):
        cfg = EncoderConfig(
            num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16, emb_dim=4,
            vocab_size=30, doc_max_len=6, dtype="float64",
        )
        return cfg, TwoTower.init(cfg, 34)

    def test_single_candidate_matches_encode(self):
        cfg, model = self._setup()
        seq = [2, 7, 9]
        index = build_dense_index(model, [0], [seq])
        np.testing.assert_allclose(index.embeddings, encode(model.doc, cfg, [seq]), atol=1e-12)

    def test_rows_follow_candidate_order(self):
        cfg, model = self._setup()
        seqs = [[2, 7], [2, 9], [2, 11]]
        a = build_dense_index(model, [10, 20, 30], seqs)
        b = build_dense_index(model, [30, 20, 10], seqs[::-1])
        np.testing.assert_allclose(a.embeddings, b.embeddings[::-1], atol=1e-12)

    def test_rebuild_is_deterministic(self):
        cfg, model = self._setup()
        seqs = [[2, 7], [2, 9]]
        a = build_dense_index(model, [0, 1], seqs)
        b = build_dense_index(model, [0, 1], seqs)
        assert a.embeddings.tobytes() == b.embeddings.tobytes()

    def test_overlong_candidate_rejected(self):
        cfg, model = self._setup()
        with pytest.raises(EncoderError, match="exceeds max_len"):
            build_dense_index(model, [0, 1], [[2, 7], [2] + [7] * cfg.doc_max_len])


class TestBM25:
    def test_hand_computed_two_doc_example(self):
        # d1 = "a b", d2 = "b b", query "a", k1=1.2, b=0.75:
        # idf(a) = ln(1 + (2 - 1 + 0.5)/(1 + 0.5)) = ln 2
        # score(d1) = ln2 * (1 * 2.2) / (1 + 1.2 * (1 - 0.75 + 0.75 * 2/2)) = ln 2
        docs = [(0, [10, 11]), (1, [11, 11])]
        ranked = bm25_topk(InvertedIndex(docs), [10], 1, BM25Params())
        assert ranked.ids == [0]
        assert ranked.scores[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert bm25_score([10], 0, docs, BM25Params()) == ranked.scores[0]

    def test_zero_overlap_scores_zero(self):
        index = InvertedIndex([(0, [10, 11]), (1, [11, 11])])
        assert bm25_topk(index, [99], 2, BM25Params()).scores == [0.0, 0.0]

    def test_query_terms_deduplicated(self):
        index = InvertedIndex([(0, [10, 11]), (1, [11, 11])])
        p = BM25Params()
        single = bm25_topk(index, [10, 11], 2, p)
        repeated = bm25_topk(index, [11, 10, 10, 11, 10], 2, p)
        assert single == repeated

    def test_non_negative_scores(self):
        rng = subrng(35)
        docs = [(i, [int(t) for t in rng.integers(5, 40, size=rng.integers(3, 20))]) for i in range(80)]
        index = InvertedIndex(docs)
        p = BM25Params()
        for _ in range(40):
            query = [int(t) for t in rng.integers(5, 40, size=5)]
            assert all(s >= 0.0 for s in bm25_topk(index, query, len(docs), p).scores)

    def test_single_token_single_doc(self):
        docs = [(i, [20 + i]) for i in range(5)]
        docs[3] = (3, [7])
        index = InvertedIndex(docs)
        ranked = bm25_topk(index, [7], 3, BM25Params())
        assert ranked.ids[0] == 3

    def test_topk_matches_exhaustive_oracle(self):
        rng = subrng(36)
        docs = [
            (i, [int(t) for t in rng.integers(5, 60, size=rng.integers(4, 30))])
            for i in range(500)
        ]
        index = InvertedIndex(docs)
        p = BM25Params()
        for _ in range(100):
            query = [int(t) for t in rng.integers(5, 70, size=rng.integers(1, 6))]
            k = int(rng.integers(1, 30))
            ranked = bm25_topk(index, query, k, p)
            scores = [bm25_score(query, cid, docs, p) for cid, _ in docs]
            assert ranked.ids == full_sort_oracle([cid for cid, _ in docs], scores, k)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_oracle_under_heavy_ties(self, data):
        # A few distinct docs repeated many times over a 5-token vocabulary:
        # most scores tie, many at zero.
        distinct = data.draw(
            st.lists(st.lists(st.integers(0, 4), max_size=6), min_size=1, max_size=4)
        )
        n = data.draw(st.integers(1, 40))
        ids = data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True))
        docs = [(cid, data.draw(st.sampled_from(distinct))) for cid in ids]
        query = data.draw(st.lists(st.integers(0, 5), max_size=6))
        k = data.draw(st.integers(1, n + 3))
        p = BM25Params(k1=data.draw(st.sampled_from([0.0, 1.2, 2.0])),
                       b=data.draw(st.sampled_from([0.0, 0.75, 1.0])))
        ranked = bm25_topk(InvertedIndex(docs), query, k, p)
        scores = [bm25_score(query, cid, docs, p) for cid in ids]
        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:k]
        assert ranked.ids == [ids[i] for i in order]
        assert ranked.scores == [scores[i] for i in order]

    def test_empty_query_fills_by_id(self):
        index = InvertedIndex([(3, [10]), (1, [11]), (2, [12])])
        ranked = bm25_topk(index, [], 2, BM25Params())
        assert ranked.ids == [1, 2]
        assert ranked.scores == [0.0, 0.0]

    def test_k_beyond_n_flagged(self):
        index = InvertedIndex([(0, [10]), (1, [11])])
        ranked = bm25_topk(index, [10], 5, BM25Params())
        assert ranked.ids == [0, 1]

    def test_invariants_of_index(self):
        docs = [(5, [10, 11, 10]), (2, [11]), (7, [])]
        index = InvertedIndex(docs)
        assert index.ids.tolist() == [5, 2, 7]
        assert index.doc_lengths.tolist() == [3, 1, 0]
        assert index.avg_doc_length == 4 / 3
        assert {t: (pos.tolist(), tf.tolist()) for t, (pos, tf) in index.postings.items()} == {
            10: ([0], [2]),
            11: ([0, 1], [1, 1]),
        }
        for position, (_, tokens) in enumerate(docs):
            assert sum(int(tf[pos == position].sum()) for pos, tf in index.postings.values()) == len(tokens)

    def test_duplicate_candidate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate candidate id 3"):
            InvertedIndex([(3, [10]), (1, [11]), (3, [12])])

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BM25Params(k1=-0.1)
        with pytest.raises(ValueError):
            BM25Params(b=1.5)
