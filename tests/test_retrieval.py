import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twotower import retrieval, util
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
        encode_batch = data.draw(st.integers(1, 5))
        cfg = EncoderConfig(vocab_size=30, dtype="float64")
        model = TwoTower(cfg, {"table": queries}, {"table": docs})
        # Patched inside the body: hypothesis rejects a function-scoped
        # monkeypatch fixture, which it would not reset between examples.
        with mock.patch.object(retrieval, "encode", _table_encode), \
                mock.patch.object(retrieval, "ENCODE_BATCH", encode_batch):
            index = build_dense_index(model, ids, [[row] for row in range(n_docs)])
            ranked = rank_dense(model, index, [[i] for i in range(n_queries)], k)
        assert len(ranked) == n_queries
        for q, got in zip(queries, ranked):
            scores = [float(d @ q) for d in docs]
            order = sorted(range(n_docs), key=lambda i: (-scores[i], ids[i]))[:k]
            assert got.ids == [ids[i] for i in order]
            assert got.scores == [scores[i] for i in order]

    def test_no_queries_give_no_lists(self):
        # As `bm25_topk` over no queries does.
        cfg = EncoderConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16, emb_dim=4,
                            vocab_size=30, doc_max_len=6, dtype="float64")
        model = TwoTower.init(cfg, 34)
        index = build_dense_index(model, [0, 1], [[2, 7], [2, 9]])
        assert rank_dense(model, index, [], 3) == []


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


class TestEncodeBatches:
    CONFIG = EncoderConfig(
        num_layers=1, hidden_dim=32, num_heads=2, ff_dim=64, emb_dim=16,
        vocab_size=50, query_max_len=12, doc_max_len=12, dtype="float32",
    )

    @pytest.fixture(scope="class")
    def pool(self):
        rng = subrng(35, "pool")
        seqs = [rng.integers(2, 50, size=rng.integers(2, 13)).tolist() for _ in range(100)]
        return TwoTower.init(self.CONFIG, 36), seqs

    @staticmethod
    def _sizes(run, encode_batch):
        """run()'s result and the row count of each encode call it made."""
        sizes = []

        def spy(params, config, batch):
            sizes.append(len(batch))
            return encode(params, config, batch)

        # The spy counts in this process, so the batches are encoded in it.
        with mock.patch.object(retrieval, "encode", spy), \
                mock.patch.object(retrieval, "ENCODE_BATCH", encode_batch), \
                mock.patch.object(util, "_worker_budget", lambda: 1):
            return run(), sizes

    @pytest.mark.parametrize("n", range(1, 101))
    def test_batch_size_keeps_embedding_bits(self, pool, n):
        model, seqs = pool
        ids = list(range(n))
        small, sizes = self._sizes(lambda: build_dense_index(model, ids, seqs[:n]), 32)
        large, _ = self._sizes(lambda: build_dense_index(model, ids, seqs[:n]), 256)
        assert small.embeddings.dtype == np.float32
        assert small.embeddings.tobytes() == large.embeddings.tobytes()
        assert sum(sizes) == n
        assert n == 1 or min(sizes) > 1

    # At 32 rows a batch, 33 and 65 rows would leave a one-row tail, which
    # BLAS multiplies on its matrix-vector path.
    @pytest.mark.parametrize("n,expected", [(33, [33]), (65, [32, 33])])
    def test_one_row_tail_joins_the_batch_before_it(self, pool, n, expected):
        model, seqs = pool
        index, sizes = self._sizes(lambda: build_dense_index(model, list(range(n)), seqs[:n]), 32)
        assert sizes == expected
        ranked, sizes = self._sizes(lambda: rank_dense(model, index, seqs[:n], 3), 32)
        assert sizes == expected
        assert [r.ids[0] for r in ranked] == [
            dense_topk(index, row, 1).ids[0] for row in encode(model.query, self.CONFIG, seqs[:n])
        ]

    @staticmethod
    def _workers(run):
        """run()'s result and the worker count of each `fork_map` call it made."""
        used = []

        def spy(fn, items, per_worker):
            results, workers = util.fork_map(fn, items, per_worker)
            used.append(workers)
            return results, workers

        with mock.patch.object(retrieval, "fork_map", spy):
            return run(), used

    # 2 and 33 rows are one batch, 65 two, 100 four and 160 five; the first is
    # encoded here, so with a worker's share of a nanosecond the rest take up
    # to three workers.
    @pytest.mark.parametrize("n", [2, 33, 65, 100, 160])
    def test_workers_keep_embedding_bits(self, pool, n):
        model, seqs = pool
        seqs = (seqs * 2)[:n]
        encoded = []
        for workers in (1, 2, 3):
            with mock.patch.object(util, "_worker_budget", lambda: workers), \
                    mock.patch.object(retrieval, "FORK_MIN_S", 1e-9):
                emb, used = self._workers(lambda: retrieval._encode_all(model.doc, self.CONFIG, seqs))
            assert used == [max(1, min(workers, len(retrieval._batches(n)) - 1))]
            encoded.append(emb)
        assert encoded[0].shape == (n, self.CONFIG.emb_dim)
        assert encoded[0].tobytes() == encoded[1].tobytes() == encoded[2].tobytes()

    # At a first batch timed at 20 ms, a worker must get 3 of the other batches.
    @pytest.mark.parametrize("n, workers", [(100, 1), (160, 1), (224, 2), (320, 3)])
    def test_each_worker_gets_fork_min_s_of_batches(self, pool, n, workers):
        model, seqs = pool
        clock = iter([10.0, 10.02])
        with mock.patch.object(util, "_worker_budget", lambda: 3), \
                mock.patch.object(retrieval.time, "perf_counter", lambda: next(clock)):
            emb, used = self._workers(lambda: retrieval._encode_all(model.doc, self.CONFIG, (seqs * 4)[:n]))
        assert retrieval.FORK_MIN_S == 0.05
        assert used == [workers]
        assert emb.shape == (n, self.CONFIG.emb_dim)

    def test_a_pool_quick_to_encode_stays_in_this_process(self, pool):
        model, seqs = pool
        with mock.patch.object(util, "_worker_budget", lambda: 3):
            _, used = self._workers(lambda: retrieval._encode_all(model.doc, self.CONFIG, seqs))
        assert used == [1]

    def test_non_finite_embeddings_are_an_error_that_counts_them(self, pool):
        # A NaN token row spreads through attention to every row holding the
        # token, and to no other row.
        model, seqs = pool
        params = {**model.doc, "emb/token": model.doc["emb/token"].copy()}
        params["emb/token"][7] = np.nan
        holding = sum(7 in seq for seq in seqs[:40])
        assert 0 < holding < 40
        with pytest.raises(EncoderError, match=f"^{holding} of 40 embeddings are not finite$"):
            retrieval._encode_all(params, self.CONFIG, seqs[:40])


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
