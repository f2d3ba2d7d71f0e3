import json

import numpy as np
import pytest

from twotower.corpus import CLS_ID, MASK_ID, SEP_ID, parse_corpus, tokenize_corpus
from twotower.pairs import (
    PRETRAIN_TASKS,
    DegenerateIctPair,
    NoInboundLink,
    NotEnoughPassages,
    NotEnoughSentences,
    _contains_subseq,
    gen_bfs,
    gen_ict,
    gen_mlm,
    gen_wlp,
    sample_mixture,
)
from twotower.util import subrng

Q_LEN, D_LEN = 16, 48


def _from_lead_section(store, pair):
    """Whether a BFS or WLP pair's query is a lead-section sentence of the
    article `source[0]` names, at the sentence index `source[2]` names."""
    article_id, _, index = pair.source
    return any(
        index < len(passage.sentences)
        and ([CLS_ID] + passage.sentences[index].token_ids)[:Q_LEN] == pair.query
        for passage in store.articles[article_id].lead
    )


def _tokenized(micro_store, small_toy):
    _, _, vocab = small_toy
    tokenize_corpus(micro_store, vocab)
    return micro_store


@pytest.fixture()
def micro(micro_store, small_toy):
    return _tokenized(micro_store, small_toy)


class TestIct:
    def test_two_sentence_passage_forced_complement(self, micro):
        passage = micro.passages[0]  # "The stone shines. It sits in the river."
        pair = gen_ict(micro, 0, subrng(0, "ict"), Q_LEN, D_LEN)
        i = pair.source[2]
        other = passage.sentences[1 - i].token_ids
        assert pair.query_content() == passage.sentences[i].token_ids[: Q_LEN - 1]
        assert pair.doc_body() == other[: len(pair.doc_body())]

    def test_single_sentence_passage_rejected(self, micro):
        single = parse_corpus([json.dumps({
            "id": 9, "title": "t",
            "sections": [{"heading": "", "passages": [{"text": "Only one sentence here."}]}],
        })])
        single.passages[0].sentences[0].token_ids = [7, 8, 9]
        with pytest.raises(NotEnoughSentences):
            gen_ict(single, 0, subrng(0), Q_LEN, D_LEN)

    def test_seeded_draw_deterministic_and_uniform(self, small_toy):
        store, _, _ = small_toy
        pid = next(p.id for p in store.passages.values() if len(p.sentences) == 5)
        first = gen_ict(store, pid, subrng(42, "u"), Q_LEN, D_LEN)
        again = gen_ict(store, pid, subrng(42, "u"), Q_LEN, D_LEN)
        assert first.query == again.query and first.doc == again.doc
        rng = subrng(42, "uniform")
        counts = np.zeros(5, dtype=int)
        for _ in range(10_000):
            counts[gen_ict(store, pid, rng, Q_LEN, D_LEN).source[2]] += 1
        # chi-square style 3-sigma band per bucket for p=1/5
        sigma = np.sqrt(10_000 * 0.2 * 0.8)
        assert np.all(np.abs(counts - 2000) <= 3 * sigma)

    def test_exclusion_detects_duplicate_sentences(self, micro):
        passage = micro.passages[0]
        ids = passage.sentences[0].token_ids
        clone = parse_corpus([json.dumps({
            "id": 9, "title": "t",
            "sections": [{"heading": "", "passages": [{"text": "Twin one. Twin two."}]}],
        })])
        twin = clone.passages[0]
        twin.sentences[0].token_ids = list(ids)
        twin.sentences[1].token_ids = list(ids)
        with pytest.raises(DegenerateIctPair):
            gen_ict(clone, 0, subrng(1), Q_LEN, D_LEN)


class TestBfs:
    def test_forced_choice(self, micro):
        article = micro.articles[1]  # lead passage A, body passage B
        pair = gen_bfs(micro, 1, subrng(0, "bfs"), Q_LEN, D_LEN)
        assert pair.source[1] == article.sections[1][0].id
        assert _from_lead_section(micro, pair)

    def test_single_passage_article_rejected(self, micro):
        with pytest.raises(NotEnoughPassages):
            gen_bfs(micro, 2, subrng(0), Q_LEN, D_LEN)

    def test_fixed_seed_identical_and_lead_query(self, small_toy):
        store, _, _ = small_toy
        a = gen_bfs(store, 3, subrng(5, "b"), Q_LEN, D_LEN)
        b = gen_bfs(store, 3, subrng(5, "b"), Q_LEN, D_LEN)
        assert a.query == b.query and a.doc == b.doc
        for seed in range(20):
            pair = gen_bfs(store, 3, subrng(seed, "lead"), Q_LEN, D_LEN)
            assert _from_lead_section(store, pair)


class TestWlp:
    def test_forced_choice(self, micro):
        # Exactly passage 0 of article 1 links to article 2.
        pair = gen_wlp(micro, 2, subrng(0, "wlp"), Q_LEN, D_LEN)
        assert pair.source[1] == 0
        assert micro.passages[0].article_id == 1
        assert 2 in micro.passages[0].outgoing_links

    def test_no_inbound_links_rejected(self, micro):
        with pytest.raises(NoInboundLink):
            gen_wlp(micro, 1, subrng(0), Q_LEN, D_LEN)

    def test_two_candidates_near_even(self, small_toy):
        records = [
            {"id": 1, "title": "t one",
             "sections": [{"heading": "", "passages": [{"text": "Lead a. Lead b."}]}]},
            {"id": 2, "title": "t two",
             "sections": [{"heading": "", "passages": [{"text": "First link. More text.", "links": [1]}]}]},
            {"id": 3, "title": "t three",
             "sections": [{"heading": "", "passages": [{"text": "Second link. More text.", "links": [1]}]}]},
        ]
        store = parse_corpus([json.dumps(r) for r in records])
        _, _, vocab = small_toy
        tokenize_corpus(store, vocab)
        assert len(store.inbound[1]) == 2
        counts = {}
        rng = subrng(11, "wlp-even")
        for _ in range(10_000):
            pair = gen_wlp(store, 1, rng, Q_LEN, D_LEN)
            counts[pair.source[1]] = counts.get(pair.source[1], 0) + 1
        sigma = np.sqrt(10_000 * 0.25)
        for pid in store.inbound[1]:
            assert abs(counts.get(pid, 0) - 5000) <= 3 * sigma


class TestMlm:
    def test_full_mask_limit_case(self, monkeypatch):
        monkeypatch.setattr("twotower.pairs.MASK_RATE", 0.999999)
        monkeypatch.setattr("twotower.pairs.MLM_REPLACEMENT", (1.0, 0.0, 0.0))
        tokens = [CLS_ID, 7, 8, 9, SEP_ID, 10]
        example = gen_mlm(tokens, subrng(0), vocab_size=20)
        assert example.input == [CLS_ID, MASK_ID, MASK_ID, MASK_ID, SEP_ID, MASK_ID]
        assert sorted(p for p, _ in example.labels) == [1, 2, 3, 5]

    def test_specials_never_selected(self, monkeypatch):
        monkeypatch.setattr("twotower.pairs.MASK_RATE", 0.999999)
        tokens = [CLS_ID, SEP_ID, CLS_ID]
        example = gen_mlm(tokens, subrng(0), vocab_size=20)
        assert example.labels == []
        assert example.input == tokens

    def test_selection_rate_binomial(self):
        rng = subrng(3, "mlm-rate")
        selected = 0
        total = 0
        for _ in range(100):
            tokens = [CLS_ID] + [9] * 100
            example = gen_mlm(tokens, rng, vocab_size=20)
            selected += len(example.labels)
            total += 100
        sigma = np.sqrt(total * 0.15 * 0.85)
        assert abs(selected - 0.15 * total) <= 3 * sigma

    def test_labels_record_originals(self, monkeypatch):
        monkeypatch.setattr("twotower.pairs.MASK_RATE", 0.999999)
        tokens = [CLS_ID, 7, 8, 9]
        example = gen_mlm(tokens, subrng(1), vocab_size=50)
        for pos, original in example.labels:
            assert original == tokens[pos]


class TestMixture:
    def test_degenerate_mixture(self, small_toy):
        store, _, _ = small_toy
        out = list(sample_mixture(store, ("ict",), 10, subrng(0), Q_LEN, D_LEN))
        assert len(out) == 10
        assert all(p.task == "ict" for p in out)

    def test_uniform_counts_within_three_sigma(self, small_toy):
        store, _, _ = small_toy
        counts = {"ict": 0, "bfs": 0, "wlp": 0}
        for pair in sample_mixture(store, PRETRAIN_TASKS, 30_000, subrng(1), Q_LEN, D_LEN):
            counts[pair.task] += 1
        sigma = np.sqrt(30_000 * (1 / 3) * (2 / 3))
        for task in counts:
            assert abs(counts[task] - 10_000) <= 3 * sigma

    def test_linkless_corpus_with_wlp_errors(self, small_toy):
        records = [
            {"id": 1, "title": "t",
             "sections": [{"heading": "", "passages": [{"text": "A b. C d."}, {"text": "E f. G h."}]}]},
            {"id": 2, "title": "u",
             "sections": [{"heading": "", "passages": [{"text": "I j. K l."}, {"text": "M n. O p."}]}]},
        ]
        store = parse_corpus([json.dumps(r) for r in records])
        _, _, vocab = small_toy
        tokenize_corpus(store, vocab)
        with pytest.raises(ValueError, match="wlp"):
            list(sample_mixture(store, PRETRAIN_TASKS, 5, subrng(0), Q_LEN, D_LEN))

    def test_byte_identical_streams_for_same_seed(self, small_toy):
        store, _, _ = small_toy
        def stream(seed):
            pairs = sample_mixture(store, PRETRAIN_TASKS, 200, subrng(seed), Q_LEN, D_LEN)
            return [(p.task, p.query, p.doc, p.source) for p in pairs]
        assert stream(9) == stream(9)
        assert stream(9) != stream(10)


@pytest.fixture(scope="module")
def sampled(small_toy):
    store, _, _ = small_toy
    return store, list(sample_mixture(store, PRETRAIN_TASKS, 600, subrng(2), Q_LEN, D_LEN))


class TestPairInvariants:

    def test_doc_format(self, sampled):
        _, pairs = sampled
        for pair in pairs:
            assert pair.doc[0] == CLS_ID
            assert pair.doc.count(SEP_ID) == 1

    def test_ict_exclusion(self, sampled):
        _, pairs = sampled
        for pair in pairs:
            if pair.task == "ict":
                assert not _contains_subseq(pair.doc_body(), pair.query_content())

    def test_bfs_query_from_lead_section(self, sampled):
        store, pairs = sampled
        for pair in pairs:
            if pair.task == "bfs":
                assert _from_lead_section(store, pair)

    def test_wlp_cross_page_with_verified_link(self, sampled):
        store, pairs = sampled
        for pair in pairs:
            if pair.task == "wlp":
                doc_passage = store.passages[pair.source[1]]
                assert doc_passage.article_id != pair.source[0]
                assert pair.source[0] in doc_passage.outgoing_links

    def test_lengths_respect_limits(self, sampled):
        _, pairs = sampled
        for pair in pairs:
            assert len(pair.query) <= Q_LEN
            assert len(pair.doc) <= D_LEN


class TestPairStats:
    def test_toy_corpus_ict_docs_longer_than_bfs_queries(self, small_toy):
        store, _, _ = small_toy
        pairs = list(sample_mixture(store, PRETRAIN_TASKS, 900, subrng(4), Q_LEN, D_LEN))
        ict_docs = [len(p.doc) for p in pairs if p.task == "ict"]
        bfs_queries = [len(p.query) for p in pairs if p.task == "bfs"]
        assert np.mean(ict_docs) > np.mean(bfs_queries)
