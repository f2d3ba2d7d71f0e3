import io
import json
import re

import numpy as np
import pytest

from twotower.corpus import (
    CLS_ID,
    NUM_SPECIALS,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    CorpusError,
    Vocabulary,
    build_vocab,
    normalize_text,
    parse_corpus,
    split_sentences,
    tokenize,
)


def _lines(records):
    return [json.dumps(r) for r in records]


class TestParseCorpus:
    def test_smallest_linked_corpus(self, micro_store):
        assert len(micro_store.articles) == 2
        total_links = sum(len(p.outgoing_links) for p in micro_store.passages.values())
        assert total_links == 1
        assert micro_store.inbound == {2: [0]}

    def test_missing_title_field_names_line(self):
        records = [{"id": 1, "sections": []}]
        with pytest.raises(CorpusError, match="line 1.*title"):
            parse_corpus(_lines(records))

    def test_invalid_json_names_line(self):
        ok = json.dumps({"id": 1, "title": "t", "sections": [
            {"heading": "", "passages": [{"text": "A b."}]}]})
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus([ok, "{not json"])

    def test_duplicate_article_id(self):
        record = {"id": 5, "title": "t", "sections": [
            {"heading": "", "passages": [{"text": "A b."}]}]}
        with pytest.raises(CorpusError, match="duplicate article id 5"):
            parse_corpus(_lines([record, record]))

    def test_dangling_link_dropped_article_retained(self):
        records = [{
            "id": 1, "title": "t",
            "sections": [{"heading": "", "passages": [{"text": "A b.", "links": [99]}]}],
        }]
        store = parse_corpus(_lines(records))
        assert 1 in store.articles
        assert store.passage(0).outgoing_links == []


class TestSplitSentences:
    def test_period_space_rule(self):
        assert [s.text for s in split_sentences("A b. C d.")] == ["A b.", "C d."]

    def test_abbreviation_stop_list(self):
        # Hand-run: "Dr." is on the stop-list so the first period cannot split;
        # "went." is not, and is followed by whitespace + uppercase.
        got = [s.text for s in split_sentences("Dr. Smith went. He left.")]
        assert got == ["Dr. Smith went.", "He left."]

    def test_unterminated_single_sentence(self):
        assert [s.text for s in split_sentences("no terminal punctuation")] == [
            "no terminal punctuation"
        ]

    def test_empty_input(self):
        assert split_sentences("") == []

    def test_newline_boundary_without_uppercase(self):
        got = [s.text for s in split_sentences("first part.\nsecond part")]
        assert got == ["first part.", "second part"]

    @pytest.mark.parametrize(
        "text",
        [
            "A b. C d.",
            "  padded   text. More Text!  ",
            "e.g. lowercase stays. Upper splits. vs. also No. 12 stays.",
            "One! Two? Three.",
        ],
    )
    def test_preserves_non_whitespace_chars_and_no_empties(self, text):
        sentences = split_sentences(text)
        assert all(s.text.strip() for s in sentences)
        original = re.sub(r"\s", "", text)
        joined = "".join(re.sub(r"\s", "", s.text) for s in sentences)
        assert joined == original

    def test_toy_corpus_sentences_non_empty(self, small_toy):
        store, _, _ = small_toy
        for sentence in store.sentences():
            assert sentence.text.strip()


class TestBuildVocab:
    def _store(self, text):
        return parse_corpus(_lines([
            {"id": 1, "title": "zz", "sections": [{"heading": "", "passages": [{"text": text}]}]}
        ]))

    def test_frequent_word_becomes_whole_token(self):
        # Hand count: "aa" occurs twice, "ab" once; prefix "aa" outranks "ab".
        vocab = build_vocab(self._store("aa aa ab"), max_size=100)
        assert "aa" in vocab
        assert "ab" in vocab

    def test_specials_occupy_fixed_ids(self):
        vocab = build_vocab(self._store("aa aa ab"), max_size=100)
        assert tuple(vocab.id_to_token[:NUM_SPECIALS]) == SPECIAL_TOKENS

    def test_capacity_violation(self):
        with pytest.raises(ValueError, match="max_size"):
            build_vocab(self._store("aa aa ab"), max_size=NUM_SPECIALS)

    def test_deterministic(self, small_toy):
        store, _, _ = small_toy
        v1 = build_vocab(store, 4096, 1)
        v2 = build_vocab(store, 4096, 1)
        assert v1.token_to_id == v2.token_to_id

    def test_min_freq_filters_candidates(self):
        vocab = build_vocab(self._store("aa aa ab"), max_size=100, min_freq=2)
        assert "aa" in vocab
        assert "ab" not in vocab

    def test_save_load_roundtrip(self, small_toy):
        _, _, vocab = small_toy
        buf = io.StringIO()
        vocab.save(buf)
        loaded = Vocabulary.load(buf.getvalue().splitlines())
        assert loaded.token_to_id == vocab.token_to_id


class TestTokenize:
    def _vocab(self, extra):
        chars = sorted({c for t in extra for c in t.replace("#", "")})
        tokens = list(SPECIAL_TOKENS) + chars + ["##" + c for c in chars] + extra
        return Vocabulary(tokens)

    def test_greedy_longest_match(self):
        # Hand-run greedy longest match: un | ##aff | ##able.
        vocab = self._vocab(["un", "##aff", "##able"])
        seq = tokenize("unaffable", vocab)
        assert [vocab.id_to_token[i] for i in seq.ids] == ["un", "##aff", "##able"]

    def test_empty_text(self):
        vocab = self._vocab(["un"])
        seq = tokenize("", vocab)
        assert seq.ids == [] and seq.truncated is False

    def test_unseen_characters_fall_back_to_unk(self):
        vocab = self._vocab(["un"])
        seq = tokenize("qqq", vocab)
        assert seq.ids == [UNK_ID]

    def test_truncation_flag(self):
        vocab = self._vocab(["ab"])
        seq = tokenize("ab ab ab", vocab, max_len=2)
        assert len(seq.ids) == 2 and seq.truncated

    def test_prefix_stability(self, small_toy):
        _, _, vocab = small_toy
        a = tokenize("the dalto holds", vocab).ids
        b = tokenize("the dalto holds something unrelated", vocab).ids
        assert b[: len(a)] == a

    def test_deterministic_and_word_local(self, small_toy):
        _, _, vocab = small_toy
        assert tokenize("alpha beta", vocab).ids == (
            tokenize("alpha", vocab).ids + tokenize("beta", vocab).ids
        )

    def test_retained_sentences_tokenize_non_empty(self, small_toy):
        store, _, _ = small_toy
        for sentence in store.sentences():
            assert sentence.token_ids

    def test_normalization_lowercases_and_collapses(self):
        assert normalize_text("  The\t QUICK\n fox ") == "the quick fox"
