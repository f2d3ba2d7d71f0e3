import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotower.corpus import (
    NUM_SPECIALS,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    CorpusError,
    Vocabulary,
    _ends_with_abbreviation,
    _tokenize_word,
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
        assert store.passages[0].outgoing_links == []


def _split_sentences_loop(text):
    """The character-by-character splitter `split_sentences` replaced: the
    reference its regex scan must agree with."""
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".!?" and i + 1 < n and text[i + 1].isspace():
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            has_newline = "\n" in text[i + 1 : j]
            next_upper = j < n and text[j].isupper()
            is_abbrev = ch == "." and _ends_with_abbreviation(text, i)
            if (next_upper or has_newline) and not is_abbrev:
                segment = text[start : i + 1].strip()
                if segment:
                    sentences.append(segment)
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


class TestSplitSentences:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.lists(st.sampled_from(
        ["Alpha", "the", "e.g.", "Dr.", "vs.", "No.", "etc.", ".", "!", "?", "?!", " ", "  ", "\n", "\t",
         "\r\n", "\x0b", "\x1c", "\u00a0", "\u2028", "\u3000", "\u0130", "\u01c5", "\u03c3", "'"]
    )).map("".join)))
    def test_scan_matches_the_character_loop(self, text):
        assert [s.text for s in split_sentences(text)] == _split_sentences_loop(text)

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
        ids = tokenize("unaffable", vocab)
        assert [vocab.id_to_token[i] for i in ids] == ["un", "##aff", "##able"]

    def test_empty_text(self):
        vocab = self._vocab(["un"])
        assert tokenize("", vocab) == []

    def test_unseen_characters_fall_back_to_unk(self):
        vocab = self._vocab(["un"])
        assert tokenize("qqq", vocab) == [UNK_ID]

    def test_prefix_stability(self, small_toy):
        _, _, vocab = small_toy
        a = tokenize("the dalto holds", vocab)
        b = tokenize("the dalto holds something unrelated", vocab)
        assert b[: len(a)] == a

    def test_deterministic_and_word_local(self, small_toy):
        _, _, vocab = small_toy
        assert tokenize("alpha beta", vocab) == tokenize("alpha", vocab) + tokenize("beta", vocab)

    def test_retained_sentences_tokenize_non_empty(self, small_toy):
        store, _, _ = small_toy
        for sentence in store.sentences():
            assert sentence.token_ids

    def test_cached_words_match_the_uncached_split(self, small_toy):
        # A small vocabulary splits most words into several pieces; the
        # unseen characters make some words a single UNK.
        store, _, _ = small_toy
        vocab = build_vocab(store, 120, 1)
        texts = [s.text for s in store.sentences()] + ["qq zqz", "Alpha alpha ALPHA"]
        for text in texts:
            expected = [i for word in normalize_text(text).split() for i in _tokenize_word(word, vocab)]
            assert tokenize(text, vocab) == expected
        assert UNK_ID in tokenize("qq zqz", vocab)
        assert len(vocab.word_pieces) < sum(len(normalize_text(t).split()) for t in texts)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(st.sampled_from(
        ["Alpha", "the", "unaffable", "e.g.", "Dr.", "No.", "12", ".", "!", "?", " ", "  ", "\n", "\t",
         "\u00a0", "\u2028", "\u03a3\u0391\u03a3", "\u03c3", "\u0130", "'"]
    )).map("".join)))
    def test_text_tokenizes_as_its_sentences(self, text):
        # Sentences are cut at whitespace only, so a passage's tokens are its
        # sentences' tokens in order; distractor candidates are built on it.
        vocab = self._vocab(["th", "un", "##aff", "##able", "e.g.", "\u03c3\u03b1"])
        expected = [t for s in split_sentences(text) for t in tokenize(s.text, vocab)]
        assert tokenize(text, vocab) == expected

    def test_returned_list_is_new(self, small_toy):
        _, _, vocab = small_toy
        first = tokenize("alpha", vocab)
        expected = list(first)
        first.append(UNK_ID)
        first[0] = PAD_ID
        assert tokenize("alpha", vocab) == expected

    def test_normalization_lowercases_and_collapses(self):
        assert normalize_text("  The\t QUICK\n fox ") == "the quick fox"
