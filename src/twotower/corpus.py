"""Corpus model and tokenization.

Articles are parsed from a JSONL stream into an immutable in-memory store of
sections, passages, and sentences with resolved hyperlinks. A subword
vocabulary is induced from the text and used for greedy longest-match
tokenization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
NUM_SPECIALS = len(SPECIAL_TOKENS)

# Words that end in "." but do not terminate a sentence.
_ABBREVIATIONS = frozenset(
    ["Dr.", "Mr.", "Mrs.", "Ms.", "St.", "vs.", "etc.", "e.g.", "i.e.", "Fig.", "No."]
)
_TERMINALS = ".!?"


class CorpusError(ValueError):
    """Malformed corpus input."""


@dataclass
class Sentence:
    text: str
    token_ids: List[int] = field(default_factory=list)


@dataclass
class Passage:
    id: int
    text: str
    sentences: List[Sentence]
    outgoing_links: List[int]
    # Back-references filled at parsing.
    article_id: int = -1
    section_index: int = -1


@dataclass
class Section:
    heading: str
    passages: List[Passage]


@dataclass
class Article:
    id: int
    title: str
    sections: List[Section]

    @property
    def lead(self) -> Section:
        return self.sections[0]

    def passages(self) -> Iterable[Passage]:
        for section in self.sections:
            yield from section.passages


class CorpusStore:
    """Immutable article store with passage and inbound-link indexes."""

    def __init__(self, articles: List[Article]):
        self.articles: Dict[int, Article] = {}
        self.passages: Dict[int, Passage] = {}
        self.inbound: Dict[int, List[int]] = {}
        self.title_token_ids: Dict[int, List[int]] = {}
        for article in articles:
            if article.id in self.articles:
                raise CorpusError(f"duplicate article id {article.id}")
            self.articles[article.id] = article
            for passage in article.passages():
                self.passages[passage.id] = passage
        for passage in self.passages.values():
            for target in passage.outgoing_links:
                # Cross-article links only: self-links carry no inter-page signal.
                if target in self.articles and target != passage.article_id:
                    self.inbound.setdefault(target, []).append(passage.id)

    def article(self, article_id: int) -> Article:
        return self.articles[article_id]

    def passage(self, passage_id: int) -> Passage:
        return self.passages[passage_id]

    def sentences(self) -> Iterable[Sentence]:
        for passage in self.passages.values():
            yield from passage.sentences


def _ends_with_abbreviation(text: str, dot_index: int) -> bool:
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start : dot_index + 1] in _ABBREVIATIONS


def split_sentences(text: str) -> List[Sentence]:
    """Split on terminal punctuation followed by whitespace and an uppercase
    letter or a newline, skipping a fixed abbreviation stop-list."""
    sentences: List[Sentence] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _TERMINALS and i + 1 < n and text[i + 1].isspace():
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            has_newline = "\n" in text[i + 1 : j]
            next_upper = j < n and text[j].isupper()
            is_abbrev = ch == "." and _ends_with_abbreviation(text, i)
            if (next_upper or has_newline) and not is_abbrev:
                segment = text[start : i + 1].strip()
                if segment:
                    sentences.append(Sentence(segment))
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(Sentence(tail))
    return sentences


def parse_corpus(lines: Iterable[str]) -> CorpusStore:
    """Parse the JSONL corpus format into a CorpusStore.

    Hyperlinks to article ids the corpus does not hold are dropped; sections
    whose passages yield no sentences are discarded.
    """
    articles: List[Article] = []
    next_passage_id = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        for key in ("id", "title", "sections"):
            if key not in record:
                raise CorpusError(f"line {lineno}: missing field {key!r}")
        if not isinstance(record["id"], int):
            raise CorpusError(f"line {lineno}: article id must be an integer")
        sections: List[Section] = []
        for sec_idx, sec in enumerate(record["sections"]):
            if "heading" not in sec or "passages" not in sec:
                raise CorpusError(f"line {lineno}: section missing heading/passages")
            passages: List[Passage] = []
            for p in sec["passages"]:
                if "text" not in p:
                    raise CorpusError(f"line {lineno}: passage missing text")
                sentences = split_sentences(p["text"])
                if not sentences:
                    continue
                passages.append(
                    Passage(
                        id=next_passage_id,
                        text=p["text"],
                        sentences=sentences,
                        outgoing_links=list(p.get("links", [])),
                        article_id=record["id"],
                        section_index=len(sections),
                    )
                )
                next_passage_id += 1
            if passages:
                sections.append(Section(heading=sec.get("heading", ""), passages=passages))
        if not sections:
            raise CorpusError(f"line {lineno}: article {record['id']} has no usable sections")
        articles.append(Article(id=record["id"], title=record["title"], sections=sections))

    known_ids = {article.id for article in articles}
    for article in articles:
        for passage in article.passages():
            passage.outgoing_links = [t for t in passage.outgoing_links if t in known_ids]
    return CorpusStore(articles)


def normalize_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(text.split()).lower()


class Vocabulary:
    """Subword vocabulary with dense ids; specials occupy ids 0-4."""

    def __init__(self, tokens: List[str]):
        if tuple(tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens in fixed order")
        self.id_to_token: List[str] = list(tokens)
        self.token_to_id: Dict[str, int] = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, out: TextIO) -> None:
        for token in self.id_to_token:
            out.write(token + "\n")

    @classmethod
    def load(cls, lines: Iterable[str]) -> "Vocabulary":
        return cls([line.rstrip("\n") for line in lines if line.rstrip("\n")])


def build_vocab(store: CorpusStore, max_size: int, min_freq: int = 1) -> Vocabulary:
    """Induce a vocabulary: specials, seen characters (initial + continuation),
    then the most frequent whole words and word prefixes (length >= 2).

    Deterministic for a fixed corpus and parameters; candidate ties are broken
    lexicographically.
    """
    word_counts: Dict[str, int] = {}
    texts = [a.title for a in store.articles.values()]
    texts.extend(s.text for s in store.sentences())
    for text in texts:
        for word in normalize_text(text).split():
            word_counts[word] = word_counts.get(word, 0) + 1
    if not word_counts:
        raise CorpusError("cannot build a vocabulary from an empty corpus")

    charset = sorted({ch for word in word_counts for ch in word})
    if max_size < NUM_SPECIALS + len(charset):
        raise ValueError(
            f"max_size {max_size} cannot hold {NUM_SPECIALS} specials "
            f"and {len(charset)} distinct characters"
        )

    tokens: List[str] = list(SPECIAL_TOKENS)
    tokens.extend(charset)
    for ch in charset:
        if len(tokens) >= max_size:
            break
        tokens.append("##" + ch)

    prefix_counts: Dict[str, int] = {}
    for word, count in word_counts.items():
        for length in range(2, len(word) + 1):
            prefix = word[:length]
            prefix_counts[prefix] = prefix_counts.get(prefix, 0) + count
    present = set(tokens)
    candidates = sorted(
        ((c, t) for t, c in prefix_counts.items() if c >= min_freq and t not in present),
        key=lambda item: (-item[0], item[1]),
    )
    for _, token in candidates:
        if len(tokens) >= max_size:
            break
        tokens.append(token)
    return Vocabulary(tokens)


@dataclass
class TokenSeq:
    ids: List[int]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.ids)


def _tokenize_word(word: str, vocab: Vocabulary) -> List[int]:
    pieces: List[int] = []
    start = 0
    while start < len(word):
        end = len(word)
        match: Optional[int] = None
        while end > start:
            sub = word[start:end]
            key = "##" + sub if start > 0 else sub
            if key in vocab:
                match = vocab.token_to_id[key]
                break
            end -= 1
        if match is None:
            return [UNK_ID]
        pieces.append(match)
        start = end
    return pieces


def tokenize(text: str, vocab: Vocabulary, max_len: Optional[int] = None) -> TokenSeq:
    """Greedy longest-match-first subword tokenization of normalized text.

    A word with no matching piece at any position becomes a single UNK.
    """
    ids: List[int] = []
    for word in normalize_text(text).split():
        ids.extend(_tokenize_word(word, vocab))
    if max_len is not None and len(ids) > max_len:
        return TokenSeq(ids[:max_len], truncated=True)
    return TokenSeq(ids, truncated=False)


def tokenize_corpus(store: CorpusStore, vocab: Vocabulary) -> None:
    """Fill sentence token_ids and cache per-article title token ids."""
    for sentence in store.sentences():
        sentence.token_ids = tokenize(sentence.text, vocab).ids
    for article in store.articles.values():
        store.title_token_ids[article.id] = tokenize(article.title, vocab).ids
