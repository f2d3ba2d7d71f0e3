"""Deterministic synthetic corpus and QA generator for desk-scale runs.

Articles are organized by topic: each topic owns a set of content words and
each article emphasizes a few of them plus a unique entity name. Questions
mention the entity and emphasized words that are absent from the gold
passage, so lexical matching alone cannot resolve them; hyperlinks connect
topically related articles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .benchmark import QaEntry
from .corpus import CorpusStore, parse_corpus
from .util import subrng

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"

_VERBS = ["holds", "keeps", "makes", "finds", "shows", "moves", "takes", "turns", "meets", "joins"]
_PREPS = ["near", "under", "over", "beside", "behind"]
_QWORDS = ["which", "what", "whose"]

# Content words per topic, and how many of them each article emphasizes.
WORDS_PER_TOPIC = 12
OWN_WORDS = 4
# Chance that a body / lead-section sentence names the article's entity.
ENTITY_PROB = 0.35
LEAD_ENTITY_PROB = 0.6
# Chance that a passage links to related articles.
LINK_PROB = 0.55
# Chance that a question also names the first word of its answer.
ANSWER_WORD_PROB = 0.7


@dataclass
class SynthConfig:
    n_articles: int = 500
    n_topics: int = 100
    n_qa: int = 1000
    seed: int = 13

    def __post_init__(self):
        # Articles are dealt to topics round-robin, and links are drawn from
        # the other articles of neighbouring topics: every topic needs an
        # article, and every article another article to link to.
        if not (1 <= self.n_topics <= self.n_articles and self.n_articles >= 2):
            raise ValueError(
                f"need 1 <= topics <= articles and at least 2 articles, "
                f"got {self.n_topics} topics and {self.n_articles} articles"
            )


def _make_word(rng: np.random.Generator, taken: set) -> str:
    while True:
        n_syllables = int(rng.integers(2, 4))
        parts = []
        for _ in range(n_syllables):
            parts.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
            parts.append(_VOWELS[rng.integers(len(_VOWELS))])
        if rng.random() < 0.4:
            parts.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
        word = "".join(parts)
        if word not in taken:
            taken.add(word)
            return word


def _pick(rng: np.random.Generator, items: Sequence[str]) -> str:
    return items[int(rng.integers(len(items)))]


@dataclass
class _ArticlePlan:
    id: int
    topic: int
    entity: str
    own_words: List[str]
    topic_words: List[str]


def _sentence_words(
    rng: np.random.Generator,
    plan: _ArticlePlan,
    all_words: List[str],
    entity_prob: float,
) -> List[str]:
    def content() -> str:
        r = rng.random()
        if r < 0.75:
            return _pick(rng, plan.own_words)
        if r < 0.90:
            return _pick(rng, plan.topic_words)
        return _pick(rng, all_words)

    with_entity = rng.random() < entity_prob
    shape = int(rng.integers(3))
    if with_entity:
        words = ["the", content(), "of", plan.entity, _pick(rng, _VERBS), "the", content()]
        if shape > 0:
            words += [_pick(rng, _PREPS), "the", content()]
    else:
        words = ["the", content(), _pick(rng, _VERBS), "the", content()]
        if shape > 0:
            words += [_pick(rng, _PREPS), "the", content()]
        if shape > 1:
            words += ["and", "the", content()]
    words[0] = words[0].capitalize()
    words.append(".")
    return words


def generate(cfg: SynthConfig) -> Tuple[List[dict], List[QaEntry]]:
    """Build (corpus JSONL records, QA entries) deterministically from the seed."""
    rng = subrng(cfg.seed, "synth")
    taken: set = set()
    topics = [
        [_make_word(rng, taken) for _ in range(WORDS_PER_TOPIC)] for _ in range(cfg.n_topics)
    ]
    all_words = [w for tw in topics for w in tw]

    plans: List[_ArticlePlan] = []
    for aid in range(cfg.n_articles):
        topic = aid % cfg.n_topics
        own_idx = rng.permutation(WORDS_PER_TOPIC)[:OWN_WORDS]
        plans.append(
            _ArticlePlan(
                id=aid,
                topic=topic,
                entity=_make_word(rng, taken).capitalize(),
                own_words=[topics[topic][i] for i in own_idx],
                topic_words=topics[topic],
            )
        )
    by_topic: Dict[int, List[int]] = {}
    for plan in plans:
        by_topic.setdefault(plan.topic, []).append(plan.id)

    records: List[dict] = []
    passage_sentences: List[List[List[str]]] = []  # per passage: list of word lists
    passage_article: List[int] = []
    next_pid = 0
    for plan in plans:
        sections = []
        n_sections = 1 + int(rng.integers(2, 4))  # lead + 2-3 body sections
        for sec_idx in range(n_sections):
            is_lead = sec_idx == 0
            heading = "" if is_lead else f"{_pick(rng, plan.topic_words)} notes"
            n_passages = int(rng.integers(1, 3)) if is_lead else int(rng.integers(2, 4))
            sec_passages = []
            for _ in range(n_passages):
                n_sentences = int(rng.integers(3, 6))
                entity_prob = LEAD_ENTITY_PROB if is_lead else ENTITY_PROB
                sentences = [
                    _sentence_words(rng, plan, all_words, entity_prob)
                    for _ in range(n_sentences)
                ]
                links: List[int] = []
                if rng.random() < LINK_PROB:
                    related = [
                        (plan.topic + d) % cfg.n_topics for d in (-1, 0, 1)
                    ]
                    pool = [a for t in related for a in by_topic[t] if a != plan.id]
                    for _ in range(int(rng.integers(1, 3))):
                        links.append(int(pool[rng.integers(len(pool))]))
                    links = sorted(set(links))
                text = " ".join(" ".join(words) for words in sentences)
                sec_passages.append({"text": text, "links": links})
                passage_sentences.append(sentences)
                passage_article.append(plan.id)
                next_pid += 1
            sections.append({"heading": heading, "passages": sec_passages})
        records.append(
            {
                "id": plan.id,
                "title": f"{plan.entity} {plan.own_words[0]}",
                "sections": sections,
            }
        )

    entries: List[QaEntry] = []
    content_set = set(all_words) | {p.entity for p in plans}
    n_passages_total = len(passage_sentences)
    for _ in range(cfg.n_qa):
        pid = int(rng.integers(n_passages_total))
        plan = plans[passage_article[pid]]
        sentences = passage_sentences[pid]
        words = sentences[int(rng.integers(len(sentences)))]
        # Answer spans start on a content word; bare function words would
        # match the first sentence of any passage.
        starts = [i for i in range(1, len(words) - 1) if words[i] in content_set]
        start = starts[int(rng.integers(len(starts)))]
        length = 1 if rng.random() < 0.5 or start + 2 > len(words) - 1 else 2
        answer = " ".join(words[start : start + length])

        passage_words = {w.lower() for ws in sentences for w in ws}
        absent = [w for w in plan.own_words if w not in passage_words]
        if len(absent) < 2:
            absent = absent + [w for w in plan.topic_words if w not in passage_words]
        if len(absent) < 2:
            absent = absent + plan.own_words
        picked = [absent[int(rng.integers(len(absent)))] for _ in range(2)]
        question_words = [_pick(rng, _QWORDS), picked[0], picked[1], "of", plan.entity]
        if rng.random() < ANSWER_WORD_PROB:
            question_words += [_pick(rng, _VERBS), "the", answer.split()[0].lower()]
        question_words.append("?")
        entries.append(QaEntry(" ".join(question_words), answer, pid))
    return records, entries


def corpus_jsonl(records: Sequence[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def build_toy(cfg: SynthConfig) -> Tuple[CorpusStore, List[QaEntry]]:
    """Generate and ingest the toy corpus through the real parser, so passage
    ids seen by QA entries match the parsed store."""
    records, entries = generate(cfg)
    store = parse_corpus(corpus_jsonl(records).splitlines())
    return store, entries
