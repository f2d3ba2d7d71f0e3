import json

import pytest

from twotower.corpus import build_vocab, parse_corpus, tokenize_corpus
from twotower.synth import SynthConfig, corpus_jsonl, generate


def build_toy(cfg):
    """Generate and ingest the toy corpus through the real parser, so passage
    ids seen by QA entries match the parsed store."""
    records, entries = generate(cfg)
    store = parse_corpus(corpus_jsonl(records).splitlines())
    return store, entries


def corpus_lines(records):
    return [json.dumps(r) for r in records]


@pytest.fixture(scope="session")
def small_toy():
    """A reduced synthetic corpus shared by module tests (fast to build)."""
    store, entries = build_toy(SynthConfig(n_articles=40, n_topics=10, n_qa=80, seed=13))
    vocab = build_vocab(store, 8192)
    tokenize_corpus(store, vocab)
    return store, entries, vocab


@pytest.fixture()
def micro_store():
    """Two tiny hand-written articles with one cross-link."""
    records = [
        {
            "id": 1,
            "title": "Alpha stone",
            "sections": [
                {
                    "heading": "",
                    "passages": [
                        {"text": "The stone shines. It sits in the river.", "links": [2]}
                    ],
                },
                {
                    "heading": "body",
                    "passages": [
                        {"text": "A carver shaped it. Nobody saw the carver. It was night.", "links": []}
                    ],
                },
            ],
        },
        {
            "id": 2,
            "title": "Beta river",
            "sections": [
                {
                    "heading": "",
                    "passages": [
                        {"text": "The river runs north. Boats avoid it.", "links": []}
                    ],
                }
            ],
        },
    ]
    return parse_corpus(corpus_lines(records))
