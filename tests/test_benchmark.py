import io
import json
import multiprocessing

import numpy as np
import pytest

from twotower.benchmark import (
    ExperimentConfig,
    QaEntry,
    build_reqa,
    dense_candidates,
    evaluate,
    evaluate_system,
    make_split,
    parse_task_spec,
    read_qa_entries,
    run_experiment,
    summarize_cells,
    with_distractors,
    write_qa_entries,
)
from twotower.corpus import CLS_ID, SEP_ID, parse_corpus, tokenize_corpus
from twotower.pairs import passage_body
from twotower.retrieval import RankedList
from twotower.synth import SynthConfig
from twotower import util
from twotower.util import subrng

from conftest import build_toy

Q_LEN, D_LEN = 16, 48


@pytest.fixture()
def three_sentence_setup(small_toy):
    _, _, vocab = small_toy
    records = [{
        "id": 1, "title": "t",
        "sections": [{"heading": "", "passages": [
            {"text": "Alpha beta gamma. Delta epsilon zeta. Eta theta iota."}
        ]}],
    }]
    store = parse_corpus([json.dumps(r) for r in records])
    tokenize_corpus(store, vocab)
    return store, vocab


class TestBuildReqa:
    def test_counting_rule(self, three_sentence_setup):
        store, vocab = three_sentence_setup
        entries = [QaEntry("what is delta ?", "Delta epsilon", 0)]
        examples, candidates, dropped = build_reqa(entries, store, vocab, Q_LEN)
        assert len(candidates) == 3
        assert len(examples) == 1
        assert dropped == 0
        assert examples[0].gold_id == candidates[1].id

    def test_answer_spanning_sentence_boundary_dropped(self, three_sentence_setup):
        store, vocab = three_sentence_setup
        entries = [QaEntry("q ?", "gamma. Delta", 0)]
        examples, _, dropped = build_reqa(entries, store, vocab, Q_LEN)
        assert examples == []
        assert dropped == 1

    def test_first_matching_sentence_is_gold(self, three_sentence_setup):
        store, vocab = three_sentence_setup
        entries = [QaEntry("q ?", "ta", 0)]  # substring of "beta" and "Delta", ...
        examples, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        assert examples[0].gold_id == candidates[0].id

    def test_unresolvable_passage_id(self, three_sentence_setup):
        store, vocab = three_sentence_setup
        with pytest.raises(ValueError, match="unknown passage id"):
            build_reqa([QaEntry("q", "a", 99)], store, vocab, Q_LEN)

    def test_candidate_format_and_dedup(self, small_toy):
        store, entries, vocab = small_toy
        examples, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        assert len(candidates) >= len(examples) or True  # shapes checked below
        seen = set()
        for c in candidates:
            assert (c.passage_id, c.sentence_index) not in seen
            seen.add((c.passage_id, c.sentence_index))
            doc = c.doc_input(D_LEN)
            assert doc[0] == CLS_ID
            assert doc.count(SEP_ID) == 1
            assert len(doc) <= D_LEN

    def test_toy_candidates_outnumber_examples(self, small_toy):
        # Mirrors the published benchmark shape: more (sentence, passage)
        # candidates than question tuples.
        store, entries, vocab = small_toy
        examples, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        assert len(candidates) >= len(examples)

    def test_qa_file_roundtrip(self, small_toy):
        _, entries, _ = small_toy
        buf = io.StringIO()
        write_qa_entries(buf, entries)
        loaded = read_qa_entries(buf.getvalue().splitlines())
        assert loaded == entries


def _numbered_examples(n):
    from twotower.benchmark import ReqaExample

    return [ReqaExample(f"question {i}", [CLS_ID, 5 + i], i) for i in range(n)]


class TestMakeSplit:
    def test_80_20_arithmetic(self):
        split = make_split(_numbered_examples(100), (80, 20), seed=0)
        assert len(split.train) == 72
        assert len(split.validation) == 8
        assert len(split.test) == 20

    def test_duplicate_questions_co_assigned(self):
        examples = _numbered_examples(30)
        examples += [
            type(examples[0])(examples[i].question, examples[i].question_tokens, 100 + i)
            for i in range(30)
        ]
        split = make_split(examples, (50, 50), seed=3)
        parts = {
            q: part
            for part, exs in (("train", split.train), ("val", split.validation), ("test", split.test))
            for q in {e.question for e in exs}
        }
        for part_a in (split.train, split.validation, split.test):
            for ex in part_a:
                assert parts[ex.question] is not None
        train_qs = {e.question for e in split.train}
        val_qs = {e.question for e in split.validation}
        test_qs = {e.question for e in split.test}
        assert not (train_qs & val_qs or train_qs & test_qs or val_qs & test_qs)

    def test_same_seed_identical(self):
        a = make_split(_numbered_examples(50), (80, 20), seed=9)
        b = make_split(_numbered_examples(50), (80, 20), seed=9)
        assert [e.gold_id for e in a.train] == [e.gold_id for e in b.train]
        assert [e.gold_id for e in a.test] == [e.gold_id for e in b.test]

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_split(_numbered_examples(4), (80, 20), seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            make_split(_numbered_examples(100), (80, 10), seed=0)


class TestDenseCandidates:
    def test_one_pool_serves_towers_of_two_lengths(self, small_toy):
        # The pool is built with no doc length; each tower's candidates are
        # cut to its own `doc_max_len`, so neither encode is an EncoderError.
        from twotower.encoders import EncoderConfig, TwoTower

        store, entries, vocab = small_toy
        examples, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        assert max(len(c.doc_input(1000)) for c in candidates) > 32
        for doc_max_len in (8, 32):
            cfg = EncoderConfig(
                num_layers=1, hidden_dim=16, num_heads=2, ff_dim=16, emb_dim=8,
                vocab_size=len(vocab), query_max_len=Q_LEN, doc_max_len=doc_max_len,
            )
            docs = dense_candidates(candidates, doc_max_len)
            assert max(len(doc) for _, doc in docs) == doc_max_len
            report = evaluate_system(TwoTower.init(cfg, 3), candidates, examples, (1, 10))
            assert report.n_candidates == len(candidates)
            assert report.n_queries == len(examples)


class TestAugment:
    def test_limit_zero_is_identity(self, small_toy):
        store, entries, vocab = small_toy
        _, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        out = with_distractors(store, entries, candidates, 0, seed=1)
        assert out == candidates

    def test_appends_with_fresh_ids(self, small_toy):
        store, entries, vocab = small_toy
        _, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        out = with_distractors(store, entries, candidates, 2, seed=1)
        assert len(out) == len(candidates) + 2
        assert out[: len(candidates)] == candidates
        new_ids = {c.id for c in out[len(candidates):]}
        assert not new_ids & {c.id for c in candidates}
        assert len({(c.passage_id, c.sentence_index) for c in out}) == len(out)

    def test_duplicate_of_gold_kept_distinct(self, small_toy):
        # The unreferenced passage repeats the referenced one word for word.
        _, _, vocab = small_toy
        text = "Alpha beta gamma. Delta epsilon zeta."
        store = parse_corpus([json.dumps({"id": 1, "title": "t", "sections": [
            {"heading": "", "passages": [{"text": text}, {"text": text}]}]})])
        tokenize_corpus(store, vocab)
        entries = [QaEntry("what is delta ?", "Delta epsilon", 0)]
        examples, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        gold = candidates[examples[0].gold_id]
        out = with_distractors(store, entries, candidates, 5, seed=1)
        assert len(out) == 2 * len(candidates)
        clones = [c for c in out[len(candidates):] if c.sentence_tokens == gold.sentence_tokens]
        assert len(clones) == 1
        assert clones[0].id != gold.id
        assert clones[0].passage_tokens == gold.passage_tokens

    def test_distractor_sampling_excludes_referenced(self, small_toy):
        store, entries, vocab = small_toy
        _, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        distractors = with_distractors(store, entries, candidates, 50, seed=1)[len(candidates):]
        assert len(distractors) == 50
        referenced = {tuple(passage_body(store.passages[e.passage_id])) for e in entries}
        for candidate in distractors:
            assert tuple(candidate.passage_tokens) not in referenced


class TestEvaluate:
    def test_gold_always_first(self):
        ranked = [RankedList([7, 1, 2], [3.0, 2.0, 1.0])] * 4
        report = evaluate(ranked, [7, 7, 7, 7], ks=(1, 5))
        assert report.recalls[1] == 1.0
        assert report.recalls[5] == 1.0

    def test_counting_example(self):
        # golds at ranks 3 and 7 (1-based)
        first = RankedList(list(range(10)), [float(10 - i) for i in range(10)])
        ranked = [first, first]
        report = evaluate(ranked, [2, 6], ks=(5, 10))
        assert report.recalls[5] == 0.5
        assert report.recalls[10] == 1.0

    def test_gold_missing_from_the_list_counts_at_no_k(self):
        # Lists shorter than the largest k: an absent gold misses at every k.
        ranked = [RankedList([3, 1], [2.0, 1.0]), RankedList([4, 9], [2.0, 1.0])]
        report = evaluate(ranked, [5, 9], ks=(1, 2, 100))
        assert report.recalls == {1: 0.0, 2: 0.5, 100: 0.5}

    def test_recalls_match_the_gold_rank_oracle(self):
        # Oracle: the gold's 0-based rank, an absent gold ranked past every k.
        rng = subrng(42)
        ks = (1, 5, 10, 50)
        ranked, golds = [], []
        for _ in range(200):
            n = int(rng.integers(1, 60))
            ranked.append(RankedList([int(i) for i in rng.permutation(80)[:n]], [0.0] * n))
            golds.append(int(rng.integers(80)))
        ranks = [r.ids.index(g) if g in r.ids else len(r.ids) + max(ks) for r, g in zip(ranked, golds)]
        expected = {k: sum(1 for rank in ranks if rank < k) / len(ranks) for k in ks}
        assert evaluate(ranked, golds, ks).recalls == expected

    def test_monotone_in_k(self):
        rng = subrng(40)
        ranked = []
        golds = []
        for _ in range(30):
            ids = list(rng.permutation(50))
            ranked.append(RankedList(ids, list(np.linspace(1, 0, 50))))
            golds.append(int(rng.integers(50)))
        report = evaluate(ranked, golds, ks=(1, 5, 10, 25, 50))
        values = [report.recalls[k] for k in (1, 5, 10, 25, 50)]
        assert values == sorted(values)

    def test_random_ranking_expectation(self):
        # Monte-Carlo: mean R@k over seeded shuffles approaches k/N.
        n, k, queries, shuffles = 50, 5, 20, 1000
        rng = subrng(41)
        total = 0.0
        for _ in range(shuffles):
            hits = 0
            for _ in range(queries):
                ids = list(rng.permutation(n))
                gold = int(rng.integers(n))
                hits += gold in ids[:k]
            total += hits / queries
        mean = total / shuffles
        p = k / n
        sigma = (p * (1 - p) / (queries * shuffles)) ** 0.5
        assert abs(mean - p) <= 3 * sigma


class TestExperiment:
    def test_task_spec_parsing(self):
        assert parse_task_spec("none") is None
        assert parse_task_spec("mlm") is None
        assert parse_task_spec("ict+bfs+wlp") == ("ict", "bfs", "wlp")
        assert parse_task_spec("ict") == ("ict",)
        with pytest.raises(ValueError):
            parse_task_spec("ict+nope")
        with pytest.raises(ValueError, match="ict more than once"):
            parse_task_spec("ict+ict")

    @pytest.mark.parametrize("grid,match", [
        ({"tasks": ["ict+bfs+wlp", "ict+nope"]}, "nope"),
        ({"tasks": ["ict+bfs+ict"]}, "ict more than once"),
        ({"encoders": ["transformer", "nope"]}, "nope"),
    ])
    def test_config_rejects_unknown_task_or_arch(self, grid, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**grid)

    def test_single_cell_grid(self):
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=60, seed=13))
        cfg = ExperimentConfig(
            ratios=[[60, 40]],
            encoders=["transformer"],
            tasks=["none"],
            seeds=[5],
            include_bm25=False,
            pretrain_steps=0,
            finetune_steps=4,
            batch_size=4,
            eval_every=2,
            num_layers=1,
            hidden_dim=16,
            num_heads=2,
            ff_dim=32,
            emb_dim=8,
            vocab_max_size=4096,
        )
        report = run_experiment(store, entries, cfg, log=lambda msg: None)
        assert len(report["cells"]) == 1
        cell = report["cells"][0]
        assert cell["encoder"] == "transformer"
        assert cell["task"] == "none"
        recalls = [cell["recalls"][str(k)] for k in cfg.ks]
        assert recalls == sorted(recalls)
        assert all(0.0 <= r <= 1.0 for r in recalls)

    def test_final_eval_reuses_the_validation_index(self, monkeypatch):
        # The un-augmented test eval ranks against the index that validation
        # built for the selected checkpoint; every validation check and every
        # augmented pool still builds its own, and the report is the one a
        # run that rebuilds every index gives. The calls are counted in this
        # process, so the grid runs in it: one worker.
        from twotower import benchmark, retrieval, training

        monkeypatch.setattr(util, "_worker_budget", lambda: 1)

        # Both finetunes select a checkpoint between the first and the last.
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=120, seed=13))
        cfg = ExperimentConfig(
            ratios=[[60, 40]], encoders=["transformer"], tasks=["none", "ict"], seeds=[5],
            include_bm25=True, augment_limit=25, pretrain_steps=2, finetune_steps=8,
            finetune_lr=1e-2, batch_size=4, eval_every=2, num_layers=1, hidden_dim=16, num_heads=2,
            ff_dim=32, emb_dim=8, vocab_max_size=4096,
        )
        build, recall = retrieval.build_dense_index, training.recall_at_k

        def run(reuse):
            built, checks = [], []
            with monkeypatch.context() as m:
                m.setattr(retrieval, "build_dense_index",
                          lambda model, ids, seqs: built.append(len(seqs)) or build(model, ids, seqs))
                m.setattr(training, "recall_at_k", lambda *a: checks.append(1) or recall(*a))
                if not reuse:
                    evaluate = benchmark.evaluate_system
                    m.setattr(benchmark, "evaluate_system",
                              lambda model, pool, part, ks, index=None: evaluate(model, pool, part, ks))
                report = run_experiment(store, entries, cfg, log=lambda msg: None)
            return report, built, len(checks)

        report, built, checks = run(reuse=True)
        n_base = report["benchmark"]["n_candidates"]
        n_aug = next(c["n_candidates"] for c in report["cells"] if c["augmented"])
        dense_cells = 2
        assert checks > dense_cells
        assert built.count(n_base) == checks
        assert built.count(n_aug) == dense_cells
        assert len(built) == checks + dense_cells

        rebuilt, built, checks = run(reuse=False)
        assert built.count(n_base) == checks + dense_cells
        assert json.dumps(rebuilt, sort_keys=True) == json.dumps(report, sort_keys=True)

    def _two_seed_grid(self):
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=120, seed=13))
        cfg = ExperimentConfig(
            ratios=[[60, 40]], encoders=["transformer"], tasks=["none", "ict"], seeds=[5, 6],
            include_bm25=True, augment_limit=25, pretrain_steps=2, finetune_steps=4,
            batch_size=4, eval_every=2, num_layers=1, hidden_dim=16, num_heads=2,
            ff_dim=32, emb_dim=8, vocab_max_size=4096,
        )
        return store, entries, cfg

    def test_workers_give_the_serial_report(self, monkeypatch):
        from twotower import benchmark

        store, entries, cfg = self._two_seed_grid()
        reports, stats = [], []
        for workers in (1, 2):
            monkeypatch.setattr(util, "_worker_budget", lambda: workers)
            stats.append({})
            report = run_experiment(store, entries, cfg, log=lambda msg: None, stats=stats[-1])
            reports.append(json.dumps(report, sort_keys=True))
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]
        assert [s["workers"] for s in stats] == [1, 2]
        labels = [[(u["seed"], u["encoder"], u["task"]) for u in s["units"]] for s in stats]
        assert labels[0] == labels[1] == [
            (5, "transformer", "none"), (5, "transformer", "ict"), (5, "bm25", "none"),
            (6, "transformer", "none"), (6, "transformer", "ict"), (6, "bm25", "none"),
        ]
        # One split, evaluated on two pools.
        for unit in stats[1]["units"]:
            assert len(unit["finetune_s"]) == (unit["encoder"] != "bm25")
            assert len(unit["eval_s"]) == 2

    def test_a_failing_unit_raises_its_error_with_workers(self, monkeypatch):
        from twotower import benchmark

        store, entries, cfg = self._two_seed_grid()
        pretrain_model = benchmark.pretrain_model

        def failing(task, enc_cfg, train_cfg, store, metrics_out=None):
            if task == "ict" and train_cfg.seed == 5:
                raise RuntimeError(f"pair generation failed for {task} at seed {train_cfg.seed}")
            return pretrain_model(task, enc_cfg, train_cfg, store, metrics_out)

        monkeypatch.setattr(benchmark, "pretrain_model", failing)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(util, "_worker_budget", lambda: workers)
            with pytest.raises(Exception) as info:
                run_experiment(store, entries, cfg, log=lambda msg: None)
            errors.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1] == (RuntimeError, "pair generation failed for ict at seed 5")

    @pytest.mark.parametrize("env, budget", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "two"}, 1),
    ])
    def test_worker_budget_is_cpus_over_blas_threads(self, monkeypatch, env, budget):
        monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for var in util._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert util._worker_budget() == budget
        # One usable CPU (taskset -c 0), or none known, runs in one process.
        monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert util._worker_budget() == 1
        monkeypatch.delattr(util.os, "sched_getaffinity", raising=False)
        assert util._worker_budget() == 1

    def test_unit_faults_are_none_without_getrusage(self, monkeypatch):
        from twotower import benchmark

        monkeypatch.setattr(benchmark, "resource", None)
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=60, seed=13))
        cfg = ExperimentConfig(ratios=[[60, 40]], encoders=[], tasks=[], seeds=[5], vocab_max_size=4096)
        stats = {}
        run_experiment(store, entries, cfg, log=lambda msg: None, stats=stats)
        assert [unit["minflt"] for unit in stats["units"]] == [None]

    def test_unit_timings_keep_validation_checks_and_selected_step(self, monkeypatch):
        # The selected step is the earliest check of the highest recall, as
        # `training.finetune` keeps a later checkpoint only on a strict gain.
        from twotower import benchmark

        finetune_model = benchmark.finetune_model
        history = [
            {"step": 0, "loss": None, "acc": None, "val_recall": 0.25},
            {"step": 1, "loss": 1.0, "acc": 0.5},
            {"step": 2, "loss": 0.9, "acc": 0.5, "val_recall": 0.5},
            {"step": 3, "loss": 0.8, "acc": 0.5},
            {"step": 4, "loss": 0.7, "acc": 0.5, "val_recall": 0.5},
        ]

        def fixed_history(*args):
            best, _, index = finetune_model(*args)
            return best, history, index

        monkeypatch.setattr(benchmark, "finetune_model", fixed_history)
        monkeypatch.setattr(util, "_worker_budget", lambda: 1)
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=60, seed=13))
        cfg = ExperimentConfig(
            ratios=[[60, 40], [80, 20]], encoders=["transformer"], tasks=["none"], seeds=[5],
            pretrain_steps=0, finetune_steps=4, batch_size=4, eval_every=2, num_layers=1,
            hidden_dim=16, num_heads=2, ff_dim=32, emb_dim=8, vocab_max_size=4096,
        )
        stats = {}
        report = run_experiment(store, entries, cfg, log=lambda msg: None, stats=stats)
        dense, bm25 = stats["units"]
        assert dense["val_checks"] == [[[0, 0.25], [2, 0.5], [4, 0.5]]] * 2
        assert dense["selected_step"] == [2, 2]
        assert bm25["val_checks"] == bm25["selected_step"] == []
        assert "val_checks" not in json.dumps(report)

    def test_bm25_cell_and_augmented_rows(self):
        store, entries = build_toy(SynthConfig(n_articles=30, n_topics=6, n_qa=60, seed=13))
        cfg = ExperimentConfig(
            ratios=[[60, 40]],
            encoders=[],
            tasks=[],
            seeds=[5],
            include_bm25=True,
            augment_limit=25,
            vocab_max_size=4096,
        )
        report = run_experiment(store, entries, cfg, log=lambda msg: None)
        kinds = {(c["encoder"], c["augmented"]) for c in report["cells"]}
        assert kinds == {("bm25", False), ("bm25", True)}
        aug = next(c for c in report["cells"] if c["augmented"])
        assert aug["n_candidates"] > next(
            c for c in report["cells"] if not c["augmented"]
        )["n_candidates"]

    def test_fixed_ranking_gold_rank_monotone_under_augmentation(self, small_toy):
        # With a fixed scoring function, growing the candidate set can only
        # push the gold down (fresh ids lose score ties to existing ones).
        store, entries, vocab = small_toy
        examples, candidates, _ = build_reqa(entries, store, vocab, Q_LEN)
        augmented = with_distractors(store, entries, candidates, 40, seed=2)

        from twotower.encoders import EncoderConfig, TwoTower, encode, init_params
        from twotower.retrieval import build_dense_index, dense_topk

        enc_cfg = EncoderConfig(
            arch="bow_mlp", num_layers=1, hidden_dim=16, num_heads=2, ff_dim=16,
            emb_dim=8, vocab_size=len(vocab), query_max_len=Q_LEN, doc_max_len=D_LEN,
            dtype="float64",
        )
        model = TwoTower(
            enc_cfg,
            init_params(enc_cfg, subrng(45), enc_cfg.query_max_len),
            init_params(enc_cfg, subrng(44), enc_cfg.doc_max_len),
        )
        base_index = build_dense_index(model, [c.id for c in candidates],
                                       [c.doc_input(D_LEN) for c in candidates])
        aug_index = build_dense_index(model, [c.id for c in augmented],
                                      [c.doc_input(D_LEN) for c in augmented])
        for ex in examples[:25]:
            q_emb = encode(model.query, enc_cfg, [ex.question_tokens])[0]
            base_rank = dense_topk(base_index, q_emb, len(candidates)).ids.index(ex.gold_id)
            aug_rank = dense_topk(aug_index, q_emb, len(augmented)).ids.index(ex.gold_id)
            assert aug_rank >= base_rank

    def test_summarize_cells_means(self):
        cells = [
            {"ratio": "80/20", "encoder": "e", "task": "t", "augmented": False,
             "recalls": {"1": 0.2, "5": 0.4}, "seed": 1},
            {"ratio": "80/20", "encoder": "e", "task": "t", "augmented": False,
             "recalls": {"1": 0.4, "5": 0.6}, "seed": 2},
        ]
        means = summarize_cells(cells, ks=(1, 5))
        assert len(means) == 1
        assert means[0]["recalls"]["1"] == pytest.approx(0.3)
        assert means[0]["recalls"]["5"] == pytest.approx(0.5)
        assert means[0]["n_seeds"] == 2
