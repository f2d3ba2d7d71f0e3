import dataclasses
import json
import os

import numpy as np
import pytest

from twotower import benchmark, cli, util
from twotower.encoders import load_checkpoint, save_checkpoint
from twotower.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, render_report


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny synthesized corpus + vocab shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.jsonl")
    qa = str(root / "qa.jsonl")
    vocab = str(root / "vocab.txt")
    assert run("synth", "--out", corpus, "--qa", qa,
               "--articles", "30", "--topics", "6", "--qa-count", "60", "--seed", "13") == EXIT_OK
    assert run("vocab", "--corpus", corpus, "--out", vocab, "--max-size", "4096") == EXIT_OK
    return root, corpus, qa, vocab


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        assert run("eval", "--help") == EXIT_OK
        assert "usage" in capsys.readouterr().out.lower()

    def test_missing_required_flag_names_it(self, workdir, capsys):
        assert run("vocab", "--out", "x.txt") == EXIT_USAGE
        assert "--corpus" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("eval", "--no-such-flag") == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == EXIT_USAGE
        # Deleted commands: the pipeline and the experiment grid never ran them.
        for command in ("index", "ingest", "gen-pairs", "report"):
            assert run(command, "--help") == EXIT_USAGE
            assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_docstring_lists_every_command(self):
        listed = cli.__doc__.split(":", 1)[1].split(".", 1)[0]
        assert [name.strip() for name in listed.split(",")] == list(cli._COMMANDS)

    def test_no_command_prints_usage(self, capsys):
        assert run() == EXIT_USAGE

    @pytest.mark.parametrize("command, flag, value", [
        ("pretrain", "--eval-every", "2"),  # pretrain never validates
        ("pretrain", "--patience", "2"),
        ("pretrain", "--correction", "log_frequency"),  # deleted: logQ correction is not in the paper
        ("finetune", "--correction", "log_frequency"),
        ("eval", "--query-max-len", "12"),  # the checkpoint fixes the max lengths
        ("eval", "--doc-max-len", "40"),
        ("bm25-eval", "--doc-max-len", "40"),  # BM25 matches whole candidates
        ("vocab", "--seed", "3"),  # draws no random numbers
        ("vocab", "--threads", "2"),  # read by nothing
        ("vocab", "--deterministic", None),
        # --config is the experiment grid alone; a stage takes its options as flags.
        *[(command, "--config", "x.json")
          for command in ("synth", "vocab", "pretrain", "finetune", "eval", "bm25-eval")],
        ("experiment", "--seed", "3"),  # the grid's `seeds` are the one source
    ])
    def test_flag_the_command_does_not_use_is_usage_error(self, command, flag, value, capsys):
        argv = [command, flag] + ([value] if value is not None else [])
        assert run(*argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("experiment", "pretrain_stepz"),  # neither an option nor an ExperimentConfig field
        ("experiment", "max-size"),  # another command's option
        ("experiment", "seed"),  # an option of the stage commands; the grid sets `seeds`
    ])
    def test_config_key_the_command_does_not_declare_is_usage_error(
        self, workdir, command, key, tmp_path, capsys
    ):
        _, corpus, qa, _ = workdir
        cfg_path = str(tmp_path / "cfg.json")
        util.dump_json(cfg_path, {key: 8})
        out_dir = tmp_path / "run"
        assert run(
            command, "--corpus", corpus, "--qa", qa, "--out", str(out_dir), "--config", cfg_path,
        ) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out_dir.exists()


class TestPipelineCommands:
    def test_existing_output_requires_force(self, workdir, tmp_path, capsys):
        _, corpus, _, _ = workdir
        out = str(tmp_path / "vocab.txt")
        assert run("vocab", "--corpus", corpus, "--out", out) == EXIT_OK
        assert run("vocab", "--corpus", corpus, "--out", out) == EXIT_RUNTIME
        assert "--force" in capsys.readouterr().err
        assert run("vocab", "--corpus", corpus, "--out", out, "--force") == EXIT_OK

    def test_manifest_records_hashes(self, workdir, tmp_path):
        _, corpus, _, _ = workdir
        out = str(tmp_path / "vocab.txt")
        assert run("vocab", "--corpus", corpus, "--out", out) == EXIT_OK
        manifest_path = tmp_path / "manifests.jsonl"
        records = [json.loads(l) for l in open(manifest_path)]
        assert len(records) == 1
        record = records[0]
        assert record["command"] == "vocab"
        for path, digest in {**record["inputs"], **record["outputs"]}.items():
            assert os.path.exists(path)
            assert util.sha256_file(path) == digest

    def test_manifests_append(self, workdir, tmp_path):
        _, corpus, _, _ = workdir
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        assert run("vocab", "--corpus", corpus, "--out", a) == EXIT_OK
        assert run("vocab", "--corpus", corpus, "--out", b) == EXIT_OK
        records = [json.loads(l) for l in open(tmp_path / "manifests.jsonl")]
        assert len(records) == 2

    @pytest.mark.parametrize("articles, topics", [(60, 100), (5, 0), (1, 1)])
    def test_synth_needs_an_article_per_topic(self, tmp_path, articles, topics, capsys):
        out = tmp_path / "corpus.jsonl"
        assert run("synth", "--out", str(out), "--qa", str(tmp_path / "qa.jsonl"),
                   "--articles", str(articles), "--topics", str(topics)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{topics} topics" in err and f"{articles} articles" in err
        assert not out.exists()

    def test_synth_qa_count_must_not_be_negative(self, tmp_path, capsys):
        out, qa = tmp_path / "corpus.jsonl", tmp_path / "qa.jsonl"
        argv = ["synth", "--out", str(out), "--qa", str(qa), "--articles", "4", "--topics", "2"]
        assert run(*argv, "--qa-count", "-5") == EXIT_USAGE
        assert "QA count >= 0, got -5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # Zero writes a corpus and an empty QA file.
        assert run(*argv, "--qa-count", "0") == EXIT_OK
        assert out.stat().st_size > 0 and qa.read_text() == ""


@pytest.fixture(scope="module")
def trained(workdir, tmp_path_factory):
    root, corpus, qa, vocab = workdir
    out = tmp_path_factory.mktemp("train")
    ckpt = str(out / "ckpt")
    code = run(
        "pretrain", "--corpus", corpus, "--vocab", vocab, "--out", ckpt,
        "--steps", "4", "--batch", "4", "--layers", "1", "--hidden-dim", "16",
        "--heads", "2", "--ff-dim", "32", "--emb-dim", "8", "--seed", "5",
        "--metrics", str(out / "metrics.jsonl"),
    )
    assert code == EXIT_OK
    return out, ckpt


class TestTrainEvalCommands:

    def test_pretrain_writes_metrics_stream(self, trained):
        out, _ = trained
        records = [json.loads(l) for l in open(out / "metrics.jsonl")]
        assert [r["step"] for r in records] == [1, 2, 3, 4]
        assert all({"step", "loss", "acc", "lr"} <= set(r) for r in records)

    def test_finetune_then_eval(self, workdir, trained, tmp_path):
        root, corpus, qa, vocab = workdir
        _, ckpt = trained
        tuned = str(tmp_path / "tuned")
        assert run(
            "finetune", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
            "--ckpt", ckpt, "--out", tuned, "--ratio", "60/40",
            "--steps", "4", "--batch", "4", "--eval-every", "2", "--seed", "5",
        ) == EXIT_OK
        record = json.loads(open(tmp_path / "manifests.jsonl").readline())
        assert record["command"] == "finetune"
        assert record["inputs"][ckpt + ".json"] == util.sha256_file(ckpt + ".json")
        assert record["inputs"][ckpt + ".bin"] == util.sha256_file(ckpt + ".bin")
        report = str(tmp_path / "report.json")
        assert run(
            "eval", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
            "--ckpt", tuned, "--out", report, "--ratio", "60/40", "--seed", "5",
        ) == EXIT_OK
        payload = util.load_json(report)
        recalls = [payload["recalls"][k] for k in ("1", "5", "10", "50", "100")]
        assert recalls == sorted(recalls)

    def test_eval_of_a_non_finite_checkpoint_fails_without_output(self, workdir, trained, tmp_path, capsys):
        _, corpus, qa, vocab = workdir
        model, _ = load_checkpoint(trained[1])
        model.doc["out/b"][0] = np.nan
        ckpt = str(tmp_path / "nan")
        save_checkpoint(ckpt, model)
        report = tmp_path / "report.json"
        assert run(
            "eval", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
            "--ckpt", ckpt, "--out", str(report), "--ratio", "60/40", "--seed", "5",
        ) == EXIT_RUNTIME
        assert "embeddings are not finite" in capsys.readouterr().err
        assert not report.exists() and not (tmp_path / "manifests.jsonl").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--arch", "nope"], "unknown arch"),
        (["--hidden-dim", "10", "--heads", "4"], "divisible by num_heads"),
    ])
    def test_pretrain_bad_encoder_setting_rejected_before_loading(self, tmp_path, flags, message, capsys):
        # The corpus does not exist: loading it first would be a runtime error.
        missing = str(tmp_path / "missing.jsonl")
        assert run(
            "pretrain", "--corpus", missing, "--vocab", missing, "--out", str(tmp_path / "m"), *flags,
        ) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, message", [
        (command, flag, value, f"{flag} {value!r}")
        for command in ("eval", "bm25-eval")
        for flag, value in [("--k", "0"), ("--k", "x"), ("--k", "5,,10"), ("--ratio", "60/50")]
    ] + [
        ("finetune", "--ratio", "60/50", "--ratio '60/50'"),
        ("finetune", "--ratio", "60-40", "--ratio '60-40'"),
        ("eval", "--augment", "-5", "augment_limit must be >= 0, got -5"),
        ("bm25-eval", "--augment", "-1", "augment_limit must be >= 0, got -1"),
        ("bm25-eval", "--query-max-len", "0", "max lengths must be >= 2, got query 0 and doc 48"),
        ("bm25-eval", "--query-max-len", "1", "max lengths must be >= 2, got query 1 and doc 48"),
    ])
    def test_bad_k_or_ratio_rejected_before_loading(
        self, tmp_path, command, flag, value, message, capsys
    ):
        missing = str(tmp_path / "missing.jsonl")
        argv = [command, "--corpus", missing, "--vocab", missing, "--qa", missing,
                "--out", str(tmp_path / "out"), flag, value]
        if command != "bm25-eval":
            argv += ["--ckpt", missing]
        assert run(*argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("pretrain", "--batch", "1", "batch_size"),
        ("pretrain", "--steps", "-1", "total_steps"),
        ("pretrain", "--lr", "-1", "lr_peak"),
        ("finetune", "--batch", "1", "batch_size"),
        ("finetune", "--eval-every", "0", "eval_every"),
        ("finetune", "--patience", "-1", "patience"),
    ] + [
        # Settings that are constants now: their old flags are unknown options.
        (command, flag, value, f"unrecognized arguments: {flag} {value}")
        for command, flag, value in [
            ("pretrain", "--warmup", "0.1"), ("finetune", "--warmup", "0.1"),
            ("vocab", "--min-freq", "1"), ("bm25-eval", "--bm25-k1", "1.2"),
            ("bm25-eval", "--bm25-b", "0.75"),
        ]
    ])
    def test_bad_training_setting_rejected_before_loading(
        self, tmp_path, command, flag, value, message, capsys
    ):
        missing = str(tmp_path / "missing.jsonl")
        argv = [command, "--corpus", missing, "--out", str(tmp_path / "m"), flag, value]
        if command != "vocab":
            argv += ["--vocab", missing]
        if command in ("finetune", "bm25-eval"):
            argv += ["--qa", missing]
        if command == "finetune":
            argv += ["--ckpt", missing]
        assert run(*argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tasks", ["none", "ict+nope", "ict+ict"])
    def test_pretrain_bad_tasks_rejected_before_loading(self, tmp_path, tasks, capsys):
        # The corpus does not exist: loading it first would be a runtime error.
        missing = str(tmp_path / "missing.jsonl")
        assert run("pretrain", "--corpus", missing, "--vocab", missing,
                   "--out", str(tmp_path / "m"), "--tasks", tasks) == EXIT_USAGE
        assert repr(tasks) in capsys.readouterr().err

    def test_pretrain_tasks_none_rejected_before_work(self, workdir, tmp_path, capsys):
        _, corpus, _, vocab = workdir
        ckpt = str(tmp_path / "none")
        assert run(
            "pretrain", "--corpus", corpus, "--vocab", vocab, "--out", ckpt, "--tasks", "none",
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'none'" in err and "mlm" in err and "ict, bfs, wlp" in err
        assert not os.path.exists(ckpt + ".json")
        assert not os.path.exists(tmp_path / "manifests.jsonl")

    @pytest.mark.parametrize("tasks", ["ict+bfs+wlp", "mlm"])
    def test_shared_towers_end_to_end(self, workdir, tmp_path, tasks):
        _, corpus, qa, vocab = workdir
        ckpt, tuned = str(tmp_path / "shared"), str(tmp_path / "tuned")
        data = ["--corpus", corpus, "--vocab", vocab]
        assert run(
            "pretrain", *data, "--out", ckpt, "--tasks", tasks, "--share-towers",
            "--steps", "3", "--batch", "4", "--layers", "1", "--hidden-dim", "16",
            "--heads", "2", "--ff-dim", "32", "--emb-dim", "8", "--seed", "5",
        ) == EXIT_OK
        assert run(
            "finetune", *data, "--qa", qa, "--ckpt", ckpt, "--out", tuned, "--ratio", "60/40",
            "--steps", "2", "--batch", "4", "--eval-every", "1", "--seed", "5",
        ) == EXIT_OK
        for prefix in (ckpt, tuned):
            names = [t["name"] for t in util.load_json(prefix + ".json")["tensors"]]
            assert names and all(n.startswith("tower/") for n in names)
            model, _ = load_checkpoint(prefix)
            assert model.config.share_towers and model.doc is model.query
        report = str(tmp_path / "eval.json")
        assert run(
            "eval", *data, "--qa", qa, "--ckpt", tuned, "--out", report, "--ratio", "60/40",
            "--seed", "5",
        ) == EXIT_OK
        assert util.load_json(report)["n_queries"] > 0

    def test_bm25_eval(self, workdir, tmp_path):
        root, corpus, qa, vocab = workdir
        report = str(tmp_path / "bm25.json")
        assert run(
            "bm25-eval", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
            "--out", report, "--ratio", "60/40", "--seed", "5",
        ) == EXIT_OK
        payload = util.load_json(report)
        assert payload["system"] == "bm25"
        assert payload["recalls"]["100"] >= payload["recalls"]["1"]


class TestExperimentCommand:
    def _config(self, tmp_path):
        cfg_path = str(tmp_path / "exp.json")
        util.dump_json(cfg_path, {
            "ratios": [[60, 40]],
            "encoders": ["transformer"],
            "tasks": ["none"],
            "include_bm25": True,
            "pretrain_steps": 0,
            "finetune_steps": 4,
            "batch_size": 4,
            "eval_every": 2,
            "num_layers": 1,
            "hidden_dim": 16,
            "num_heads": 2,
            "ff_dim": 32,
            "emb_dim": 8,
            "vocab_max_size": 4096,
        })
        return cfg_path

    def test_run_twice_byte_identical(self, workdir, tmp_path):
        _, corpus, qa, _ = workdir
        cfg_path = self._config(tmp_path)
        outs = []
        for name in ("run1", "run2"):
            out_dir = str(tmp_path / name)
            assert run(
                "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", out_dir,
            ) == EXIT_OK
            outs.append(out_dir)
        for filename in ("report.json", "report.txt"):
            a = open(os.path.join(outs[0], filename), "rb").read()
            b = open(os.path.join(outs[1], filename), "rb").read()
            assert a == b

    @pytest.mark.parametrize("grid, message", [
        pytest.param(grid, message, id=f"grid{i}") for i, (grid, message) in enumerate([
            ({"tasks": ["ict+bfs+wlp", "ict+nope"]}, "nope"),
            ({"encoders": ["transformer", "nope"]}, "nope"),
            ({"seeds": [], "augment_limit": 5}, "seeds"),
            ({"seeds": []}, "seeds"),
            ({"ratios": []}, "ratios"),
            ({"ratios": [[60, 50]]}, "split ratio"),
            ({"ratios": [[100, 0]]}, "split ratio"),
            ({"ratios": [[60, 30, 10]]}, "split ratio"),
            ({"ks": []}, "ks"),
            ({"ks": [0, 10]}, "ks"),
            ({"tasks": [], "include_bm25": False}, "no cell"),
            ({"encoders": ["bow_mlp"], "tasks": ["mlm"], "include_bm25": False}, "no cell"),
            ({"batch_size": 1}, "batch_size"),
            ({"pretrain_steps": -1}, "total_steps"),
            ({"finetune_steps": -1}, "total_steps"),
            ({"eval_every": 0}, "eval_every"),
            ({"patience": -1}, "patience"),
            ({"pretrain_lr": 0.0}, "lr_peak"),
            ({"finetune_lr": -1e-3}, "lr_peak"),
            ({"batch_size": "8"}, "'batch_size'"),
            ({"seeds": 7}, "'seeds'"),
            ({"tasks": [5]}, "'tasks'"),
            ({"seeds": ["a"]}, "'seeds'"),
            ({"seeds": [True]}, "'seeds'"),
            ({"include_bm25": 1}, "'include_bm25'"),
            ({"pretrain_lr": "0.1"}, "'pretrain_lr'"),
            ({"augment_limit": -4}, "augment_limit"),
            # Settings that are constants now, even at their old defaults.
            ({"warmup_fraction": 0.1}, "keys that are not grid fields: ['warmup_fraction']"),
            ({"vocab_min_freq": 1}, "keys that are not grid fields: ['vocab_min_freq']"),
            ({"bm25_k1": 1.2, "bm25_b": 0.75}, "keys that are not grid fields: ['bm25_b', 'bm25_k1']"),
            # Grids that would train nothing if accepted, so they fail fast where they are.
            ({"vocab_max_size": 3}, "vocab_max_size must be > 5"),
            ({"seeds": [7, 7], "tasks": []}, "seeds names 7 more than once"),
            ({"ratios": [[80, 20], [60, 40], [80, 20]], "tasks": []},
             "ratios names [80, 20] more than once"),
            ({"encoders": ["transformer", "transformer"], "tasks": []},
             "encoders names 'transformer' more than once"),
            ({"tasks": ["mlm", "none", "mlm"], "encoders": []}, "tasks names 'mlm' more than once"),
            ({"ks": [10, 10], "tasks": []}, "ks names 10 more than once"),
        ])
    ])
    def test_bad_grid_rejected_before_work(self, workdir, tmp_path, grid, message, capsys):
        _, corpus, qa, _ = workdir
        cfg_path = str(tmp_path / "grid.json")
        util.dump_json(cfg_path, grid)
        out_dir = tmp_path / "run"
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", str(out_dir),
        ) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_grid_value_takes_the_type_of_its_default(self, workdir, tmp_path):
        # An integer passes for a float field; the report holds the float.
        _, corpus, qa, _ = workdir
        cfg_path = str(tmp_path / "grid.json")
        util.dump_json(cfg_path, {"tasks": [], "finetune_lr": 1, "vocab_max_size": 4096})
        out_dir = tmp_path / "run"
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", str(out_dir),
        ) == EXIT_OK
        config = util.load_json(str(out_dir / "report.json"))["config"]
        assert config["finetune_lr"] == 1.0 and type(config["finetune_lr"]) is float

    def test_manifest_records_worker_count_and_unit_timings(self, workdir, tmp_path):
        _, corpus, qa, _ = workdir
        cfg_path = self._config(tmp_path)
        out_dir = tmp_path / "run"
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", str(out_dir),
        ) == EXIT_OK
        record = json.loads(open(out_dir / "manifests.jsonl").readline())
        assert record["workers"] == min(2, util._worker_budget())
        dense, bm25 = record["units"]
        assert (dense["seed"], dense["encoder"], dense["task"]) == (7, "transformer", "none")
        assert (bm25["seed"], bm25["encoder"], bm25["task"]) == (7, "bm25", "none")
        # One split and one (un-augmented) pool: one finetune, one eval.
        assert dense["pretrain_s"] >= 0 and len(dense["finetune_s"]) == 1 and len(dense["eval_s"]) == 1
        assert bm25["pretrain_s"] is None and bm25["finetune_s"] == [] and len(bm25["eval_s"]) == 1
        for unit in record["units"]:
            assert all(s >= 0 for s in unit["finetune_s"] + unit["eval_s"])
            assert isinstance(unit["minflt"], int) and unit["minflt"] >= 0

    def test_manifest_records_each_finetune_checks_and_selected_step(self, workdir, tmp_path):
        _, corpus, qa, _ = workdir
        cfg_path = self._config(tmp_path)
        out_dir = tmp_path / "run"
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", str(out_dir),
        ) == EXIT_OK
        dense, bm25 = json.loads(open(out_dir / "manifests.jsonl").readline())["units"]
        # 4 finetune steps, validation every 2: checks at steps 0, 2 and 4.
        (checks,) = dense["val_checks"]
        assert [step for step, _ in checks] == [0, 2, 4]
        assert all(0.0 <= recall <= 1.0 for _, recall in checks)
        best = max(recall for _, recall in checks)
        assert dense["selected_step"] == [next(step for step, recall in checks if recall == best)]
        assert bm25["val_checks"] == bm25["selected_step"] == []
        assert "val_checks" not in (out_dir / "report.json").read_text()

    def test_report_rendering(self, workdir, tmp_path, capsys):
        _, corpus, qa, _ = workdir
        cfg_path = self._config(tmp_path)
        out_dir = str(tmp_path / "run")
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", out_dir,
        ) == EXIT_OK
        table = open(os.path.join(out_dir, "report.txt")).read()
        assert capsys.readouterr().out == table
        header = table.splitlines()[0]
        assert [c for c in header.split() if c.startswith("R@")] == [
            "R@1", "R@5", "R@10", "R@50", "R@100"
        ]
        assert "bm25" in table and "transformer" in table


class TestOnePipeline:
    def test_command_defaults_are_the_default_grid(self):
        # A chain of commands run on their defaults computes a cell of the
        # default grid: each default equals the matching `ExperimentConfig` one.
        grid = benchmark.ExperimentConfig()
        split_eval = {
            "ratio": "/".join(map(str, grid.ratios[0])),
            "seed": grid.seeds[0],
            "k": ",".join(map(str, grid.ks)),
            "augment": grid.augment_limit,
        }
        expected = {
            "vocab": {"max-size": grid.vocab_max_size},
            "pretrain": {
                "arch": grid.encoders[0], "layers": grid.num_layers, "hidden-dim": grid.hidden_dim,
                "heads": grid.num_heads, "ff-dim": grid.ff_dim, "emb-dim": grid.emb_dim,
                "query-max-len": grid.query_max_len, "doc-max-len": grid.doc_max_len,
                "dtype": grid.dtype, "steps": grid.pretrain_steps, "batch": grid.batch_size,
                "lr": grid.pretrain_lr, "seed": grid.seeds[0],
            },
            "finetune": {
                "steps": grid.finetune_steps, "batch": grid.batch_size, "lr": grid.finetune_lr,
                "eval-every": grid.eval_every, "patience": grid.patience,
                "ratio": split_eval["ratio"], "seed": grid.seeds[0],
            },
            "eval": split_eval,
            "bm25-eval": {**split_eval, "query-max-len": grid.query_max_len},
        }
        for command, values in expected.items():
            options = cli._options(command)
            assert {name: options[name] for name in values} == values, command
        assert cli._options("pretrain")["tasks"] in grid.tasks

    @pytest.mark.parametrize("command, flag, key, value", [
        ("eval", "--augment", "augment_limit", "-3"),
        ("bm25-eval", "--augment", "augment_limit", "-3"),
        ("bm25-eval", "--query-max-len", "query_max_len", "1"),
        ("pretrain", "--query-max-len", "query_max_len", "1"),
        ("pretrain", "--doc-max-len", "doc_max_len", "2"),
        ("pretrain", "--batch", "batch_size", "1"),
        ("finetune", "--batch", "batch_size", "1"),
        ("vocab", "--max-size", "vocab_max_size", "3"),
    ])
    def test_stage_flag_and_grid_key_get_one_check(
        self, tmp_path, command, flag, key, value, capsys
    ):
        # A stage command's flag and the grid field it sets are checked once,
        # by the grid: the same bad value gives the same message both ways,
        # before any input is read or output written.
        missing = str(tmp_path / "missing.jsonl")
        argv = [command, "--corpus", missing, "--out", str(tmp_path / "out"), flag, value]
        if command != "vocab":
            argv += ["--vocab", missing]
        if command not in ("vocab", "pretrain"):
            argv += ["--qa", missing]
        if command in ("finetune", "eval"):
            argv += ["--ckpt", missing]
        assert run(*argv) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
        stage = capsys.readouterr().err.splitlines()[0]
        cfg_path = str(tmp_path / "grid.json")
        util.dump_json(cfg_path, {key: json.loads(value)})
        assert run(
            "experiment", "--corpus", missing, "--qa", missing, "--config", cfg_path,
            "--out", str(tmp_path / "exp"),
        ) == EXIT_USAGE
        grid = capsys.readouterr().err.splitlines()[0]
        assert stage.startswith("error: ")
        assert grid == f"error: --config {cfg_path}: " + stage[len("error: "):]

    @pytest.mark.parametrize("dtype", ["foo", "int8", "float16"])
    def test_dtype_the_encoder_cannot_run_is_usage_error(self, tmp_path, dtype, capsys):
        # The inputs do not exist: a check made after reading them would exit 2.
        missing = str(tmp_path / "missing.jsonl")
        message = f"dtype must be float32 or float64, got {dtype!r}"
        assert run(
            "pretrain", "--corpus", missing, "--vocab", missing, "--out", str(tmp_path / "m"),
            "--dtype", dtype,
        ) == EXIT_USAGE
        assert message in capsys.readouterr().err
        cfg_path = str(tmp_path / "grid.json")
        util.dump_json(cfg_path, {"dtype": dtype})
        assert run(
            "experiment", "--corpus", missing, "--qa", missing, "--config", cfg_path,
            "--out", str(tmp_path / "exp"),
        ) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]

    def test_field_table_holds_stage_options_of_grid_fields(self):
        fields = {f.name for f in dataclasses.fields(benchmark.ExperimentConfig)}
        for command, table in cli._FIELDS.items():
            assert command in cli._COMMANDS
            assert set(table.values()) <= fields, command
            assert not set(table) & set(cli._COMMANDS[command][1]), command

    @pytest.mark.parametrize("command, flag, field", [
        (command, flag, field)
        for command, table in cli._FIELDS.items() for flag, field in table.items()
    ])
    def test_field_flag_reaches_the_cell(self, tmp_path, monkeypatch, command, flag, field):
        # Each `_FIELDS` flag, set off its default, sets its field, and only
        # that, in the cell the command builds. The wrapped `_cell` stops the
        # command there, before it reads any input.
        default = getattr(cli._GRID, field)
        if isinstance(default, str):
            value = "float64"
        elif isinstance(default, float):
            value = default / 2
        else:
            value = default * 2 or 1
        cells = []
        build = cli._cell

        def stop(*args, **kwargs):
            cells.append(build(*args, **kwargs))
            raise RuntimeError("stopped at the cell")

        monkeypatch.setattr(cli, "_cell", stop)
        missing = str(tmp_path / "missing")
        required = [name for name, default in cli._options(command).items() if default is None]
        argv = [command, f"--{flag}", str(value)]
        for name in required:
            argv += [f"--{name}", missing]
        assert run(*argv) == EXIT_RUNTIME
        assert len(cells) == 1
        assert getattr(cells[0], field) == value
        assert dataclasses.replace(cells[0], **{field: default}) == cli._GRID

    @pytest.mark.parametrize("command", ["eval", "bm25-eval"])
    def test_repeated_k_is_usage_error(self, tmp_path, command, capsys):
        missing = str(tmp_path / "missing.jsonl")
        argv = [command, "--corpus", missing, "--vocab", missing, "--qa", missing,
                "--out", str(tmp_path / "out.json"), "--k", "1,10,10"]
        if command == "eval":
            argv += ["--ckpt", missing]
        assert run(*argv) == EXIT_USAGE
        assert "ks names 10 more than once" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_pretrain_mlm_needs_the_transformer(self, workdir, tmp_path, capsys):
        # Checked before the corpus is tokenized: the grid has no bow_mlp/mlm cell.
        _, corpus, _, vocab = workdir
        assert run(
            "pretrain", "--corpus", corpus, "--vocab", vocab, "--out", str(tmp_path / "ckpt"),
            "--arch", "bow_mlp", "--tasks", "mlm", "--steps", "1",
        ) == EXIT_USAGE
        assert "requires the transformer arch" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_commands_reproduce_experiment_cells(self, workdir, tmp_path):
        # pretrain -> finetune -> eval and bm25-eval, given the experiment's
        # settings, give the recalls of the matching experiment cells, with and
        # without distractors. The training split holds 32 questions, so batch
        # 48 is cut to 32 in fine-tuning. Seeds and learning rate are ones for
        # which fine-tuning keeps a later step.
        for batch, seed in [(4, 3), (48, 8)]:
            out = tmp_path / f"batch{batch}"
            out.mkdir()
            self._check_chain(workdir, out, batch, seed)

    def _check_chain(self, workdir, tmp_path, batch, seed):
        _, corpus, qa, vocab = workdir
        grid = {
            "ratios": [[60, 40]], "tasks": ["ict+bfs+wlp"], "seeds": [seed], "augment_limit": 20,
            "pretrain_steps": 3, "finetune_steps": 4, "finetune_lr": 3e-3, "batch_size": batch,
            "eval_every": 2, "num_layers": 1, "hidden_dim": 16, "num_heads": 2, "ff_dim": 32,
            "emb_dim": 8, "vocab_max_size": 4096,
        }
        cfg_path = str(tmp_path / "grid.json")
        util.dump_json(cfg_path, grid)
        exp = tmp_path / "exp"
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", str(exp),
        ) == EXIT_OK
        cells = {
            (c["encoder"], c["augmented"]): c["recalls"]
            for c in util.load_json(str(exp / "report.json"))["cells"]
        }
        assert len(cells) == 4

        data = ["--corpus", corpus, "--vocab", vocab, "--seed", str(seed)]
        ckpt, tuned = str(tmp_path / "ckpt"), str(tmp_path / "tuned")
        assert run(
            "pretrain", *data, "--out", ckpt, "--tasks", "ict+bfs+wlp", "--steps", "3",
            "--batch", str(batch), "--layers", "1", "--hidden-dim", "16", "--heads", "2",
            "--ff-dim", "32", "--emb-dim", "8",
        ) == EXIT_OK
        assert run(
            "finetune", *data, "--qa", qa, "--ckpt", ckpt, "--out", tuned, "--ratio", "60/40",
            "--steps", "4", "--lr", "0.003", "--batch", str(batch), "--eval-every", "2",
        ) == EXIT_OK
        assert open(tuned + ".bin", "rb").read() != open(ckpt + ".bin", "rb").read()
        for augment in (0, 20):
            common = [*data, "--qa", qa, "--ratio", "60/40", "--augment", str(augment)]
            dense, bm25 = str(tmp_path / f"dense{augment}.json"), str(tmp_path / f"bm25{augment}.json")
            assert run("eval", *common, "--ckpt", tuned, "--out", dense) == EXIT_OK
            assert run("bm25-eval", *common, "--out", bm25) == EXIT_OK
            assert util.load_json(dense)["recalls"] == cells[("transformer", augment > 0)]
            assert util.load_json(bm25)["recalls"] == cells[("bm25", augment > 0)]


class TestRenderReport:
    def test_perfect_recalls_render_100(self):
        report = {
            "config": {"ks": [1, 5, 10, 50, 100], "augment_limit": 0},
            "means": [{
                "ratio": "80/20", "encoder": "transformer", "task": "ict+bfs+wlp",
                "augmented": False, "n_seeds": 1,
                "recalls": {str(k): 1.0 for k in (1, 5, 10, 50, 100)},
            }],
        }
        text = render_report(report)
        assert text.count("100.00") == 5

    def test_rows_sorted(self):
        rows = [
            {"ratio": "80/20", "encoder": "z", "task": "t", "augmented": False,
             "recalls": {"1": 0.0}, "n_seeds": 1},
            {"ratio": "80/20", "encoder": "a", "task": "t", "augmented": False,
             "recalls": {"1": 0.0}, "n_seeds": 1},
        ]
        report = {"config": {"ks": [1], "augment_limit": 0}, "means": rows}
        text = render_report(report)
        lines = [l for l in text.splitlines() if l.strip().startswith("80/20")]
        assert lines[0].split()[1] == "a"
        assert lines[1].split()[1] == "z"
