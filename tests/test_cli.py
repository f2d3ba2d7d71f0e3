import json
import os

import pytest

from twotower import util
from twotower.encoders import load_checkpoint
from twotower.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, cmd_dispatch, render_report


def run(*argv):
    return cmd_dispatch(list(argv))


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

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_no_command_prints_usage(self, capsys):
        assert run() == EXIT_USAGE

    @pytest.mark.parametrize("command, flag, value", [
        ("pretrain", "--eval-every", "2"),  # pretrain never validates
        ("pretrain", "--patience", "2"),
        ("finetune", "--correction", "log_frequency"),  # finetune has no correction
        ("eval", "--query-max-len", "12"),  # the checkpoint fixes the max lengths
        ("eval", "--doc-max-len", "40"),
        ("ingest", "--seed", "3"),  # commands that draw no random numbers
        ("vocab", "--seed", "3"),
        ("index", "--seed", "3"),
        ("report", "--seed", "3"),
        ("vocab", "--threads", "2"),  # read by nothing
        ("vocab", "--deterministic", None),
    ])
    def test_flag_the_command_does_not_use_is_usage_error(self, command, flag, value, capsys):
        argv = [command, flag] + ([value] if value is not None else [])
        assert run(*argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("vocab", "max-sise"),
        ("pretrain", "hiden-dim"),
        ("experiment", "pretrain_stepz"),  # neither an option nor an ExperimentConfig field
        ("experiment", "max-size"),  # another command's option
    ])
    def test_config_key_the_command_does_not_declare_is_usage_error(
        self, command, key, tmp_path, capsys
    ):
        cfg_path = str(tmp_path / "cfg.json")
        util.dump_json(cfg_path, {key: 8})
        assert run(command, "--config", cfg_path) == EXIT_USAGE
        assert key in capsys.readouterr().err


class TestPipelineCommands:
    def test_ingest_roundtrip(self, workdir, tmp_path):
        _, corpus, _, _ = workdir
        out = str(tmp_path / "store.jsonl")
        assert run("ingest", "--corpus", corpus, "--out", out) == EXIT_OK
        assert os.path.exists(out)

    def test_gen_pairs_and_stats(self, workdir, tmp_path):
        _, corpus, _, vocab = workdir
        out = str(tmp_path / "pairs.jsonl")
        stats = str(tmp_path / "stats.json")
        assert run("gen-pairs", "--corpus", corpus, "--vocab", vocab,
                   "--out", out, "--stats", stats, "--n", "60", "--seed", "3") == EXIT_OK
        lines = [json.loads(l) for l in open(out)]
        assert len(lines) == 60
        assert set(json.load(open(stats))) == {"ict", "bfs", "wlp"}

    def test_existing_output_requires_force(self, workdir, tmp_path, capsys):
        _, corpus, _, _ = workdir
        out = str(tmp_path / "store.jsonl")
        assert run("ingest", "--corpus", corpus, "--out", out) == EXIT_OK
        assert run("ingest", "--corpus", corpus, "--out", out) == EXIT_RUNTIME
        assert "--force" in capsys.readouterr().err
        assert run("ingest", "--corpus", corpus, "--out", out, "--force") == EXIT_OK

    def test_manifest_records_hashes(self, workdir, tmp_path):
        _, corpus, _, _ = workdir
        out = str(tmp_path / "store.jsonl")
        assert run("ingest", "--corpus", corpus, "--out", out) == EXIT_OK
        manifest_path = tmp_path / "manifests.jsonl"
        records = [json.loads(l) for l in open(manifest_path)]
        assert len(records) == 1
        record = records[0]
        assert record["command"] == "ingest"
        for path, digest in {**record["inputs"], **record["outputs"]}.items():
            assert os.path.exists(path)
            assert util.sha256_file(path) == digest

    def test_manifests_append(self, workdir, tmp_path):
        _, corpus, _, _ = workdir
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert run("ingest", "--corpus", corpus, "--out", a) == EXIT_OK
        assert run("ingest", "--corpus", corpus, "--out", b) == EXIT_OK
        records = [json.loads(l) for l in open(tmp_path / "manifests.jsonl")]
        assert len(records) == 2

    def test_env_override(self, workdir, tmp_path, monkeypatch):
        _, corpus, _, _ = workdir
        out = str(tmp_path / "env-vocab.txt")
        monkeypatch.setenv("TWOTOWER_MAX_SIZE", "200")
        assert run("vocab", "--corpus", corpus, "--out", out) == EXIT_OK
        # 200-token cap respected (5 specials + chars + merges)
        assert len(open(out).read().splitlines()) <= 200

    @pytest.mark.parametrize("tasks", ["mlm", "none", "ict+nope"])
    def test_gen_pairs_bad_tasks_rejected_before_loading(self, tmp_path, tasks, capsys):
        # The corpus does not exist: loading it first would be a runtime error.
        missing = str(tmp_path / "missing.jsonl")
        assert run("gen-pairs", "--corpus", missing, "--vocab", missing,
                   "--out", str(tmp_path / "p.jsonl"), "--tasks", tasks) == EXIT_USAGE
        assert repr(tasks) in capsys.readouterr().err

    def test_config_file_supplies_flags(self, workdir, tmp_path):
        _, corpus, _, _ = workdir
        cfg_path = str(tmp_path / "cfg.json")
        out = str(tmp_path / "cfg-vocab.txt")
        util.dump_json(cfg_path, {"corpus": corpus, "max-size": 300})
        assert run("vocab", "--config", cfg_path, "--out", out) == EXIT_OK
        assert len(open(out).read().splitlines()) <= 300


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
        report = str(tmp_path / "report.json")
        assert run(
            "eval", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
            "--ckpt", tuned, "--out", report, "--ratio", "60/40", "--seed", "5",
        ) == EXIT_OK
        payload = util.load_json(report)
        recalls = [payload["recalls"][k] for k in ("1", "5", "10", "50", "100")]
        assert recalls == sorted(recalls)

    def test_index_command(self, workdir, trained, tmp_path):
        root, corpus, qa, vocab = workdir
        _, ckpt = trained
        index = str(tmp_path / "dense")
        assert run(
            "index", "--corpus", corpus, "--vocab", vocab, "--qa", qa,
            "--ckpt", ckpt, "--out", index,
        ) == EXIT_OK
        from twotower.retrieval import load_dense_index

        loaded = load_dense_index(index)
        assert loaded.embeddings.shape[0] == len(loaded.candidate_ids)
        assert loaded.fingerprint

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
        assert run("index", *data, "--qa", qa, "--ckpt", tuned, "--out", str(tmp_path / "idx")) == EXIT_OK

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
                "experiment", "--corpus", corpus, "--qa", qa,
                "--config", cfg_path, "--seed", "7", "--out", out_dir,
            ) == EXIT_OK
            outs.append(out_dir)
        for filename in ("report.json", "report.txt"):
            a = open(os.path.join(outs[0], filename), "rb").read()
            b = open(os.path.join(outs[1], filename), "rb").read()
            assert a == b

    @pytest.mark.parametrize("grid", [
        {"tasks": ["ict+bfs+wlp", "ict+nope"]},
        {"encoders": ["transformer", "nope"]},
    ])
    def test_bad_grid_rejected_before_work(self, workdir, tmp_path, grid, capsys):
        _, corpus, qa, _ = workdir
        cfg_path = str(tmp_path / "grid.json")
        util.dump_json(cfg_path, grid)
        out_dir = tmp_path / "run"
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa, "--config", cfg_path, "--out", str(out_dir),
        ) == EXIT_USAGE
        assert "nope" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_report_rendering(self, workdir, tmp_path, capsys):
        _, corpus, qa, _ = workdir
        cfg_path = self._config(tmp_path)
        out_dir = str(tmp_path / "run")
        assert run(
            "experiment", "--corpus", corpus, "--qa", qa,
            "--config", cfg_path, "--seed", "7", "--out", out_dir,
        ) == EXIT_OK
        capsys.readouterr()
        assert run("report", "--in", os.path.join(out_dir, "report.json")) == EXIT_OK
        table = capsys.readouterr().out
        header = table.splitlines()[0]
        assert [c for c in header.split() if c.startswith("R@")] == [
            "R@1", "R@5", "R@10", "R@50", "R@100"
        ]
        assert "bm25" in table and "transformer" in table


class TestOnePipeline:
    def test_commands_reproduce_experiment_cells(self, workdir, tmp_path):
        # pretrain -> finetune -> eval and bm25-eval, given the experiment's
        # settings, give the recalls of the matching experiment cells, with and
        # without distractors. The batch stays at most the training split's size,
        # so the experiment's finetune batch clamp does not engage; seed and
        # learning rate are ones for which fine-tuning keeps a later step.
        _, corpus, qa, vocab = workdir
        grid = {
            "ratios": [[60, 40]], "tasks": ["ict+bfs+wlp"], "seeds": [3], "augment_limit": 20,
            "pretrain_steps": 3, "finetune_steps": 4, "finetune_lr": 3e-3, "batch_size": 4,
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

        data = ["--corpus", corpus, "--vocab", vocab, "--seed", "3"]
        ckpt, tuned = str(tmp_path / "ckpt"), str(tmp_path / "tuned")
        assert run(
            "pretrain", *data, "--out", ckpt, "--tasks", "ict+bfs+wlp", "--steps", "3",
            "--batch", "4", "--layers", "1", "--hidden-dim", "16", "--heads", "2",
            "--ff-dim", "32", "--emb-dim", "8",
        ) == EXIT_OK
        assert run(
            "finetune", *data, "--qa", qa, "--ckpt", ckpt, "--out", tuned, "--ratio", "60/40",
            "--steps", "4", "--lr", "0.003", "--batch", "4", "--eval-every", "2",
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
