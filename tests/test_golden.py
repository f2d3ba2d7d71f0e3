"""Byte-identity gate: a tiny run of every CLI stage writes recorded bytes.

The chain below runs `synth`, `vocab`, four `pretrain` variants, `finetune`,
dense and BM25 evals with distractors and a small `experiment` grid, all
in-process through `cli.main`. The sha256 of every checkpoint tensor file,
eval JSON and experiment report must equal the digest recorded in `GOLDEN`.
Manifests are left out because they hold wall times.

A change that keeps the arithmetic keeps these digests. A change that moves
float rounding on purpose (summation order, fused ops, a new default dtype)
re-records them and says so. The digests were recorded with numpy 2 and
OpenBLAS on x86-64; another BLAS build or CPU kernel may round differently.
"""

import pytest

from twotower import cli, util

TINY_ENCODER = ["--layers", "1", "--hidden-dim", "16", "--heads", "2", "--ff-dim", "32",
                "--emb-dim", "8", "--query-max-len", "12", "--doc-max-len", "32"]
PRETRAIN = ["--steps", "4", "--batch", "4", "--seed", "5", *TINY_ENCODER]

GOLDEN = {
    "ict-bfs-wlp.bin": "53583e3ab4e25add45be4cc3503e653801666f57ff6eb547b670f932f5ffb718",
    "mlm-shared.bin": "d2d46dc0d9540e764f9afbd4b24096a6a19c81a4ee4f7bf6d3403746fa615306",
    "ict-shared.bin": "a28c2d11a6e18578cc4aa2919f220df990c50739770477e1b0b07442b8e60c0d",
    "bow.bin": "92dd6d51acc92c23973f0916389c9ce0fab1310af41ab9faabea642b2c775bc6",
    "tuned.bin": "cb452441c73b02024e50e60bcfea70a94dc64846b56a494f182a473ac3a2e1d7",
    "eval-tuned.json": "7e3f18543b31b565d23684b3da9d64e64508395c6a64b0e8a436a81a6cdddc6e",
    "eval-ict-shared.json": "0071ff5faee2537e6193408fdcce0d71681abe50a7aebd2721eaf031112c1cfd",
    "eval-bow.json": "e9d9197856b823bd3cf83c774bfe18ae87548444c13c523ac57b0b1ac8985ba7",
    "bm25.json": "2d0fa00947147b4e8050015a70cc375a7ccaeff4880cdc692d437b670e8bc2b1",
    "report.json": "cb8940f40944a2174c777793d08be52eb55c61bc25e879ef02b8d265b035158d",
    "report.txt": "f87f314ee7d51fa25e1145a691a5e7eafc4a6a46912767b7c85b5350b0045c15",
}


def _run(*argv):
    assert cli.main(list(argv)) == cli.EXIT_OK, argv


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus, qa, vocab = str(root / "corpus.jsonl"), str(root / "qa.jsonl"), str(root / "vocab.txt")
    _run("synth", "--out", corpus, "--qa", qa,
         "--articles", "30", "--topics", "6", "--qa-count", "60", "--seed", "13")
    _run("vocab", "--corpus", corpus, "--out", vocab, "--max-size", "4096")
    data = ["--corpus", corpus, "--vocab", vocab]

    outputs = {}
    for name, flags in [
        ("ict-bfs-wlp", ["--tasks", "ict+bfs+wlp"]),
        ("mlm-shared", ["--tasks", "mlm", "--share-towers"]),
        ("ict-shared", ["--tasks", "ict", "--share-towers"]),
        ("bow", ["--tasks", "ict+bfs+wlp", "--arch", "bow_mlp"]),
    ]:
        _run("pretrain", *data, "--out", str(root / name), *PRETRAIN, *flags)
        outputs[f"{name}.bin"] = root / f"{name}.bin"

    # Seed 7 at lr 3e-3 is one at which fine-tuning keeps a later step than
    # step 0, so `tuned.bin` differs from its pre-trained checkpoint.
    bench = [*data, "--qa", qa, "--ratio", "60/40", "--seed", "7"]
    tuned = str(root / "tuned")
    _run("finetune", *bench, "--ckpt", str(root / "ict-bfs-wlp"), "--out", tuned,
         "--steps", "4", "--batch", "4", "--lr", "0.003", "--eval-every", "2")
    outputs["tuned.bin"] = root / "tuned.bin"

    for ckpt in ("tuned", "ict-shared", "bow"):
        out = root / f"eval-{ckpt}.json"
        _run("eval", *bench, "--ckpt", str(root / ckpt), "--augment", "20", "--out", str(out))
        outputs[out.name] = out
    _run("bm25-eval", *bench, "--augment", "20", "--query-max-len", "12",
         "--out", str(root / "bm25.json"))
    outputs["bm25.json"] = root / "bm25.json"

    grid = str(root / "grid.json")
    util.dump_json(grid, {
        "ratios": [[60, 40]], "encoders": ["transformer", "bow_mlp"],
        "tasks": ["none", "mlm", "ict+bfs+wlp"], "seeds": [7, 8], "augment_limit": 20,
        "pretrain_steps": 3, "finetune_steps": 4, "finetune_lr": 3e-3, "batch_size": 4,
        "eval_every": 2, "num_layers": 1, "hidden_dim": 16, "num_heads": 2, "ff_dim": 32,
        "emb_dim": 8, "query_max_len": 12, "doc_max_len": 32, "vocab_max_size": 4096,
    })
    _run("experiment", "--corpus", corpus, "--qa", qa, "--config", grid, "--out", str(root / "exp"))
    outputs["report.json"] = root / "exp" / "report.json"
    outputs["report.txt"] = root / "exp" / "report.txt"
    return {name: util.sha256_file(str(path)) for name, path in outputs.items()}


def test_outputs_match_recorded_digests(digests):
    assert digests == GOLDEN
