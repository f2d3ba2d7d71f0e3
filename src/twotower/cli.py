"""Command-line surface: synth, ingest, vocab, gen-pairs, pretrain, finetune,
index, eval, bm25-eval, experiment, report.

Each command declares its options once, in `_COMMANDS`, as name -> default; a
default of None marks a required path. Option values resolve as CLI flag >
TWOTOWER_<NAME> env var > --config JSON > default. The --config file is read
once, and a key in it that the command does not declare is a usage error
(`experiment` also takes the `ExperimentConfig` fields there). `pretrain`
writes the model, one `TwoTower` value, as a checkpoint; `finetune`, `index`
and `eval` read one and take every encoder setting from it, the max lengths
included. `pretrain`, `finetune`, `eval` and `bm25-eval` run the stage
functions of `benchmark` (`pretrain_model`, `finetune_model`,
`with_distractors`, `evaluate_system`) that `experiment` runs for each cell
of its grid. Every run appends one manifest record (resolved config,
input/output hashes, timing) to manifests.jsonl beside its primary output.
Progress goes to stderr; machine-readable results go to files or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import benchmark, pairs, retrieval, synth, util
from .corpus import Vocabulary, build_vocab, parse_corpus, serialize_corpus, tokenize_corpus
from .encoders import EncoderConfig, load_checkpoint, save_checkpoint
from .training import TrainRunConfig

ENV_PREFIX = "TWOTOWER_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _coerce(value: str, default):
    if isinstance(default, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def _load_config(path: Optional[str], allowed: Iterable[str]) -> Dict[str, object]:
    """The --config JSON object; a key outside `allowed` is a usage error."""
    if not path:
        return {}
    file_cfg = util.load_json(path)
    if not isinstance(file_cfg, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    unknown = sorted(set(file_cfg) - set(allowed))
    if unknown:
        raise UsageError(f"--config {path}: keys the command does not take: {unknown}")
    return file_cfg


def resolve_options(
    args: argparse.Namespace, defaults: Dict[str, object], file_cfg: Dict[str, object]
) -> Dict[str, object]:
    """Merge CLI flags over env vars over the --config file over defaults."""
    resolved = {}
    for name, default in defaults.items():
        attr = name.replace("-", "_")
        cli_value = getattr(args, attr, None)
        if cli_value is not None:
            resolved[name] = cli_value
            continue
        env_value = os.environ.get(ENV_PREFIX + attr.upper())
        if env_value is not None:
            resolved[name] = _coerce(env_value, default)
            continue
        if name in file_cfg:
            resolved[name] = file_cfg[name]
            continue
        resolved[name] = default
    return resolved


def _check_outputs(paths: Sequence[str], force: bool) -> None:
    for path in paths:
        if os.path.exists(path) and not force:
            raise RuntimeError(f"output {path} exists; pass --force to overwrite")


def _write_manifest(
    command: str,
    resolved: Dict[str, object],
    inputs: Sequence[str],
    outputs: Sequence[str],
    elapsed: float,
) -> None:
    primary = outputs[0] if outputs else "."
    directory = os.path.dirname(os.path.abspath(primary)) or "."
    record = {
        "command": command,
        "config": resolved,
        "seed": resolved.get("seed"),
        "inputs": {p: util.sha256_file(p) for p in inputs if os.path.exists(p)},
        "outputs": {p: util.sha256_file(p) for p in outputs if os.path.exists(p)},
        "elapsed_seconds": elapsed,
    }
    with open(os.path.join(directory, "manifests.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def _read_lines(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as f:
        return f.readlines()


def _load_corpus(path: str, link_policy: str = "drop"):
    return parse_corpus(_read_lines(path), link_policy)


def _load_tokenized(o: Dict[str, object]):
    """The --corpus store tokenized with the --vocab vocabulary."""
    store = _load_corpus(str(o["corpus"]))
    vocab = Vocabulary.load(_read_lines(str(o["vocab"])))
    tokenize_corpus(store, vocab)
    return store, vocab


def _build_benchmark(o: Dict[str, object], store, vocab, query_max_len: int, doc_max_len: int):
    """(QA entries, examples, candidates, dropped count) of the --qa file."""
    entries = benchmark.read_qa_entries(_read_lines(str(o["qa"])))
    examples, candidates, dropped = benchmark.build_reqa(
        entries, store, vocab, query_max_len, doc_max_len
    )
    return entries, examples, candidates, dropped


def _metrics_file(o: Dict[str, object]):
    path = str(o["metrics"])
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()


def _add_options(sub: argparse.ArgumentParser, defaults: Dict[str, object]) -> None:
    for name, default in defaults.items():
        flag = "--" + name
        if isinstance(default, bool):
            sub.add_argument(flag, action="store_const", const=True, default=None)
        elif isinstance(default, int):
            sub.add_argument(flag, type=int, default=None)
        elif isinstance(default, float):
            sub.add_argument(flag, type=float, default=None)
        else:
            sub.add_argument(flag, type=str, default=None)


def _parse_ratio(text: str) -> Tuple[int, int]:
    try:
        train_pct, test_pct = (int(part) for part in text.split("/"))
    except ValueError as exc:
        raise UsageError(f"--ratio must look like 80/20, got {text!r}") from exc
    return train_pct, test_pct


def _parse_ks(text: str) -> List[int]:
    return [int(part) for part in text.split(",")]


# ---------------------------------------------------------------- commands


def _cmd_synth(args, o) -> int:
    outputs = [str(o["out"]), str(o["qa"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    cfg = synth.SynthConfig(
        n_articles=int(o["articles"]),
        n_topics=int(o["topics"]),
        n_qa=int(o["qa-count"]),
        seed=int(o["seed"]),
    )
    records, entries = synth.generate(cfg)
    util.atomic_write_text(outputs[0], synth.corpus_jsonl(records))
    buffer = io.StringIO()
    benchmark.write_qa_entries(buffer, entries)
    util.atomic_write_text(outputs[1], buffer.getvalue())
    _log(f"wrote {len(records)} articles and {len(entries)} QA entries")
    _write_manifest("synth", o, [], outputs, time.time() - start)
    return EXIT_OK


def _cmd_ingest(args, o) -> int:
    outputs = [str(o["out"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store = _load_corpus(str(o["corpus"]), str(o["link-policy"]))
    buffer = io.StringIO()
    serialize_corpus(store, buffer)
    util.atomic_write_text(outputs[0], buffer.getvalue())
    _log(f"ingested {len(store.articles)} articles, {len(store.passages)} passages")
    _write_manifest("ingest", o, [str(o["corpus"])], outputs, time.time() - start)
    return EXIT_OK


def _cmd_vocab(args, o) -> int:
    outputs = [str(o["out"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store = _load_corpus(str(o["corpus"]))
    vocab = build_vocab(store, int(o["max-size"]), int(o["min-freq"]))
    buffer = io.StringIO()
    vocab.save(buffer)
    util.atomic_write_text(outputs[0], buffer.getvalue())
    _log(f"vocabulary of {len(vocab)} tokens")
    _write_manifest("vocab", o, [str(o["corpus"])], outputs, time.time() - start)
    return EXIT_OK


def _parse_tasks(o: Dict[str, object], accept: Sequence[str]):
    """`benchmark.parse_task_spec` of --tasks; a spec it rejects is a usage error."""
    try:
        return benchmark.parse_task_spec(str(o["tasks"]), accept)
    except ValueError as exc:
        raise UsageError(f"--tasks: {exc}") from exc


def _cmd_gen_pairs(args, o) -> int:
    mixture = _parse_tasks(o, accept=())
    outputs = [str(o["out"])] + ([str(o["stats"])] if o["stats"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, _ = _load_tokenized(o)
    seed = int(o["seed"])
    generated = list(
        pairs.sample_mixture(
            store,
            mixture,
            int(o["n"]),
            util.subrng(seed, "pairs"),
            int(o["query-max-len"]),
            int(o["doc-max-len"]),
        )
    )
    buffer = io.StringIO()
    pairs.write_pairs(buffer, generated)
    util.atomic_write_text(outputs[0], buffer.getvalue())
    if o["stats"]:
        util.dump_json(str(o["stats"]), pairs.pair_stats(generated))
    _log(f"generated {len(generated)} pairs")
    _write_manifest(
        "gen-pairs", o, [str(o["corpus"]), str(o["vocab"])], outputs, time.time() - start
    )
    return EXIT_OK


def _cmd_pretrain(args, o) -> int:
    _parse_tasks(o, accept=(benchmark.TASK_MLM,))
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"] + ([str(o["metrics"])] if o["metrics"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    enc_cfg = EncoderConfig(
        arch=str(o["arch"]),
        num_layers=int(o["layers"]),
        hidden_dim=int(o["hidden-dim"]),
        num_heads=int(o["heads"]),
        ff_dim=int(o["ff-dim"]),
        emb_dim=int(o["emb-dim"]),
        vocab_size=len(vocab),
        query_max_len=int(o["query-max-len"]),
        doc_max_len=int(o["doc-max-len"]),
        share_towers=bool(o["share-towers"]),
        dtype=str(o["dtype"]),
    )
    train_cfg = TrainRunConfig(
        batch_size=int(o["batch"]),
        total_steps=int(o["steps"]),
        seed=int(o["seed"]),
        correction=str(o["correction"]),
        lr_peak=float(o["lr"]),
        warmup_fraction=float(o["warmup"]),
    )
    task_spec = str(o["tasks"])
    with _metrics_file(o) as metrics_out:
        model = benchmark.pretrain_model(task_spec, enc_cfg, train_cfg, store, metrics_out)
    fingerprint = save_checkpoint(prefix, model, {"stage": "pretrain", "tasks": task_spec})
    _log(f"checkpoint {prefix} ({fingerprint[:12]})")
    _write_manifest(
        "pretrain", o, [str(o["corpus"]), str(o["vocab"])], outputs, time.time() - start
    )
    return EXIT_OK


def _cmd_finetune(args, o) -> int:
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"] + ([str(o["metrics"])] if o["metrics"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    model, _ = load_checkpoint(str(o["ckpt"]))
    cfg = model.config
    _, examples, candidates, _ = _build_benchmark(
        o, store, vocab, cfg.query_max_len, cfg.doc_max_len
    )
    seed = int(o["seed"])
    split = benchmark.make_split(examples, _parse_ratio(str(o["ratio"])), seed)
    train_cfg = TrainRunConfig(
        batch_size=int(o["batch"]),
        total_steps=int(o["steps"]),
        seed=seed,
        lr_peak=float(o["lr"]),
        warmup_fraction=float(o["warmup"]),
        eval_every=int(o["eval-every"]),
        patience=int(o["patience"]),
    )
    with _metrics_file(o) as metrics_out:
        best, history = benchmark.finetune_model(model, train_cfg, split, candidates, metrics_out)
    best_recall = max(h["val_recall"] for h in history if "val_recall" in h)
    fingerprint = save_checkpoint(
        prefix, best,
        {"stage": "finetune", "ratio": str(o["ratio"]), "val_recall_at_10": best_recall},
    )
    _log(f"checkpoint {prefix} ({fingerprint[:12]}), best val recall@10 {best_recall:.4f}")
    _write_manifest(
        "finetune", o, [str(o["corpus"]), str(o["vocab"]), str(o["qa"])],
        outputs, time.time() - start,
    )
    return EXIT_OK


def _cmd_index(args, o) -> int:
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    model, _ = load_checkpoint(str(o["ckpt"]))
    cfg = model.config
    _, _, candidates, _ = _build_benchmark(o, store, vocab, cfg.query_max_len, cfg.doc_max_len)
    index = retrieval.build_dense_index(
        model,
        [c.id for c in candidates],
        [c.tower_tokens for c in candidates],
        fingerprint=util.tensor_fingerprint(str(o["ckpt"])),
    )
    retrieval.save_dense_index(prefix, index)
    _log(f"indexed {len(candidates)} candidates")
    _write_manifest(
        "index", o, [str(o["corpus"]), str(o["vocab"]), str(o["qa"])],
        outputs, time.time() - start,
    )
    return EXIT_OK


def _eval_common(o: Dict[str, object], dense: bool) -> int:
    part_name = str(o["split-part"])
    if part_name not in ("train", "validation", "test"):
        raise UsageError("--split-part must be train/validation/test")
    outputs = [str(o["out"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    if dense:
        system, _ = load_checkpoint(str(o["ckpt"]))
        query_max_len, doc_max_len = system.config.query_max_len, system.config.doc_max_len
        label = f"dense:{system.config.arch}"
    else:
        system = retrieval.BM25Params(float(o["bm25-k1"]), float(o["bm25-b"]))
        query_max_len, doc_max_len = int(o["query-max-len"]), int(o["doc-max-len"])
        label = "bm25"
    entries, examples, candidates, dropped = _build_benchmark(
        o, store, vocab, query_max_len, doc_max_len
    )
    seed = int(o["seed"])
    split = benchmark.make_split(examples, _parse_ratio(str(o["ratio"])), seed)
    pool = benchmark.with_distractors(
        store, entries, candidates, int(o["augment"]), seed, vocab, doc_max_len
    )
    ks = _parse_ks(str(o["k"]))
    report = benchmark.evaluate_system(system, pool, getattr(split, part_name), ks)
    payload = {
        "system": label,
        "ratio": str(o["ratio"]),
        "part": part_name,
        "n_candidates": report.n_candidates,
        "n_queries": report.n_queries,
        "n_dropped_entries": dropped,
        "recalls": {str(k): report.recalls[k] for k in ks},
    }
    util.dump_json(outputs[0], payload)
    _log(f"{label} recalls: " + ", ".join(f"R@{k}={report.recalls[k]:.4f}" for k in ks))
    inp = [str(o["corpus"]), str(o["vocab"]), str(o["qa"])]
    if dense:
        inp += [str(o["ckpt"]) + ".json", str(o["ckpt"]) + ".bin"]
    _write_manifest("eval" if dense else "bm25-eval", o, inp, outputs, time.time() - start)
    return EXIT_OK


def _cmd_eval(args, o) -> int:
    return _eval_common(o, dense=True)


def _cmd_bm25_eval(args, o) -> int:
    return _eval_common(o, dense=False)


def render_report(report: dict) -> str:
    """Plain-text table of mean recalls: one row per (ratio, encoder, task)."""
    ks = report["config"]["ks"] if "config" in report else [1, 5, 10, 50, 100]
    header = f"{'ratio':>8}  {'encoder':<12} {'pretraining':<14} " + " ".join(
        f"{'R@' + str(k):>8}" for k in ks
    )
    blocks = []
    for augmented in (False, True):
        rows = [m for m in report.get("means", []) if m.get("augmented") == augmented]
        if not rows:
            continue
        lines = []
        if augmented:
            lines.append("")
            lines.append(f"with {report['config'].get('augment_limit', 0)} distractor candidates:")
        lines.append(header)
        lines.append("-" * len(header))
        for row in sorted(rows, key=lambda r: (r["ratio"], r["encoder"], r["task"])):
            cells = " ".join(f"{100.0 * row['recalls'][str(k)]:>8.2f}" for k in ks)
            lines.append(f"{row['ratio']:>8}  {row['encoder']:<12} {row['task']:<14} {cells}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def _cmd_experiment(args, o) -> int:
    out_dir = str(o["out"])
    report_json = os.path.join(out_dir, "report.json")
    report_txt = os.path.join(out_dir, "report.txt")
    grid = {k: v for k, v in args.config_values.items() if k in _EXPERIMENT_FIELDS}
    grid.setdefault("seeds", [int(o["seed"])])
    try:
        exp_cfg = benchmark.ExperimentConfig(**grid)
    except ValueError as exc:
        raise UsageError(f"--config {args.config}: {exc}") from exc
    _check_outputs([report_json, report_txt], bool(o["force"]))
    start = time.time()
    store = _load_corpus(str(o["corpus"]))
    entries = benchmark.read_qa_entries(_read_lines(str(o["qa"])))
    report = benchmark.run_experiment(store, entries, exp_cfg, log=_log)
    os.makedirs(out_dir, exist_ok=True)
    util.dump_json(report_json, report)
    util.atomic_write_text(report_txt, render_report(report))
    print(render_report(report), end="")
    _write_manifest(
        "experiment", o,
        [str(o["corpus"]), str(o["qa"])] + ([args.config] if args.config else []),
        [report_json, report_txt], time.time() - start,
    )
    return EXIT_OK


def _cmd_report(args, o) -> int:
    report = util.load_json(str(o["in"]))
    text = render_report(report)
    if o["out"]:
        _check_outputs([str(o["out"])], bool(o["force"]))
        util.atomic_write_text(str(o["out"]), text)
    print(text, end="")
    return EXIT_OK


_ENCODER_OPTIONS = {
    "arch": "transformer",
    "layers": 2,
    "hidden-dim": 64,
    "heads": 4,
    "ff-dim": 256,
    "emb-dim": 32,
    "query-max-len": 16,
    "doc-max-len": 48,
    "share-towers": False,
    "dtype": "float32",
}

_TRAIN_OPTIONS = {"steps": 800, "batch": 32, "lr": 1e-3, "warmup": 0.1}

_SPLIT_EVAL_OPTIONS = {
    "ratio": "80/20",
    "k": "1,5,10,50,100",
    "split-part": "test",
    "augment": 0,
    "seed": 7,
}

_EXPERIMENT_FIELDS = set(benchmark.ExperimentConfig.__dataclass_fields__)

_INPUTS = {"corpus": None, "vocab": None}
_BENCHMARK_INPUTS = {**_INPUTS, "qa": None}

# Every command's options as name -> default; None marks a required path.
# --force and --config are common to all.
_COMMANDS = {
    "synth": (
        _cmd_synth,
        {"out": None, "qa": None, "articles": 500, "topics": 100, "qa-count": 1000, "seed": 13},
    ),
    "ingest": (_cmd_ingest, {"corpus": None, "out": None, "link-policy": "drop"}),
    "vocab": (_cmd_vocab, {"corpus": None, "out": None, "max-size": 8192, "min-freq": 1}),
    "gen-pairs": (
        _cmd_gen_pairs,
        {
            **_INPUTS,
            "out": None,
            "stats": "",
            "tasks": "ict+bfs+wlp",
            "n": 1000,
            "query-max-len": 16,
            "doc-max-len": 48,
            "seed": 7,
        },
    ),
    "pretrain": (
        _cmd_pretrain,
        {
            **_INPUTS,
            "out": None,
            "metrics": "",
            "tasks": "ict+bfs+wlp",
            "seed": 7,
            **_ENCODER_OPTIONS,
            **_TRAIN_OPTIONS,
            "correction": "none",
        },
    ),
    "finetune": (
        _cmd_finetune,
        {
            **_BENCHMARK_INPUTS,
            "ckpt": None,
            "out": None,
            "metrics": "",
            "ratio": "80/20",
            "seed": 7,
            **_TRAIN_OPTIONS,
            "steps": 300,
            "lr": 5e-4,
            "eval-every": 50,
            "patience": 5,
        },
    ),
    "index": (_cmd_index, {**_BENCHMARK_INPUTS, "ckpt": None, "out": None}),
    "eval": (_cmd_eval, {**_BENCHMARK_INPUTS, "out": None, "ckpt": None, **_SPLIT_EVAL_OPTIONS}),
    "bm25-eval": (
        _cmd_bm25_eval,
        {
            **_BENCHMARK_INPUTS,
            "out": None,
            **_SPLIT_EVAL_OPTIONS,
            "bm25-k1": 1.2,
            "bm25-b": 0.75,
            "query-max-len": 16,
            "doc-max-len": 48,
        },
    ),
    "experiment": (_cmd_experiment, {"corpus": None, "qa": None, "out": None, "seed": 7}),
    "report": (_cmd_report, {"in": None, "out": ""}),
}


def _options(command: str) -> Dict[str, object]:
    return {**_COMMANDS[command][1], "force": False}


def _build_parser() -> _Parser:
    parser = _Parser(prog="twotower", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        _add_options(sub, _options(name))
        sub.add_argument("--config", type=str, default=None)
    return parser


def cmd_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        options = _options(args.command)
        extra = _EXPERIMENT_FIELDS if args.command == "experiment" else ()
        args.config_values = _load_config(args.config, [*options, *extra])
        resolved = resolve_options(args, options, args.config_values)
        for name, default in options.items():
            if default is None and resolved[name] in (None, ""):
                raise UsageError(f"missing required --{name}")
        handler, _ = _COMMANDS[args.command]
        return handler(args, resolved)
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv: Optional[Sequence[str]] = None) -> int:
    return cmd_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
