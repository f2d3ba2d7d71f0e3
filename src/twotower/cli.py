"""Command-line surface: synth, vocab, pretrain, finetune, eval, bm25-eval,
experiment.

Each command declares its options once, in `_COMMANDS`, as name -> default; a
default of None marks a required path. Option values resolve as CLI flag >
--config JSON > default, and each must have the type of its default. The
--config file is read once, and a key in it that the command does not declare
is a usage error (`experiment` also takes the `ExperimentConfig` fields
there, each of the type of its default). `pretrain`
writes the model, one `TwoTower` value, as a checkpoint; `finetune` and `eval`
read one and take every encoder setting from it, the max lengths included;
the doc tower's length is read only where candidates are fed to it.
`bm25-eval` cuts questions to --query-max-len and matches whole candidates,
so it takes no doc length. Every option is checked before any input is read:
a bad value is a usage error. `pretrain`, `finetune`, `eval` and `bm25-eval`
run the stage functions of `benchmark` (`pretrain_model`, `finetune_model`,
`with_distractors`, `evaluate_system`) that `experiment` runs for each cell of
its grid. Every run appends one manifest record (resolved config, input/output
hashes, timing) to manifests.jsonl beside its primary output.
Progress goes to stderr; machine-readable results go to files or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import benchmark, retrieval, synth, util
from .corpus import NUM_SPECIALS, Vocabulary, build_vocab, parse_corpus, tokenize_corpus
from .encoders import EncoderConfig, load_checkpoint, save_checkpoint
from .training import TrainRunConfig

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


def _typed(name: str, value, default):
    """A --config JSON value checked against the type of the option's or
    `ExperimentConfig` field's default (a string for a required path): the
    value must already have the type, an integer passing for a float, and each
    element of a list the type of the default's first element. Anything else
    is a usage error."""
    kind = str if default is None else type(default)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        if kind is list and default:
            return [_typed(name, item, default[0]) for item in value]
        return value
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    raise UsageError(f"--config key {name!r}: expected {kind.__name__}, got {value!r}")


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
    """Merge CLI flags over the --config file over defaults, each --config
    value checked against the type of its default."""
    resolved = {}
    for name, default in defaults.items():
        cli_value = getattr(args, name.replace("-", "_"), None)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in file_cfg:
            resolved[name] = _typed(name, file_cfg[name], default)
        else:
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


def _load_corpus(path: str):
    return parse_corpus(_read_lines(path))


def _load_tokenized(o: Dict[str, object]):
    """The --corpus store tokenized with the --vocab vocabulary."""
    store = _load_corpus(str(o["corpus"]))
    vocab = Vocabulary.load(_read_lines(str(o["vocab"])))
    tokenize_corpus(store, vocab)
    return store, vocab


def _build_benchmark(o: Dict[str, object], store, vocab, query_max_len: int):
    """(QA entries, examples, candidates, dropped count) of the --qa file."""
    entries = benchmark.read_qa_entries(_read_lines(str(o["qa"])))
    examples, candidates, dropped = benchmark.build_reqa(entries, store, vocab, query_max_len)
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


def _parse_ratio(o: Dict[str, object]) -> Tuple[int, int]:
    """--ratio, like 80/20, through the check `ExperimentConfig` applies."""
    text = str(o["ratio"])
    try:
        return benchmark.check_ratio([int(part) for part in text.split("/")])
    except ValueError as exc:
        raise UsageError(f"--ratio {text!r}: {exc}") from exc


def _parse_ks(o: Dict[str, object]) -> List[int]:
    """--k, like 1,5,10, through the check `ExperimentConfig` applies."""
    text = str(o["k"])
    try:
        return benchmark.check_ks([int(part) for part in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"--k {text!r}: {exc}") from exc


def _ckpt_files(o: Dict[str, object]) -> List[str]:
    return [str(o["ckpt"]) + ".json", str(o["ckpt"]) + ".bin"]


# ---------------------------------------------------------------- commands


def _cmd_synth(args, o) -> int:
    try:
        cfg = synth.SynthConfig(
            n_articles=int(o["articles"]),
            n_topics=int(o["topics"]),
            n_qa=int(o["qa-count"]),
            seed=int(o["seed"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outputs = [str(o["out"]), str(o["qa"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    records, entries = synth.generate(cfg)
    util.atomic_write_text(outputs[0], synth.corpus_jsonl(records))
    buffer = io.StringIO()
    benchmark.write_qa_entries(buffer, entries)
    util.atomic_write_text(outputs[1], buffer.getvalue())
    _log(f"wrote {len(records)} articles and {len(entries)} QA entries")
    _write_manifest("synth", o, [], outputs, time.time() - start)
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


def _parse_tasks(o: Dict[str, object]):
    """`benchmark.parse_task_spec` of --tasks, which takes mlm but not none; a
    spec it rejects is a usage error."""
    try:
        return benchmark.parse_task_spec(str(o["tasks"]), (benchmark.TASK_MLM,))
    except ValueError as exc:
        raise UsageError(f"--tasks: {exc}") from exc


def _train_config(o: Dict[str, object], **fields) -> TrainRunConfig:
    """The `TrainRunConfig` of --batch, --steps, --seed, --lr, --warmup and the
    given fields; a value it rejects is a usage error."""
    try:
        return TrainRunConfig(
            batch_size=int(o["batch"]),
            total_steps=int(o["steps"]),
            seed=int(o["seed"]),
            lr_peak=float(o["lr"]),
            warmup_fraction=float(o["warmup"]),
            **fields,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_pretrain(args, o) -> int:
    _parse_tasks(o)
    # The vocabulary size is not known yet, so the smallest valid one stands in.
    try:
        enc_cfg = EncoderConfig(
            arch=str(o["arch"]),
            num_layers=int(o["layers"]),
            hidden_dim=int(o["hidden-dim"]),
            num_heads=int(o["heads"]),
            ff_dim=int(o["ff-dim"]),
            emb_dim=int(o["emb-dim"]),
            vocab_size=NUM_SPECIALS,
            query_max_len=int(o["query-max-len"]),
            doc_max_len=int(o["doc-max-len"]),
            share_towers=bool(o["share-towers"]),
            dtype=str(o["dtype"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    train_cfg = _train_config(o)
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"] + ([str(o["metrics"])] if o["metrics"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    enc_cfg = dataclasses.replace(enc_cfg, vocab_size=len(vocab))
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
    ratio = _parse_ratio(o)
    train_cfg = _train_config(o, eval_every=int(o["eval-every"]), patience=int(o["patience"]))
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"] + ([str(o["metrics"])] if o["metrics"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    model, _ = load_checkpoint(str(o["ckpt"]))
    _, examples, candidates, _ = _build_benchmark(o, store, vocab, model.config.query_max_len)
    split = benchmark.make_split(examples, ratio, train_cfg.seed)
    with _metrics_file(o) as metrics_out:
        best, history = benchmark.finetune_model(model, train_cfg, split, candidates, metrics_out)
    best_recall = max(h["val_recall"] for h in history if "val_recall" in h)
    fingerprint = save_checkpoint(
        prefix, best,
        {"stage": "finetune", "ratio": str(o["ratio"]), "val_recall_at_10": best_recall},
    )
    _log(f"checkpoint {prefix} ({fingerprint[:12]}), best val recall@10 {best_recall:.4f}")
    _write_manifest(
        "finetune", o, [str(o["corpus"]), str(o["vocab"]), str(o["qa"]), *_ckpt_files(o)],
        outputs, time.time() - start,
    )
    return EXIT_OK


def _eval_common(o: Dict[str, object], dense: bool) -> int:
    part_name = str(o["split-part"])
    if part_name not in ("train", "validation", "test"):
        raise UsageError("--split-part must be train/validation/test")
    ratio, ks = _parse_ratio(o), _parse_ks(o)
    outputs = [str(o["out"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    if dense:
        system, _ = load_checkpoint(str(o["ckpt"]))
        query_max_len = system.config.query_max_len
        label = f"dense:{system.config.arch}"
    else:
        system = retrieval.BM25Params(float(o["bm25-k1"]), float(o["bm25-b"]))
        query_max_len = int(o["query-max-len"])
        label = "bm25"
    entries, examples, candidates, dropped = _build_benchmark(o, store, vocab, query_max_len)
    seed = int(o["seed"])
    split = benchmark.make_split(examples, ratio, seed)
    pool = benchmark.with_distractors(store, entries, candidates, int(o["augment"]), seed, vocab)
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
        inp += _ckpt_files(o)
    _write_manifest("eval" if dense else "bm25-eval", o, inp, outputs, time.time() - start)
    return EXIT_OK


def _cmd_eval(args, o) -> int:
    return _eval_common(o, dense=True)


def _cmd_bm25_eval(args, o) -> int:
    return _eval_common(o, dense=False)


def render_report(report: dict) -> str:
    """Plain-text table of the mean recalls of a `run_experiment` report: one
    row per (ratio, encoder, task)."""
    ks = report["config"]["ks"]
    header = f"{'ratio':>8}  {'encoder':<12} {'pretraining':<14} " + " ".join(
        f"{'R@' + str(k):>8}" for k in ks
    )
    blocks = []
    for augmented in (False, True):
        rows = [m for m in report["means"] if m["augmented"] == augmented]
        if not rows:
            continue
        lines = []
        if augmented:
            lines.append("")
            lines.append(f"with {report['config']['augment_limit']} distractor candidates:")
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
    grid = {
        k: _typed(k, v, _EXPERIMENT_DEFAULTS[k])
        for k, v in args.config_values.items()
        if k in _EXPERIMENT_DEFAULTS
    }
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
    text = render_report(report)
    util.atomic_write_text(report_txt, text)
    print(text, end="")
    _write_manifest(
        "experiment", o,
        [str(o["corpus"]), str(o["qa"])] + ([args.config] if args.config else []),
        [report_json, report_txt], time.time() - start,
    )
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

# The `ExperimentConfig` fields an `experiment --config` file may set, with
# the defaults their values are type-checked against.
_EXPERIMENT_DEFAULTS = dataclasses.asdict(benchmark.ExperimentConfig())

_INPUTS = {"corpus": None, "vocab": None}
_BENCHMARK_INPUTS = {**_INPUTS, "qa": None}

# Every command's options as name -> default; None marks a required path.
# --force and --config are common to all.
_COMMANDS = {
    "synth": (
        _cmd_synth,
        {"out": None, "qa": None, "articles": 500, "topics": 100, "qa-count": 1000, "seed": 13},
    ),
    "vocab": (_cmd_vocab, {"corpus": None, "out": None, "max-size": 8192, "min-freq": 1}),
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
        },
    ),
    "experiment": (_cmd_experiment, {"corpus": None, "qa": None, "out": None, "seed": 7}),
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
        extra = _EXPERIMENT_DEFAULTS if args.command == "experiment" else ()
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
