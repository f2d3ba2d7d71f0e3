"""Command-line surface: synth, vocab, pretrain, finetune, eval, bm25-eval,
experiment.

Each command declares each of its options once: an option that sets an
`ExperimentConfig` field in `_FIELDS`, as flag -> field, any other in
`_COMMANDS`, as name -> default; a default of None marks a required path. An
option's value is its flag's, or else its default, of the default's type.
`experiment --config` names the grid file: a JSON object of `ExperimentConfig`
fields, each of the type of the field's default; a key that is not a field is
a usage error. `pretrain` writes the model, one `TwoTower` value, as a
checkpoint; `finetune` and `eval` read one and take every encoder setting from
it, the max lengths included; the doc tower's length is read only where
candidates are fed to it. `bm25-eval` cuts questions to --query-max-len and
matches whole candidates, so it takes no doc length. `pretrain`, `finetune`,
`eval` and `bm25-eval` each recompute one cell of the default grid with the
stage functions of `benchmark` (`pretrain_model`, `finetune_model`,
`with_distractors`, `evaluate_system`) that `experiment` runs for each cell.
`eval` and `bm25-eval` share one handler, dense when the command takes --ckpt,
and draw their `--augment` distractors from the tokenized corpus with
`--seed`, as `experiment` draws its `augment_limit` ones with its first seed.
Stage defaults and checks come from the default grid: a `_FIELDS` option
defaults to its field's value, and a stage command reads its vocabulary,
encoder and training settings from a copy of the grid with its `_FIELDS`
flags set, through the checks `experiment` makes. `synth`'s defaults are
`SynthConfig`'s. Every option is checked before any input is read: a bad value
is a usage error.
Every run appends one manifest record (resolved config, input/output
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
from typing import Dict, List, Optional, Sequence, Tuple

from . import benchmark, synth, util
from .corpus import Vocabulary, build_vocab, parse_corpus, tokenize_corpus
from .encoders import load_checkpoint, save_checkpoint

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
    """A grid value checked against the type of the `ExperimentConfig` field's
    default: the value must already have the type, an integer passing for a
    float, and each element of a list the type of the default's first element.
    Anything else is a usage error."""
    kind = type(default)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        if kind is list and default:
            return [_typed(name, item, default[0]) for item in value]
        return value
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    raise UsageError(f"--config key {name!r}: expected {kind.__name__}, got {value!r}")


def _load_grid(path: str) -> benchmark.ExperimentConfig:
    """The `ExperimentConfig` of the --config grid file, the default grid
    without one. A key that is not a field, a value not of its default's type
    and a grid `ExperimentConfig` rejects are usage errors."""
    grid = util.load_json(path) if path else {}
    if not isinstance(grid, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    unknown = sorted(set(grid) - set(_EXPERIMENT_DEFAULTS))
    if unknown:
        raise UsageError(f"--config {path}: keys that are not grid fields: {unknown}")
    try:
        return benchmark.ExperimentConfig(
            **{k: _typed(k, v, _EXPERIMENT_DEFAULTS[k]) for k, v in grid.items()}
        )
    except ValueError as exc:
        raise UsageError(f"--config {path}: {exc}") from exc


def _cell(command: str, o: Dict[str, object], **extra) -> benchmark.ExperimentConfig:
    """The default grid with the fields the command's `_FIELDS` flags set,
    and the `extra` fields: the one cell the command recomputes. A value the
    grid rejects is a usage error."""
    fields = {field: o[flag] for flag, field in _FIELDS[command].items()}
    try:
        return dataclasses.replace(_GRID, **fields, **extra)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
    **extra: object,
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
        **extra,
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
        if isinstance(default, bool):
            sub.add_argument("--" + name, dest=name, action="store_true")
        else:
            kind = str if default is None else type(default)
            sub.add_argument("--" + name, dest=name, type=kind, default=default)


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


def _cmd_synth(o) -> int:
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


def _cmd_vocab(o) -> int:
    cell = _cell("vocab", o)
    outputs = [str(o["out"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store = _load_corpus(str(o["corpus"]))
    vocab = build_vocab(store, cell.vocab_max_size)
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


def _cmd_pretrain(o) -> int:
    _parse_tasks(o)
    arch, task_spec = str(o["arch"]), str(o["tasks"])
    if not benchmark._has_cell(arch, task_spec):
        raise UsageError(
            f"--tasks {task_spec}: masked-token pre-training requires the transformer arch"
        )
    cell = _cell("pretrain", o, encoders=[arch])
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"] + ([str(o["metrics"])] if o["metrics"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    enc_cfg = dataclasses.replace(
        cell.encoder_config(arch, len(vocab)), share_towers=bool(o["share-towers"])
    )
    with _metrics_file(o) as metrics_out:
        model = benchmark.pretrain_model(
            task_spec, enc_cfg, cell.pretrain_config(int(o["seed"])), store, metrics_out
        )
    fingerprint = save_checkpoint(prefix, model, {"stage": "pretrain", "tasks": task_spec})
    _log(f"checkpoint {prefix} ({fingerprint[:12]})")
    _write_manifest(
        "pretrain", o, [str(o["corpus"]), str(o["vocab"])], outputs, time.time() - start
    )
    return EXIT_OK


def _cmd_finetune(o) -> int:
    ratio = _parse_ratio(o)
    train_cfg = _cell("finetune", o).finetune_config(int(o["seed"]))
    prefix = str(o["out"])
    outputs = [prefix + ".json", prefix + ".bin"] + ([str(o["metrics"])] if o["metrics"] else [])
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    model, _ = load_checkpoint(str(o["ckpt"]))
    _, examples, candidates, _ = _build_benchmark(o, store, vocab, model.config.query_max_len)
    split = benchmark.make_split(examples, ratio, train_cfg.seed)
    with _metrics_file(o) as metrics_out:
        best, history, _ = benchmark.finetune_model(model, train_cfg, split, candidates, metrics_out)
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


def _cmd_eval(o) -> int:
    """Write the recall@k of one split part's questions over the candidate
    pool, plus --augment distractors, to --out. With --ckpt, the pool and
    the questions are encoded on threads of this process by experiment's
    rule (threads for encodes, forks for grid units): one per usable CPU with
    OPENBLAS_NUM_THREADS=1, one thread in all with the BLAS thread variables
    unset or under `taskset -c 0`; the embeddings are the same either way,
    and a non-finite one is an error that writes nothing."""
    part_name = str(o["split-part"])
    if part_name not in ("train", "validation", "test"):
        raise UsageError("--split-part must be train/validation/test")
    ratio, ks = _parse_ratio(o), _parse_ks(o)
    dense = "ckpt" in o
    command = "eval" if dense else "bm25-eval"
    cell = _cell(command, o)
    outputs = [str(o["out"])]
    _check_outputs(outputs, bool(o["force"]))
    start = time.time()
    store, vocab = _load_tokenized(o)
    model, query_max_len, label = None, cell.query_max_len, "bm25"
    if dense:
        model, _ = load_checkpoint(str(o["ckpt"]))
        query_max_len = model.config.query_max_len
        label = f"dense:{model.config.arch}"
    entries, examples, candidates, dropped = _build_benchmark(o, store, vocab, query_max_len)
    seed = int(o["seed"])
    split = benchmark.make_split(examples, ratio, seed)
    pool = benchmark.with_distractors(store, entries, candidates, cell.augment_limit, seed)
    report = benchmark.evaluate_system(model, pool, getattr(split, part_name), ks)
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
    inp = [str(o["corpus"]), str(o["vocab"]), str(o["qa"])] + (_ckpt_files(o) if dense else [])
    _write_manifest(command, o, inp, outputs, time.time() - start)
    return EXIT_OK


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


def _cmd_experiment(o) -> int:
    """Run the grid of --config (the default grid without it) and write
    report.json and report.txt to --out. Threads for encodes, forks for
    grid units: the grid's (seed, encoder, task) units run in worker
    processes, one per usable CPU over the BLAS threads of a process, as
    many as eval's encode threads: one per CPU with OPENBLAS_NUM_THREADS=1,
    and one process in all with the BLAS thread variables unset or under
    `taskset -c 0`. A worker encodes its unit's pools serially. Each worker
    adds about one unit's working set to the command's memory.
    The manifest record adds the worker count and each unit's timings and
    minor page faults."""
    out_dir = str(o["out"])
    report_json = os.path.join(out_dir, "report.json")
    report_txt = os.path.join(out_dir, "report.txt")
    exp_cfg = _load_grid(str(o["config"]))
    _check_outputs([report_json, report_txt], bool(o["force"]))
    start = time.time()
    store = _load_corpus(str(o["corpus"]))
    entries = benchmark.read_qa_entries(_read_lines(str(o["qa"])))
    stats: Dict[str, object] = {}
    report = benchmark.run_experiment(store, entries, exp_cfg, log=_log, stats=stats)
    os.makedirs(out_dir, exist_ok=True)
    util.dump_json(report_json, report)
    text = render_report(report)
    util.atomic_write_text(report_txt, text)
    print(text, end="")
    _write_manifest(
        "experiment", o,
        [str(o["corpus"]), str(o["qa"])] + ([str(o["config"])] if o["config"] else []),
        [report_json, report_txt], time.time() - start, **stats,
    )
    return EXIT_OK


# The default grid: each stage command recomputes one of its cells.
_GRID = benchmark.ExperimentConfig()
_SYNTH = synth.SynthConfig()

# For each stage command, its options that set a grid field: flag -> field.
# Such an option is declared here alone: it defaults to the field's value in
# `_GRID`, and `_cell` sets the field from its flag.
_TRAIN_FIELDS = {"batch": "batch_size"}
_QUERY_LEN_FIELD = {"query-max-len": "query_max_len"}
_AUGMENT_FIELD = {"augment": "augment_limit"}
_FIELDS = {
    "vocab": {"max-size": "vocab_max_size"},
    "pretrain": {
        "layers": "num_layers", "hidden-dim": "hidden_dim", "heads": "num_heads",
        "ff-dim": "ff_dim", "emb-dim": "emb_dim", **_QUERY_LEN_FIELD,
        "doc-max-len": "doc_max_len", "dtype": "dtype",
        "steps": "pretrain_steps", "lr": "pretrain_lr", **_TRAIN_FIELDS,
    },
    "finetune": {
        "steps": "finetune_steps", "lr": "finetune_lr", **_TRAIN_FIELDS,
        "eval-every": "eval_every", "patience": "patience",
    },
    "eval": _AUGMENT_FIELD,
    "bm25-eval": {**_AUGMENT_FIELD, **_QUERY_LEN_FIELD},
}

_SPLIT_EVAL_OPTIONS = {
    "ratio": "/".join(map(str, _GRID.ratios[0])),
    "k": ",".join(map(str, _GRID.ks)),
    "split-part": "test",
    "seed": _GRID.seeds[0],
}

# The `ExperimentConfig` fields an `experiment --config` grid may set, with
# the defaults their values are type-checked against.
_EXPERIMENT_DEFAULTS = dataclasses.asdict(_GRID)

_INPUTS = {"corpus": None, "vocab": None}
_BENCHMARK_INPUTS = {**_INPUTS, "qa": None}

# Every command's options that set no grid field, as name -> default; None
# marks a required path. --force is common to all.
_COMMANDS = {
    "synth": (
        _cmd_synth,
        {"out": None, "qa": None, "articles": _SYNTH.n_articles, "topics": _SYNTH.n_topics,
         "qa-count": _SYNTH.n_qa, "seed": _SYNTH.seed},
    ),
    "vocab": (_cmd_vocab, {"corpus": None, "out": None}),
    "pretrain": (
        _cmd_pretrain,
        {
            **_INPUTS,
            "out": None,
            "metrics": "",
            "tasks": _GRID.tasks[-1],  # the paper's pair mixture
            "seed": _GRID.seeds[0],
            "arch": _GRID.encoders[0],
            "share-towers": False,
        },
    ),
    "finetune": (
        _cmd_finetune,
        {
            **_BENCHMARK_INPUTS,
            "ckpt": None,
            "out": None,
            "metrics": "",
            "ratio": _SPLIT_EVAL_OPTIONS["ratio"],
            "seed": _GRID.seeds[0],
        },
    ),
    "eval": (_cmd_eval, {**_BENCHMARK_INPUTS, "out": None, "ckpt": None, **_SPLIT_EVAL_OPTIONS}),
    "bm25-eval": (_cmd_eval, {**_BENCHMARK_INPUTS, "out": None, **_SPLIT_EVAL_OPTIONS}),
    "experiment": (_cmd_experiment, {"corpus": None, "qa": None, "out": None, "config": ""}),
}


def _options(command: str) -> Dict[str, object]:
    """The command's options as name -> default, its `_FIELDS` ones included."""
    fields = {flag: getattr(_GRID, field) for flag, field in _FIELDS.get(command, {}).items()}
    return {**_COMMANDS[command][1], **fields, "force": False}


def _build_parser() -> _Parser:
    parser = _Parser(prog="twotower", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, description=_COMMANDS[name][0].__doc__)
        _add_options(sub, _options(name))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        options = _options(args.command)
        resolved = {name: getattr(args, name) for name in options}
        for name, default in options.items():
            if default is None and resolved[name] in (None, ""):
                raise UsageError(f"missing required --{name}")
        handler, _ = _COMMANDS[args.command]
        return handler(resolved)
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
