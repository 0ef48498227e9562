"""Command-line entry point: indicators, train, eval, rules, stats.

A flat key = value config file can hold any option; command-line flags
override config keys. Each option is one entry of OPTIONS, and a flag and a
config key are the same string parsed by `_coerce`, so they give the same
value and the same error. Every run writes a manifest (settings echo plus the
conventions in effect) into the output directory. Report files themselves
carry no timestamps, so identical config + seed reproduces them byte for
byte. Exit codes: 0 success, 1 error, 2 saturation cost budget exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from . import indicators as ind
from .kg import load_dataset, read_text
from .model import (
    EPSILON_MODES,
    NORMALIZE_MODES,
    extract_rules,
    load_checkpoint,
    rules_table,
    rules_tsv,
    save_checkpoint,
)
from .training import TIE_RULE, TrainConfig, TrainingDivergedError, evaluate, train

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


class Option(NamedTuple):
    default: object
    kind: object  # int, float, bool, str, or the tuple of allowed values
    commands: tuple[str, ...]  # the commands that take it as a flag
    flag: str | None = None  # when it is not --key-name
    minimum: float | None = None  # an int must be at least this, a float above it


EVERY = ("stats", "indicators", "train", "eval", "rules")
TRAIN = TrainConfig()  # the defaults of the train-only options

OPTIONS = {
    "dataset_dir": Option(None, str, EVERY),
    "out": Option(None, str, EVERY),
    "seed": Option(0, int, ("indicators", "train"), minimum=0),
    "overwrite": Option(False, bool, EVERY),
    "graph_source": Option("train,valid,test", str, EVERY),
    "max_rule_len": Option(2, int, ("indicators", "train"), minimum=1),
    "top_n": Option(5, int, ("indicators", "rules"), minimum=1),
    "lambda_max": Option(7, int, ("indicators",), minimum=1),
    "direct_edge": Option("exclude", ("exclude", "include"), ("indicators",)),
    "sample": Option(None, int, ("indicators",), minimum=1),
    "budget": Option(ind.DEFAULT_COST_BUDGET, float, ("indicators",), minimum=0.0),
    "predicates": Option(None, str, ("indicators",)),
    "rank": Option(TRAIN.rank, int, ("train",), minimum=1),
    "embed_dim": Option(TRAIN.embed_dim, int, ("train",), minimum=1),
    "hidden_dim": Option(TRAIN.hidden_dim, int, ("train",), minimum=1),
    "epochs": Option(TRAIN.max_epochs, int, ("train",), minimum=1),
    "batch_size": Option(TRAIN.batch_size, int, ("train",), minimum=1),
    "learning_rate": Option(TRAIN.learning_rate, float, ("train",), "--lr", minimum=0.0),
    "patience": Option(TRAIN.patience, int, ("train",), minimum=1),
    # the model's modes, with None spelled none and listed last
    "normalize": Option(TRAIN.normalize, tuple(sorted(
        (mode or "none" for mode in NORMALIZE_MODES), key="none".__eq__)), ("train",)),
    "epsilon_mode": Option(TRAIN.epsilon_mode, EPSILON_MODES, ("train",)),
    "checkpoint": Option(None, str, ("eval", "rules")),
    "ks": Option("1,3,10", str, ("eval",)),
    "query": Option(None, str, ("rules",)),
}

_KIND_NAMES = {int: "an integer", float: "a number"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are ordinary errors (exit 1); exit 2 is reserved
        # for the saturation cost budget
        raise CliError(message)


def _parse_config_file(path):
    settings = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown option {key!r}")
        settings[key] = value
    return settings


def _coerce(key, value):
    """A flag's or config key's string as the option's value, or a CliError naming key."""
    option, word = OPTIONS[key], value.lower()
    choices = option.kind if isinstance(option.kind, tuple) else ()
    # only options that can be unset take none; `budget = inf` lifts the guard
    if word in ("none", "") and (option.default is None or "none" in choices):
        return None
    if choices:
        if value not in choices:
            raise CliError(f"{key} must be {'/'.join(choices)}, not {value!r}")
        return value
    if option.kind is bool:
        if word not in _BOOL_WORDS:
            raise CliError(f"{key} must be true or false, not {value!r}")
        return _BOOL_WORDS[word]
    try:
        number = option.kind(value)
    except ValueError:
        raise CliError(f"{key} must be {_KIND_NAMES[option.kind]}, not {value!r}") from None
    low = option.minimum
    # nan compares false, so the check refuses it
    if low is not None and not (low <= number if option.kind is int else low < number):
        bound = "at least" if option.kind is int else "above"
        raise CliError(f"{key} must be {bound} {low:g}, not {number}")
    return number


def _resolve(argv):
    """The command and its settings: defaults, then the config file, then flags."""
    args = _build_parser().parse_args(argv)
    given = _parse_config_file(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in OPTIONS and v is not None)
    settings = {key: option.default for key, option in OPTIONS.items()}
    settings.update((key, _coerce(key, value)) for key, value in given.items())
    return args.command, settings


def _load(settings):
    dataset_dir = settings["dataset_dir"]
    if not dataset_dir:
        raise CliError("--dataset-dir is required")
    root = Path(dataset_dir)
    paths = [root / name for name in SPLIT_FILES]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise CliError(f"missing dataset files: {', '.join(missing)}")
    source = tuple(s.strip() for s in settings["graph_source"].split(",") if s.strip())
    return load_dataset(*paths, graph_source=source)

def _prepare_out(settings, filenames):
    out = settings["out"]
    if not out:
        raise CliError("--out is required")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if not settings["overwrite"]:
        clobbered = [str(out / f) for f in [*filenames, "manifest.txt"]
                     if (out / f).exists()]
        if clobbered:
            raise CliError(
                "refusing to overwrite existing outputs (use --overwrite): "
                + ", ".join(clobbered)
            )
    return out


def _write_manifest(out: Path, settings, command):
    lines = [f"# written {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    lines.append(f"command = {command}")
    for key in sorted(settings):
        lines.append(f"{key} = {settings[key]}")
    lines.append(f"tie_rule = {TIE_RULE}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _ks(settings):
    try:
        ks = tuple(int(k) for k in str(settings["ks"]).split(",") if k.strip())
    except ValueError:
        ks = ()
    if not ks or min(ks) < 1:
        raise CliError("--ks must be a comma-separated list of positive integers")
    return ks


def cmd_stats(settings):
    _, _, summary = _load(settings)
    text = summary.as_text()
    if settings["out"]:
        out = _prepare_out(settings, ["summary.txt"])
        (out / "summary.txt").write_text(text)
        _write_manifest(out, settings, "stats")
    sys.stdout.write(text)
    return 0


def cmd_indicators(settings):
    if settings["max_rule_len"] < 2:  # train's minimum is 1
        raise CliError(f"max_rule_len must be at least 2 for indicators (patterns "
                       f"have 2 or more hops), not {settings['max_rule_len']}")
    kg, _, _ = _load(settings)
    sample, n = settings["sample"], len(kg.triple_array)
    if sample is not None and sample > n:
        raise CliError(f"sample must be at most the graph's {n} triples, not {sample}")
    wanted = None
    if settings["predicates"]:
        names = [name.strip() for name in settings["predicates"].split(",")]
        unknown = [name for name in names if name not in kg.predicate_index]
        if unknown:
            raise CliError(f"unknown predicate {unknown[0]!r}")
        wanted = list(dict.fromkeys(kg.predicate_index[name] for name in names))
    files = ["saturation.tsv", "saturation.txt", "bifurcation.tsv", "bifurcation.txt"]
    out = _prepare_out(settings, files)
    if settings["sample"] is not None:
        kg = ind.sample_subgraph(kg, settings["seed"], settings["sample"])
    records = ind.saturation_report(
        kg,
        max_len=settings["max_rule_len"],
        top_n=settings["top_n"],
        exclude_direct_edge=settings["direct_edge"] != "include",
        budget=settings["budget"],
        predicates=wanted,
    )
    bif = [
        ind.bifurcation(kg, q, direction, settings["lambda_max"])
        for q in (wanted if wanted is not None else range(kg.num_predicates))
        if kg.num_edges(q) > 0
        for direction in (ind.FORWARD, ind.BACKWARD)
    ]
    (out / "saturation.tsv").write_text(ind.saturation_tsv(records, kg))
    (out / "saturation.txt").write_text(ind.saturation_table(records, kg))
    (out / "bifurcation.tsv").write_text(ind.bifurcation_tsv(bif, kg))
    (out / "bifurcation.txt").write_text(ind.bifurcation_table(bif, kg))
    _write_manifest(out, settings, "indicators")
    return 0


def _train_config(settings):
    """TrainConfig, each field read from the option of its name or from `option_of`'s."""
    option_of = {"max_len": "max_rule_len", "max_epochs": "epochs"}
    return TrainConfig(**{f.name: settings[option_of.get(f.name, f.name)]
                          for f in fields(TrainConfig)})


def cmd_train(settings):
    kg, splits, _ = _load(settings)
    config = _train_config(settings).validate()
    out = _prepare_out(settings, ["checkpoint.npz", "train_log.txt"])
    log_lines = []

    def log(line):
        log_lines.append(line)
        sys.stdout.write(line + "\n")

    params, _ = train(kg, splits, config, log_fn=log)
    save_checkpoint(params, out / "checkpoint.npz")
    (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    _write_manifest(out, settings, "train")
    return 0


def _load_model(settings, kg):
    """The checkpoint's parameters, refused unless trained on kg's predicates."""
    path = settings["checkpoint"]
    if not path or not Path(path).is_file():
        raise CliError("--checkpoint pointing at a trained model is required")
    params = load_checkpoint(path)
    if params.predicates != kg.predicates:
        # a checkpoint that records no vocabulary differs at index 0 (None)
        pairs = itertools.zip_longest(params.predicates or [None], kg.predicates)
        i, (mine, theirs) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise CliError(
            f"checkpoint predicates differ from the dataset's in names or order: "
            f"predicate {i} is {mine!r} in the checkpoint, {theirs!r} in the dataset"
        )
    return params


def cmd_eval(settings):
    kg, splits, _ = _load(settings)
    params = _load_model(settings, kg)
    ks = _ks(settings)
    out = _prepare_out(settings, ["eval_report.tsv", "eval_report.txt"])
    report = evaluate(kg, params, splits.test, ks=ks)
    (out / "eval_report.tsv").write_text(report.as_tsv())
    (out / "eval_report.txt").write_text(report.as_text())
    _write_manifest(out, settings, "eval")
    return 0


def cmd_rules(settings):
    kg, _, _ = _load(settings)
    params = _load_model(settings, kg)
    if settings["query"]:
        if settings["query"] not in kg.predicate_index:
            raise CliError(f"unknown predicate {settings['query']!r}")
        queries = [kg.predicate_index[settings["query"]]]
    else:
        queries = list(range(kg.num_predicates))
    out = _prepare_out(settings, ["rules.tsv", "rules.txt"])
    rules = []
    for q in queries:
        rules.extend(extract_rules(params, q, settings["top_n"]))
    (out / "rules.tsv").write_text(rules_tsv(rules, kg))
    (out / "rules.txt").write_text(rules_table(rules, kg))
    _write_manifest(out, settings, "rules")
    return 0


COMMANDS = {
    "stats": cmd_stats,
    "indicators": cmd_indicators,
    "train": cmd_train,
    "eval": cmd_eval,
    "rules": cmd_rules,
}


def _build_parser():
    parser = _Parser(prog="mplr", description=__doc__)
    parser.add_argument("--config", help="flat key = value settings file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key, option in OPTIONS.items():
            if name in option.commands:
                flag = option.flag or "--" + key.replace("_", "-")
                if option.kind is bool:
                    p.add_argument(flag, dest=key, action="store_const", const="true")
                else:
                    p.add_argument(flag, dest=key)
    return parser


def main(argv=None) -> int:
    try:
        command, settings = _resolve(argv)
        return COMMANDS[command](settings)
    except ind.CostBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, OSError, ValueError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
