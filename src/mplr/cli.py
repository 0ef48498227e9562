"""Command-line entry point: indicators, train, eval, rules, stats.

A flat key = value config file can hold any option; command-line flags
override config keys. Every run writes a manifest (settings echo plus the
conventions in effect) into the output directory. Report files themselves
carry no timestamps, so identical config + seed reproduces them byte for
byte. Exit codes: 0 success, 1 error, 2 saturation cost budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import indicators as ind
from .kg import load_dataset
from .model import (
    extract_rules,
    load_checkpoint,
    rules_table,
    rules_tsv,
    save_checkpoint,
)
from .training import TIE_RULE, TrainConfig, evaluate, train

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")

DEFAULTS = {
    "dataset_dir": None,
    "out": None,
    "seed": 0,
    "max_rule_len": 2,
    "rank": 3,
    "embed_dim": 128,
    "hidden_dim": 128,
    "top_n": 5,
    "lambda_max": 7,
    "sample": None,
    "budget": ind.DEFAULT_COST_BUDGET,
    "epochs": 10,
    "batch_size": 128,
    "learning_rate": 0.001,
    "patience": 3,
    "direct_edge": "exclude",
    "epsilon_mode": "corrected",
    "normalize": "l2",
    "graph_source": "train,valid,test",
    "checkpoint": None,
    "query": None,
    "ks": "1,3,10",
    "direction": "both",
    "overwrite": False,
    "predicates": None,
}

_INT_KEYS = {
    "seed", "max_rule_len", "rank", "embed_dim", "hidden_dim", "top_n",
    "lambda_max", "sample", "epochs", "batch_size", "patience",
}
_FLOAT_KEYS = {"budget", "learning_rate"}
_BOOL_KEYS = {"overwrite"}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are ordinary errors (exit 1); exit 2 is reserved
        # for the saturation cost budget
        raise CliError(message)


def _parse_config_file(path):
    settings = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise CliError(f"{path}:{lineno}: unknown option {key!r}")
        settings[key] = value
    return settings


def _coerce(key, value):
    if value is None or not isinstance(value, str):
        return value
    if value.lower() in ("none", ""):
        return None
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    if key in _BOOL_KEYS:
        return value.lower() in ("1", "true", "yes", "on")
    return value


def _resolve(args):
    settings = dict(DEFAULTS)
    if args.config:
        settings.update(_parse_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            settings[key] = flag
    return {k: _coerce(k, v) for k, v in settings.items()}


def _load(settings, *, graph_source=None):
    dataset_dir = settings["dataset_dir"]
    if not dataset_dir:
        raise CliError("--dataset-dir is required")
    root = Path(dataset_dir)
    paths = [root / name for name in SPLIT_FILES]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise CliError(f"missing dataset files: {', '.join(missing)}")
    source = graph_source or tuple(
        s.strip() for s in settings["graph_source"].split(",") if s.strip()
    )
    return load_dataset(*paths, graph_source=source)

def _prepare_out(settings, filenames):
    out = settings["out"]
    if not out:
        raise CliError("--out is required")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if not settings["overwrite"]:
        clobbered = [str(out / f) for f in filenames if (out / f).exists()]
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
    return tuple(int(k) for k in str(settings["ks"]).split(",") if str(k).strip())


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
    kg, _, _ = _load(settings)
    wanted = None
    if settings["predicates"]:
        names = [name.strip() for name in settings["predicates"].split(",")]
        unknown = [name for name in names if name not in kg.predicate_index]
        if unknown:
            raise CliError(f"unknown predicate {unknown[0]!r}")
        wanted = [kg.predicate_index[name] for name in names]
    files = ["saturation.tsv", "saturation.txt", "bifurcation.tsv", "bifurcation.txt"]
    out = _prepare_out(settings, files)
    if settings["sample"]:
        kg = ind.sample_subgraph(kg, settings["seed"], settings["sample"])
    records = ind.saturation_report(
        kg,
        max_len=settings["max_rule_len"],
        top_n=settings["top_n"],
        exclude_direct_edge=settings["direct_edge"] != "include",
        budget=settings["budget"],
        predicates=wanted,
    )
    directions = (
        (ind.FORWARD, ind.BACKWARD)
        if settings["direction"] == "both"
        else (settings["direction"],)
    )
    bif = []
    for q in wanted if wanted is not None else range(kg.num_predicates):
        for direction in directions:
            if kg.num_edges(q) > 0:
                bif.append(ind.bifurcation(kg, q, direction, settings["lambda_max"]))
    (out / "saturation.tsv").write_text(ind.saturation_tsv(records, kg))
    (out / "saturation.txt").write_text(ind.saturation_table(records, kg))
    (out / "bifurcation.tsv").write_text(ind.bifurcation_tsv(bif, kg))
    (out / "bifurcation.txt").write_text(ind.bifurcation_table(bif, kg))
    _write_manifest(out, settings, "indicators")
    return 0


def _train_config(settings):
    return TrainConfig(
        max_len=settings["max_rule_len"],
        rank=settings["rank"],
        embed_dim=settings["embed_dim"],
        hidden_dim=settings["hidden_dim"],
        batch_size=settings["batch_size"],
        learning_rate=settings["learning_rate"],
        max_epochs=settings["epochs"],
        patience=settings["patience"],
        seed=settings["seed"],
        normalize=settings["normalize"],
        epsilon_mode=settings["epsilon_mode"],
        hit_ks=_ks(settings),
    )


def cmd_train(settings):
    kg, splits, _ = _load(settings)
    out = _prepare_out(settings, ["checkpoint.npz", "train_log.txt"])
    log_lines = []

    def log(line):
        log_lines.append(line)
        sys.stdout.write(line + "\n")

    params, _ = train(kg, splits, _train_config(settings), log_fn=log)
    save_checkpoint(params, out / "checkpoint.npz")
    (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    _write_manifest(out, settings, "train")
    return 0


def cmd_eval(settings):
    kg, splits, _ = _load(settings)
    if not settings["checkpoint"] or not Path(settings["checkpoint"]).is_file():
        raise CliError("--checkpoint pointing at a trained model is required")
    out = _prepare_out(settings, ["eval_report.tsv", "eval_report.txt"])
    params = load_checkpoint(settings["checkpoint"])
    report = evaluate(kg, params, splits.test, ks=_ks(settings))
    (out / "eval_report.tsv").write_text(report.as_tsv())
    (out / "eval_report.txt").write_text(report.as_text())
    _write_manifest(out, settings, "eval")
    return 0


def cmd_rules(settings):
    kg, _, _ = _load(settings)
    if not settings["checkpoint"] or not Path(settings["checkpoint"]).is_file():
        raise CliError("--checkpoint pointing at a trained model is required")
    out = _prepare_out(settings, ["rules.tsv", "rules.txt"])
    params = load_checkpoint(settings["checkpoint"])
    if settings["query"]:
        if settings["query"] not in kg.predicate_index:
            raise CliError(f"unknown predicate {settings['query']!r}")
        queries = [kg.predicate_index[settings["query"]]]
    else:
        queries = list(range(kg.num_predicates))
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
        p.add_argument("--dataset-dir", dest="dataset_dir")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--overwrite", action="store_true")
        p.add_argument("--graph-source", dest="graph_source")
        if name == "indicators":
            p.add_argument("--max-rule-len", dest="max_rule_len", type=int)
            p.add_argument("--top-n", dest="top_n", type=int)
            p.add_argument("--lambda-max", dest="lambda_max", type=int)
            p.add_argument("--direct-edge", dest="direct_edge",
                           choices=["exclude", "include"])
            p.add_argument("--sample", type=int)
            p.add_argument("--budget", type=float)
            p.add_argument("--direction", choices=["forward", "backward", "both"])
            p.add_argument("--predicates")
        if name == "train":
            p.add_argument("--max-rule-len", dest="max_rule_len", type=int)
            p.add_argument("--rank", type=int)
            p.add_argument("--embed-dim", dest="embed_dim", type=int)
            p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch-size", dest="batch_size", type=int)
            p.add_argument("--lr", dest="learning_rate", type=float)
            p.add_argument("--patience", type=int)
            p.add_argument("--normalize", choices=["l1", "l2", "none"])
            p.add_argument("--epsilon-mode", dest="epsilon_mode",
                           choices=["corrected", "literal"])
        if name in ("eval", "rules"):
            p.add_argument("--checkpoint")
        if name == "eval":
            p.add_argument("--ks")
        if name == "rules":
            p.add_argument("--query")
            p.add_argument("--top-n", dest="top_n", type=int)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _resolve(args)
        if settings.get("normalize") == "none":
            settings["normalize"] = None
        return COMMANDS[args.command](settings)
    except ind.CostBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
