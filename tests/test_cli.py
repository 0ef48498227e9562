import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mplr.cli import OPTIONS, SPLIT_FILES, CliError, _resolve, _train_config, main
from mplr.kg import load_dataset
from mplr.model import NORMALIZE_MODES, load_checkpoint
from mplr.training import TrainConfig

from conftest import write_family_dataset


@pytest.fixture(scope="module")
def kin_dir(tmp_path_factory):
    return write_family_dataset(tmp_path_factory.mktemp("cli") / "families", num_clans=2)


def run(*argv):
    return main([str(a) for a in argv])


NOT_CKPT = "not an mplr checkpoint: "


@pytest.fixture(scope="module")
def tiny_checkpoint(kin_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert run("train", "--dataset-dir", kin_dir, "--out", out, "--seed", 1,
               "--epochs", 1, "--patience", 1, "--rank", 1,
               "--embed-dim", 8, "--hidden-dim", 8) == 0
    return out / "checkpoint.npz"


class TestStats:
    def test_prints_summary(self, kin_dir, capsys):
        assert run("stats", "--dataset-dir", kin_dir) == 0
        out = capsys.readouterr().out
        assert "entities =" in out
        assert "train_duplicates = 0" in out

    def test_out_writes_summary_and_manifest(self, kin_dir, tmp_path, capsys):
        out = tmp_path / "stats"
        assert run("stats", "--dataset-dir", kin_dir, "--out", out) == 0
        printed = capsys.readouterr().out
        assert (out / "summary.txt").read_text() == printed
        assert "command = stats" in (out / "manifest.txt").read_text()

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        assert run("stats", "--dataset-dir", tmp_path / "nope") == 1
        assert "missing dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("name", SPLIT_FILES)
    def test_split_file_that_is_not_utf8_is_named(self, kin_dir, tmp_path, name, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for split in SPLIT_FILES:
            (data / split).write_bytes((kin_dir / split).read_bytes())
        (data / name).write_bytes(b"\xff" + (kin_dir / name).read_bytes())
        assert run("stats", "--dataset-dir", data) == 1
        assert capsys.readouterr().err == (
            f"error: {data / name}: not UTF-8 text (invalid start byte at byte 0)\n")

    def test_manifest_of_another_command_is_not_overwritten(self, kin_dir, tmp_path,
                                                           capsys):
        out = tmp_path / "stats"
        assert run("stats", "--dataset-dir", kin_dir, "--out", out) == 0
        manifest = (out / "manifest.txt").read_text()
        capsys.readouterr()
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: refusing to overwrite existing outputs (use --overwrite): "
            f"{out / 'manifest.txt'}\n")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "summary.txt"]
        assert (out / "manifest.txt").read_text() == manifest
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   "--overwrite") == 0
        assert "command = indicators" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("source", ["none", ",", ""], ids=["none", "comma", "empty"])
    def test_graph_source_naming_no_split_exits_one(self, kin_dir, source, capsys):
        assert run("stats", "--dataset-dir", kin_dir, "--graph-source", source) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestIndicators:
    def test_writes_reports(self, kin_dir, tmp_path):
        out = tmp_path / "ind"
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   "--top-n", 2) == 0
        for name in ("saturation.tsv", "saturation.txt",
                     "bifurcation.tsv", "bifurcation.txt", "manifest.txt"):
            assert (out / name).exists()
        tsv = (out / "saturation.tsv").read_text()
        assert tsv.startswith("pattern\tpredicate")

    def test_repeated_predicate_writes_the_single_name_reports(self, kin_dir, tmp_path):
        for out, names in (("once", "wifeOf"), ("twice", "wifeOf,wifeOf")):
            assert run("indicators", "--dataset-dir", kin_dir, "--out", tmp_path / out,
                       "--predicates", names) == 0
        for name in ("saturation.tsv", "saturation.txt",
                     "bifurcation.tsv", "bifurcation.txt"):
            assert (tmp_path / "twice" / name).read_bytes() == (
                tmp_path / "once" / name).read_bytes()

    def test_budget_violation_exits_two_without_partial_files(
        self, kin_dir, tmp_path, capsys
    ):
        out = tmp_path / "ind2"
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   "--budget", 1) == 2
        assert "budget" in capsys.readouterr().err
        assert not (out / "saturation.tsv").exists()

    def test_unknown_predicate_exits_one_before_making_out(
        self, kin_dir, tmp_path, capsys
    ):
        out = tmp_path / "ind4"
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   "--predicates", "wifeOf,nosuch") == 1
        err = capsys.readouterr().err
        assert err == "error: unknown predicate 'nosuch'\n"
        assert not out.exists()

    def test_predicate_subset_of_many_predicate_graph_within_default_budget(
        self, tmp_path
    ):
        # 96 predicates: a whole-graph |P|^3 * |G| estimate would read ~7e9
        many = write_family_dataset(tmp_path / "many", num_clans=128, groups=8)
        subset = "wifeOf_g0,husbandOf_g0,fatherOf_g0,sonOf_g0"
        out = tmp_path / "ind5"
        assert run("indicators", "--dataset-dir", many, "--out", out,
                   "--predicates", subset) == 0
        assert (out / "saturation.tsv").exists()
        refused = tmp_path / "ind6"
        assert run("indicators", "--dataset-dir", many, "--out", refused,
                   "--predicates", subset, "--budget", 1) == 2
        assert not (refused / "saturation.tsv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-rule-len", 1, "max_rule_len must be at least 2 for indicators"),
            ("--lambda-max", 0, "lambda_max must be at least 1, not 0"),
            ("--sample", 0, "sample must be at least 1, not 0"),
            ("--sample", 10**6, "sample must be at most the graph's"),
            ("--top-n", 0, "top_n must be at least 1, not 0"),
            ("--budget", "nan", "budget must be above 0, not nan"),
        ],
    )
    def test_bad_setting_exits_one_before_making_out(
        self, kin_dir, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "bad"
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("direct_edge", "inclde"),
            ("direct_edge", "none"), ("max_rule_len", "none"), ("top_n", "none"),
            ("lambda_max", "none"), ("rank", "none"), ("seed", "none"),
            ("budget", "none"), ("epochs", "abc"), ("overwrite", "maybe"),
        ],
    )
    def test_bad_config_choice_exits_one_before_making_out(
        self, kin_dir, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "bad"
        assert run("--config", cfg, "indicators", "--dataset-dir", kin_dir,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
        assert err.endswith(f"not {value!r}\n")
        assert not out.exists()

    def test_none_and_inf_config_values(self, kin_dir, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("budget = inf\nsample = none\npredicates = none\n")
        out = tmp_path / "ok"
        assert run("--config", cfg, "indicators", "--dataset-dir", kin_dir,
                   "--out", out) == 0
        assert "budget = inf\n" in (out / "manifest.txt").read_text()

    def test_sampling_respects_budget(self, kin_dir, tmp_path):
        out = tmp_path / "ind3"
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   "--sample", 40, "--budget", 1e7) == 0

    def test_missing_dataset_no_partial_files(self, tmp_path):
        out = tmp_path / "ind4"
        assert run("indicators", "--dataset-dir", tmp_path / "nope",
                   "--out", out) == 1
        assert not out.exists() or not any(out.iterdir())

    def test_refuses_clobber_without_flag(self, kin_dir, tmp_path, capsys):
        out = tmp_path / "ind5"
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out) == 0
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert run("indicators", "--dataset-dir", kin_dir, "--out", out,
                   "--overwrite") == 0


TRAIN_FLAGS = [
    "--rank", 1, "--embed-dim", 12, "--hidden-dim", 12,
    "--epochs", 4, "--patience", 4, "--lr", 0.01, "--batch-size", 64,
]


class TestPipeline:
    def test_train_eval_rules(self, kin_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--dataset-dir", kin_dir, "--out", out, "--seed", 1,
                   *TRAIN_FLAGS) == 0
        assert (out / "checkpoint.npz").exists()
        log = (out / "train_log.txt").read_text()
        assert len(log.strip().splitlines()) == 4
        assert re.search(r"epoch=1 train_loss=[\d.]+ valid_mrr=[\d.]+", log)

        assert run("eval", "--dataset-dir", kin_dir, "--out", out / "eval",
                   "--checkpoint", out / "checkpoint.npz") == 0
        tsv = (out / "eval" / "eval_report.tsv").read_text()
        assert tsv.splitlines()[1].startswith("predicate\tqueries\tmrr")

        assert run("rules", "--dataset-dir", kin_dir, "--out", out / "rules",
                   "--checkpoint", out / "checkpoint.npz",
                   "--query", "wifeOf", "--top-n", 3) == 0
        rules = (out / "rules" / "rules.tsv").read_text()
        assert "wifeOf" in rules

    @pytest.mark.parametrize(
        "flag, value",
        [
            pytest.param("--epochs", 0, id="--epochs"),
            pytest.param("--rank", 0, id="--rank"),
            pytest.param("--lr", "nan", id="--lr-nan"),
            pytest.param("--lr", "inf", id="--lr-inf"),
        ],
    )
    def test_bad_train_config_exits_one_before_making_out(
        self, kin_dir, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "bad"
        assert run("train", "--dataset-dir", kin_dir, "--out", out, flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("batch_size, message", [
        (8, "non-finite loss at epoch 1, batch starting at 8"),  # the second batch
        (128, "non-finite scores"),  # one batch, then validation
    ])
    def test_huge_learning_rate_fails_in_one_line(self, kin_dir, tmp_path,
                                                  batch_size, message):
        # the parameters overflow after the first step; numpy's warnings
        # about it would print before the error, so the command runs apart
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mplr.cli", "train", "--dataset-dir", str(kin_dir),
             "--out", str(tmp_path / "run"), "--lr", "1e308", "--epochs", "1",
             "--rank", "1", "--embed-dim", "8", "--hidden-dim", "8",
             "--batch-size", str(batch_size)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {message}")
        assert proc.stderr.count("\n") == 1

    def test_checkpoint_records_every_model_setting_given(self, kin_dir, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--dataset-dir", kin_dir, "--out", out, "--epochs", 1,
                   "--rank", 2, "--max-rule-len", 3, "--embed-dim", 6,
                   "--hidden-dim", 5, "--seed", 4, "--normalize", "l1",
                   "--epsilon-mode", "literal") == 0
        kg, _, _ = load_dataset(*(kin_dir / name for name in SPLIT_FILES))
        assert load_checkpoint(out / "checkpoint.npz").meta() == {
            "num_predicates": kg.num_predicates, "rank": 2, "max_len": 3,
            "embed_dim": 6, "hidden_dim": 5, "seed": 4, "normalize": "l1",
            "epsilon_mode": "literal", "predicates": kg.predicates, "gate_order": "ifgo",
        }

    def test_train_config_reads_every_training_option(self):
        _, settings = _resolve(["train", "--batch-size", "7", "--lr", "0.25",
                                "--epochs", "4", "--patience", "2",
                                "--max-rule-len", "3", "--normalize", "none"])
        assert _train_config(settings) == TrainConfig(
            max_len=3, batch_size=7, learning_rate=0.25, max_epochs=4, patience=2,
            normalize=None,
        )

    def test_train_only_defaults_are_train_configs(self):
        train_only = {key: option.default for key, option in OPTIONS.items()
                      if option.commands == ("train",)}
        field = {"epochs": "max_epochs"}
        assert sorted(train_only) == [
            "batch_size", "embed_dim", "epochs", "epsilon_mode", "hidden_dim",
            "learning_rate", "normalize", "patience", "rank",
        ]
        assert train_only == {key: getattr(TrainConfig(), field.get(key, key))
                              for key in train_only}

    def test_normalize_choices_are_the_models_modes(self):
        choices = OPTIONS["normalize"].kind
        assert sorted(choices) == sorted(mode or "none" for mode in NORMALIZE_MODES)
        assert choices[-1] == "none"
        for mode in NORMALIZE_MODES:
            _, settings = _resolve(["train", "--normalize", mode or "none"])
            assert _train_config(settings).normalize == mode
        with pytest.raises(CliError, match="^normalize must be l1/l2/none, not 'l3'$"):
            _resolve(["train", "--normalize", "l3"])

    @pytest.mark.parametrize("command", ["indicators", "train", "eval", "rules"])
    def test_out_is_required(self, kin_dir, tiny_checkpoint, capsys, command):
        ckpt = ["--checkpoint", tiny_checkpoint] if command in ("eval", "rules") else []
        assert run(command, "--dataset-dir", kin_dir, *ckpt) == 1
        assert capsys.readouterr().err == "error: --out is required\n"

    def test_train_ignores_the_eval_only_ks(self, kin_dir, tmp_path):
        # ks sets eval's report; train keeps only the validation MRR
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ks = 0\n")
        assert run("--config", cfg, "train", "--dataset-dir", kin_dir,
                   "--out", tmp_path / "run", "--epochs", 1, "--rank", 1,
                   "--embed-dim", 8, "--hidden-dim", 8) == 0

    @pytest.mark.parametrize("command", ["stats", "eval", "rules"])
    def test_seed_is_no_flag_of_commands_that_never_read_it(
        self, kin_dir, tiny_checkpoint, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        ckpt = [] if command == "stats" else ["--checkpoint", tiny_checkpoint]
        assert run(command, "--dataset-dir", kin_dir, "--out", out, *ckpt,
                   "--seed", 1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("eval", "--ks", "0", "--ks must be a comma-separated list of positive"),
            ("eval", "--ks", "x", "--ks must be a comma-separated list of positive"),
            ("rules", "--top-n", 0, "top_n must be at least 1, not 0"),
            ("rules", "--query", "nosuch", "unknown predicate 'nosuch'"),
        ],
    )
    def test_bad_eval_or_rules_setting_exits_one_before_making_out(
        self, kin_dir, tiny_checkpoint, tmp_path, capsys, command, flag, value, message
    ):
        out = tmp_path / "bad"
        assert run(command, "--dataset-dir", kin_dir, "--out", out,
                   "--checkpoint", tiny_checkpoint, flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "dropped, meta, message",
        [
            pytest.param("__meta__", {}, f"{NOT_CKPT}missing '__meta__'",
                         id="__meta__"),
            pytest.param("proj_W", {}, f"{NOT_CKPT}missing 'proj_W'", id="proj_W"),
            # a None value deletes the setting from __meta__
            pytest.param(None, {"gate_order": None},
                         f"{NOT_CKPT}missing 'gate_order'", id="gate_order"),
            pytest.param(None, {"colour": "red"},
                         f"{NOT_CKPT}unknown setting 'colour'", id="unknown-setting"),
            # cut to one row, or rows doubled: shapes that broadcast, so an
            # unchecked eval would exit 0 with a wrong MRR
            pytest.param(("proj_b",), {},
                         f"{NOT_CKPT}'proj_b' has shape (1,), expected (13,)",
                         id="shape"),
            pytest.param(("proj_b", "cell0_fwd_b", "query_emb"), {},
                         f"{NOT_CKPT}'query_emb' has shape (24, 8), "
                         "expected (12, 8)",
                         id="broadcast-shapes"),
            # settings that reached ModelParams and raised a TypeError
            pytest.param(None, {"rank": "3"},
                         f"{NOT_CKPT}'rank' is '3', not an integer", id="string-rank"),
            pytest.param(None, {"max_len": 2.5},
                         f"{NOT_CKPT}'max_len' is 2.5, not an integer",
                         id="float-max-len"),
            pytest.param(None, {"hidden_dim": True},
                         f"{NOT_CKPT}'hidden_dim' is True, not an integer",
                         id="bool-hidden-dim"),
            pytest.param(None, {"predicates": 12},
                         f"{NOT_CKPT}'predicates' is not a list of names",
                         id="int-predicates"),
            # well-formed settings that ModelParams refuses
            pytest.param(None, {"normalize": "l3"},
                         "normalize must be one of (None, 'l1', 'l2')", id="normalize"),
            pytest.param(None, {"epsilon_mode": "x"},
                         "epsilon_mode must be one of ('corrected', 'literal')",
                         id="epsilon-mode"),
            pytest.param(None, {"gate_order": "fiog"},
                         "checkpoint gate order 'fiog' unsupported", id="gate-order-fiog"),
            pytest.param(None, {"rank": 0}, "all model dimensions must be positive",
                         id="rank-0"),
            pytest.param(None, {"seed": -1}, "seed must be at least 0, not -1",
                         id="negative-seed"),
            # settings whose tensors no machine holds are refused by the
            # members' shapes before anything is allocated
            pytest.param(None, {"hidden_dim": 10**7},
                         f"{NOT_CKPT}'cell0_fwd_Wx' has shape (8, 32), "
                         "expected (8, 40000000)", id="huge-hidden-dim"),
            pytest.param(None, {"rank": 10**12}, f"{NOT_CKPT}missing 'cell1_fwd_Wx'",
                         id="huge-rank"),
        ],
    )
    def test_incomplete_checkpoint_exits_one(
        self, kin_dir, tiny_checkpoint, tmp_path, capsys, dropped, meta, message
    ):
        with np.load(tiny_checkpoint) as data:
            kept = {k: data[k] for k in data.files if k != dropped}
        if isinstance(dropped, tuple):
            for key in dropped:
                v = kept[key]
                kept[key] = np.concatenate([v, v]) if key == "query_emb" else v[:1]
        if meta:
            settings = json.loads(kept["__meta__"].tobytes())
            for key, value in meta.items():
                if value is None:
                    del settings[key]
                else:
                    settings[key] = value
            kept["__meta__"] = np.frombuffer(json.dumps(settings).encode(), np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **kept)
        for command in ("eval", "rules"):
            out = tmp_path / command
            assert run(command, "--dataset-dir", kin_dir, "--out", out,
                       "--checkpoint", bad) == 1
            err = capsys.readouterr().err
            assert err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("meta", [b"not json", b"\xff\xfe{}"], ids=["text", "bytes"])
    def test_meta_that_is_not_json_exits_one(self, kin_dir, tiny_checkpoint, tmp_path,
                                             capsys, meta):
        with np.load(tiny_checkpoint) as data:
            kept = {k: data[k] for k in data.files}
        kept["__meta__"] = np.frombuffer(meta, np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **kept)
        for command in ("eval", "rules"):
            out = tmp_path / command
            assert run(command, "--dataset-dir", kin_dir, "--out", out,
                       "--checkpoint", bad) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {NOT_CKPT}'__meta__' is not JSON (")
            assert err.count("\n") == 1
            assert not out.exists()

    def test_npy_file_is_not_a_checkpoint(self, kin_dir, tiny_checkpoint, tmp_path,
                                          capsys):
        with np.load(tiny_checkpoint) as data:
            tensor = data["proj_W"]
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:  # np.save would append .npy to the name
            np.save(fh, tensor)
        for command in ("eval", "rules"):
            out = tmp_path / command
            assert run(command, "--dataset-dir", kin_dir, "--out", out,
                       "--checkpoint", bad) == 1
            err = capsys.readouterr().err
            assert err == "error: not an mplr checkpoint: not an npz archive\n"
            assert not out.exists()

    def test_eval_without_checkpoint_exits_one(self, kin_dir, tmp_path, capsys):
        assert run("eval", "--dataset-dir", kin_dir,
                   "--out", tmp_path / "e") == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_rules_unknown_predicate(self, kin_dir, tmp_path, capsys):
        out = tmp_path / "run2"
        assert run("train", "--dataset-dir", kin_dir, "--out", out, "--seed", 1,
                   "--epochs", 1, "--patience", 1, "--rank", 1,
                   "--embed-dim", 8, "--hidden-dim", 8) == 0
        assert run("rules", "--dataset-dir", kin_dir, "--out", out / "r",
                   "--checkpoint", out / "checkpoint.npz",
                   "--query", "bogus") == 1
        assert "unknown predicate" in capsys.readouterr().err

    def test_checkpoint_refused_on_reordered_vocabulary(
        self, kin_dir, tmp_path, capsys
    ):
        out = tmp_path / "run3"
        assert run("train", "--dataset-dir", kin_dir, "--out", out, "--seed", 1,
                   "--epochs", 1, "--patience", 1, "--rank", 1,
                   "--embed-dim", 8, "--hidden-dim", 8) == 0
        # the same graph with two predicate names exchanged: same count,
        # different order
        swapped = tmp_path / "swapped"
        swapped.mkdir()
        for name in ("train.txt", "valid.txt", "test.txt"):
            text = (kin_dir / name).read_text()
            text = text.replace("\twifeOf\t", "\tTMP\t")
            text = text.replace("\thusbandOf\t", "\twifeOf\t")
            (swapped / name).write_text(text.replace("\tTMP\t", "\thusbandOf\t"))
        capsys.readouterr()
        for command in ("eval", "rules"):
            dest = tmp_path / command
            assert run(command, "--dataset-dir", swapped, "--out", dest,
                       "--checkpoint", out / "checkpoint.npz") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: checkpoint predicates differ from the dataset's")
            assert err.count("\n") == 1
            assert not dest.exists()
        assert run("rules", "--dataset-dir", kin_dir, "--out", tmp_path / "ok",
                   "--checkpoint", out / "checkpoint.npz") == 0

    def test_identical_config_and_seed_reproduce_reports(self, kin_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run("train", "--dataset-dir", kin_dir, "--out", out,
                       "--seed", 3, *TRAIN_FLAGS) == 0
            assert run("eval", "--dataset-dir", kin_dir, "--out", out / "eval",
                       "--checkpoint", out / "checkpoint.npz") == 0
            assert run("rules", "--dataset-dir", kin_dir, "--out", out / "rules",
                       "--checkpoint", out / "checkpoint.npz") == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.npz").read_bytes() == (b / "checkpoint.npz").read_bytes()
        for rel in ("eval/eval_report.tsv", "eval/eval_report.txt",
                    "rules/rules.tsv", "train_log.txt"):
            assert (a / rel).read_text() == (b / rel).read_text()


class TestConfigFile:
    @pytest.mark.parametrize("key", list(OPTIONS))
    def test_flag_and_config_key_share_one_parse(self, key, tmp_path, capsys):
        option = OPTIONS[key]
        flag = option.flag or "--" + key.replace("_", "-")
        if isinstance(option.kind, tuple):
            good = next(c for c in option.kind if c != option.default)
            bad = "bogus"
        else:
            good = {int: "17", float: "0.25", bool: "true", str: "a,b"}[option.kind]
            # a bool flag takes no value, and every string is a str
            bad = {int: "1.5", float: "abc"}.get(option.kind)
        cfg = tmp_path / "run.cfg"
        assert option.commands
        for command in option.commands:
            cfg.write_text(f"{key} = {good}\n")
            by_flag = _resolve([command, flag] if option.kind is bool
                               else [command, flag, good])
            assert by_flag == _resolve(["--config", str(cfg), command])
            assert by_flag[1][key] != option.default
            if bad is None:
                continue
            cfg.write_text(f"{key} = {bad}\n")
            assert run(command, flag, bad) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
            assert run("--config", cfg, command) == 1
            assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "key", [k for k, o in OPTIONS.items() if o.kind in (int, float)])
    def test_every_number_has_a_minimum_checked_before_loading(
        self, key, tmp_path, capsys
    ):
        option = OPTIONS[key]
        flag = option.flag or "--" + key.replace("_", "-")
        low = option.minimum
        assert low is not None
        assert option.default is None or option.default >= low
        # an int below its minimum, a float at it; no dataset is named, so the
        # range is checked before anything is loaded
        bad = str(low - 1) if option.kind is int else str(low)
        want = (f"error: {key} must be {'at least' if option.kind is int else 'above'} "
                f"{low:g}, not {option.kind(bad)}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {bad}\n")
        for command in option.commands:
            assert run(command, flag, bad) == 1
            assert capsys.readouterr().err == want
            assert run("--config", cfg, command) == 1
            assert capsys.readouterr().err == want
        assert run(option.commands[0], flag, low + 1) == 1
        assert capsys.readouterr().err == "error: --dataset-dir is required\n"

    def test_config_supplies_defaults_flags_override(self, kin_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset_dir = {kin_dir}\n"
            "top_n = 1\n"
            "# a comment\n"
            "lambda_max = 3\n"
        )
        out = tmp_path / "ind"
        assert run("--config", cfg, "indicators", "--out", out, "--top-n", 2) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "top_n = 2" in manifest       # flag wins
        assert "lambda_max = 3" in manifest  # config applies
        sat = (out / "saturation.tsv").read_text()
        preds_in_report = {line.split("\t")[1] for line in sat.strip().splitlines()[1:]}
        per_pred_rows = sat.strip().splitlines()[1:]
        # top-n 2 per predicate
        assert len(per_pred_rows) <= 2 * 12

    def test_unknown_config_key_rejected(self, kin_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option = 1\n")
        assert run("--config", cfg, "stats", "--dataset-dir", kin_dir) == 1
        assert "unknown option" in capsys.readouterr().err

    def test_config_line_without_equals_names_its_line(self, kin_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# settings\ntop_n = 2\nlambda_max 3\n")
        assert run("--config", cfg, "stats", "--dataset-dir", kin_dir) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: expected key = value\n"

    def test_config_file_that_is_not_utf8_is_named(self, kin_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"top_n = 2\n\xff\n")
        assert run("--config", cfg, "stats", "--dataset-dir", kin_dir) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: not UTF-8 text (invalid start byte at byte 10)\n")

    def test_usage_error_exits_one(self, capsys):
        assert run("frobnicate") == 1


# every command through main in a fresh interpreter, then the scipy modules it holds
NO_SCIPY_SCRIPT = """
import sys
from mplr.cli import main

data, out = sys.argv[1:]
ckpt = ["--checkpoint", out + "/train/checkpoint.npz"]
for argv in (
    ["train", "--epochs", "1", "--rank", "1", "--embed-dim", "8", "--hidden-dim", "8"],
    ["eval", *ckpt],
    ["rules", *ckpt],
    ["indicators"],
    ["stats"],
):
    assert main([*argv, "--dataset-dir", data, "--out", out + "/" + argv[0]]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_commands_import_no_scipy(kin_dir, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(kin_dir), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
