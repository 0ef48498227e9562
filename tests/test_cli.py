import re

import numpy as np
import pytest

from mplr.cli import main

from conftest import write_family_dataset


@pytest.fixture(scope="module")
def kin_dir(tmp_path_factory):
    return write_family_dataset(tmp_path_factory.mktemp("cli") / "families", num_clans=2)


def run(*argv):
    return main([str(a) for a in argv])


class TestStats:
    def test_prints_summary(self, kin_dir, capsys):
        assert run("stats", "--dataset-dir", kin_dir) == 0
        out = capsys.readouterr().out
        assert "entities =" in out
        assert "train_duplicates = 0" in out

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        assert run("stats", "--dataset-dir", tmp_path / "nope") == 1
        assert "missing dataset" in capsys.readouterr().err


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

    def test_usage_error_exits_one(self, capsys):
        assert run("frobnicate") == 1
