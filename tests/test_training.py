import numpy as np
import pytest

import mplr.training as training
from mplr.kg import KnowledgeGraph, DatasetSplits
from mplr.indicators import BifurcationRecord, FORWARD, BACKWARD
from mplr.model import extract_rules
from mplr.training import (
    AdamOptimizer,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    hit_upper_bound,
    rank_among,
    train,
)


class TestAdam:
    def test_first_step_magnitude(self):
        lr = 0.001
        tensors = {"w": np.array([1.0, -2.0])}
        adam = AdamOptimizer(tensors, lr=lr)
        g = np.array([0.5, -3.0])
        adam.step(tensors, {"w": g})
        delta = np.abs(tensors["w"] - np.array([1.0, -2.0]))
        # first step moves by lr * |g| / (|g| + eps), a whisker under lr
        assert np.all(np.abs(delta - lr) < 1e-5)
        assert np.all(delta < lr)

    def test_step_direction_opposes_gradient(self):
        tensors = {"w": np.zeros(2)}
        adam = AdamOptimizer(tensors, lr=0.1)
        adam.step(tensors, {"w": np.array([1.0, -1.0])})
        assert tensors["w"][0] < 0 < tensors["w"][1]

    def test_zero_gradient_leaves_parameter_unchanged(self):
        tensors = {"w": np.array([3.14, -1.0])}
        adam = AdamOptimizer(tensors, lr=0.5)
        for _ in range(10):
            adam.step(tensors, {"w": np.zeros(2)})
        assert np.array_equal(tensors["w"], np.array([3.14, -1.0]))


def rule_chain_dataset(num_instances=4, num_valid=1):
    """Graphs where q(h, t) holds exactly when p1(h, z) and p2(z, t) do."""
    ents = []

    def eid(name):
        if name not in ents:
            ents.append(name)
        return ents.index(name)

    graph, q_train, q_valid = [], [], []
    for i in range(num_instances):
        h, z, t = eid(f"h{i}"), eid(f"z{i}"), eid(f"t{i}")
        graph += [(h, 0, z), (z, 1, t)]
        edge = (h, 2, t)
        graph.append(edge)
        (q_valid if i >= num_instances - num_valid else q_train).append(edge)
    kg = KnowledgeGraph(ents, ["p1", "p2", "q"], graph)
    return kg, DatasetSplits(q_train, q_valid, [], ("train", "valid"))


SMALL_CONFIG = dict(
    max_len=2, rank=1, embed_dim=16, hidden_dim=16, batch_size=16,
    learning_rate=0.02, normalize=None,
)


class TestTrain:
    def test_learns_the_unique_consistent_rule(self):
        kg, splits = rule_chain_dataset()
        cfg = TrainConfig(max_epochs=200, patience=200, seed=0, **SMALL_CONFIG)
        params, stats = train(kg, splits, cfg)
        assert max(s.valid_mrr for s in stats) == pytest.approx(1.0)
        top = extract_rules(params, kg.predicate_index["q"], 1)[0]
        assert top.hops.hops == (0, 1)
        assert top.confidence > 0.9

    def test_reproducible_given_seed(self):
        kg, splits = rule_chain_dataset()
        cfg = TrainConfig(max_epochs=12, patience=12, seed=7, **SMALL_CONFIG)
        params_a, stats_a = train(kg, splits, cfg)
        params_b, stats_b = train(kg, splits, cfg)
        assert [s.as_line() for s in stats_a] == [s.as_line() for s in stats_b]
        for key in params_a.tensors:
            assert np.array_equal(params_a.tensors[key], params_b.tensors[key])

    def test_epoch_losses_finite_and_logged(self):
        kg, splits = rule_chain_dataset()
        lines = []
        cfg = TrainConfig(max_epochs=3, patience=3, seed=1, **SMALL_CONFIG)
        _, stats = train(kg, splits, cfg, log_fn=lines.append)
        assert len(lines) == len(stats) == 3
        assert all(np.isfinite(s.train_loss) for s in stats)
        assert all("valid_mrr" in line for line in lines)

    def test_early_stopping_respects_patience(self):
        kg, splits = rule_chain_dataset()
        cfg = TrainConfig(max_epochs=50, patience=2, seed=0, **SMALL_CONFIG)
        _, stats = train(kg, splits, cfg)
        # MRR saturates at 1.0 almost immediately; patience must cut the run
        assert len(stats) < 50

    def test_empty_train_split_rejected(self):
        kg, splits = rule_chain_dataset()
        splits = DatasetSplits([], splits.valid, [], splits.graph_source)
        with pytest.raises(ValueError, match="empty train"):
            train(kg, splits, TrainConfig())

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        kg, splits = rule_chain_dataset()

        def poisoned(*args, **kwargs):
            return float("nan"), {}

        monkeypatch.setattr(training, "loss_and_gradients", poisoned)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0, **SMALL_CONFIG)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(kg, splits, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_len=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(rank=0).validate()


class TestRanking:
    def test_unique_top_answer(self):
        scores = np.array([0.9, 0.5, 0.1, 0.0])
        assert rank_among(scores, 0) == 1.0

    def test_two_way_tie_gives_half_rank(self):
        scores = np.array([0.5, 0.5, 0.1])
        assert rank_among(scores, 0) == 1.5
        assert 1.0 / rank_among(scores, 0) == pytest.approx(2.0 / 3.0)

    def test_excluded_head_not_a_competitor(self):
        scores = np.array([9.0, 1.0, 0.5])
        # candidate 0 is the query head: answer 1 ranks first without it
        assert rank_among(scores, 1, exclude=0) == 1.0

    def test_all_tied(self):
        scores = np.zeros(5)
        assert rank_among(scores, 2) == 3.0


@pytest.fixture(scope="module")
def trained():
    kg, splits = rule_chain_dataset(num_instances=6, num_valid=2)
    cfg = TrainConfig(max_epochs=60, patience=60, seed=0, **SMALL_CONFIG)
    params, _ = train(kg, splits, cfg)
    return kg, splits, params


class TestEvaluate:

    def test_perfect_rule_gives_perfect_metrics(self, trained):
        kg, splits, params = trained
        report = evaluate(kg, params, splits.valid, ks=(1, 3))
        assert report.mrr == pytest.approx(1.0)
        assert report.hit_at[1] == pytest.approx(1.0)
        assert report.num_queries == len(splits.valid)

    def test_deterministic(self, trained):
        kg, splits, params = trained
        a = evaluate(kg, params, splits.valid, ks=(1, 3))
        b = evaluate(kg, params, splits.valid, ks=(1, 3))
        assert a.as_tsv() == b.as_tsv()

    def test_hits_non_decreasing_in_k(self, trained):
        kg, splits, params = trained
        ks = (1, 2, 3, 5, kg.num_entities - 1)
        report = evaluate(kg, params, splits.valid, ks=ks)
        vals = [report.hit_at[k] for k in ks]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        # the candidate list has |E| - 1 entries, so the last bucket is full
        assert vals[-1] == 1.0

    def test_per_predicate_breakdown(self, trained):
        kg, splits, params = trained
        report = evaluate(kg, params, splits.valid, ks=(1,))
        assert set(report.per_predicate) == {"q"}
        assert report.per_predicate["q"].num_queries == len(splits.valid)

    def test_report_renderers(self, trained):
        kg, splits, params = trained
        report = evaluate(kg, params, splits.valid, ks=(1, 3))
        tsv = report.as_tsv()
        assert "tie_rule = mean-rank-among-ties" in tsv
        assert "\tmrr\t" in tsv.splitlines()[1]
        text = report.as_text()
        assert "ALL" in text

    def test_empty_split_rejected(self, trained):
        kg, _, params = trained
        with pytest.raises(ValueError, match="empty"):
            evaluate(kg, params, [])

    def test_non_finite_scores_rejected(self, trained, monkeypatch):
        kg, splits, params = trained
        real = training.score_entities

        def poisoned(*args, **kwargs):
            scores = real(*args, **kwargs)
            scores[0, 0] = np.nan
            return scores

        monkeypatch.setattr(training, "score_entities", poisoned)
        with pytest.raises(ValueError, match="non-finite scores for predicate 'q'"):
            evaluate(kg, params, splits.valid)


class TestHitUpperBound:
    def record(self, proportions, direction=FORWARD):
        return BifurcationRecord(0, direction, proportions)

    def test_family_daughter_argument(self):
        rec = self.record({1: 1.0, 2: 0.84, 3: 0.0})
        assert hit_upper_bound(rec, 1) == pytest.approx(0.58)

    def test_all_single_target(self):
        rec = self.record({1: 1.0, 2: 0.0, 3: 0.0})
        for k in (1, 2):
            assert hit_upper_bound(rec, k) == pytest.approx(1.0)

    def test_every_head_two_targets(self):
        rec = self.record({1: 1.0, 2: 1.0, 3: 0.0})
        assert hit_upper_bound(rec, 1) == pytest.approx(0.5)

    def test_tail_mass_treated_as_last_lambda(self):
        # proportions stop while still positive: remaining heads count as
        # having exactly the last lambda many targets
        rec = self.record({1: 1.0, 2: 1.0})
        assert hit_upper_bound(rec, 1) == pytest.approx(0.5)

    def test_bound_increases_with_k(self):
        rec = self.record({1: 1.0, 2: 0.8, 3: 0.5, 4: 0.2, 5: 0.0})
        bounds = [hit_upper_bound(rec, k) for k in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] == pytest.approx(1.0)

    def test_rejects_backward_record(self):
        rec = self.record({1: 1.0, 2: 0.5}, direction=BACKWARD)
        with pytest.raises(ValueError, match="forward"):
            hit_upper_bound(rec, 1)

    def test_rejects_increasing_curve(self):
        rec = self.record({1: 1.0, 2: 0.3, 3: 0.6})
        with pytest.raises(ValueError, match="non-increasing"):
            hit_upper_bound(rec, 1)

    def test_rejects_short_curve(self):
        rec = self.record({1: 1.0, 2: 0.5})
        with pytest.raises(ValueError, match="extend"):
            hit_upper_bound(rec, 2)

    def test_rejects_gappy_curve(self):
        rec = self.record({1: 1.0, 3: 0.5})
        with pytest.raises(ValueError, match="contiguously"):
            hit_upper_bound(rec, 1)
