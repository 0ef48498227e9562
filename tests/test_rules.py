import numpy as np
import pytest

import mplr.model
from mplr.model import (
    AttentionTensor,
    ModelParams,
    extract_rules,
    rules_from_attention,
    rules_table,
    rules_tsv,
    score_entities,
)
from mplr.operators import build_operators

from conftest import dfs_count_paths, random_kg, rules_reference


def attn(per_hop_rows, rank=1):
    w = np.array([per_hop_rows] * rank, dtype=float)
    return AttentionTensor(w)


class TestRulesFromAttention:
    def test_one_hot_sequence(self):
        # operators: [identity, sisterOf, sonOf]; hop1 sister, hop2 son
        a = attn([[0, 1, 0], [0, 0, 1]])
        rules = rules_from_attention(a, query=0, top_n=5)
        assert len(rules) == 1
        assert rules[0].hops.hops == (0, 1)
        assert rules[0].confidence == pytest.approx(1.0)

    def test_identity_mass_shortens_rule(self):
        a = attn([[0.4, 0.6, 0], [0, 0, 1]])
        rules = rules_from_attention(a, query=0, top_n=5)
        by_hops = {r.hops.hops: r.confidence for r in rules}
        assert by_hops[(0, 1)] == pytest.approx(0.6)
        assert by_hops[(1,)] == pytest.approx(0.4)

    def test_collapsed_sequences_merge_and_empty_dropped(self):
        a = attn([[0.5, 0.5, 0], [0.5, 0.5, 0]])
        rules = rules_from_attention(a, query=0, top_n=5)
        by_hops = {r.hops.hops: r.confidence for r in rules}
        # (p,I) and (I,p) merge into (p,); (I,I) disappears
        assert by_hops == {(0,): pytest.approx(0.5), (0, 0): pytest.approx(0.25)}
        assert rules[0].hops.hops == (0,)

    def test_rank_sum(self):
        w = np.zeros((2, 2, 3))
        w[0, 0, 1] = w[0, 1, 2] = 1.0  # rank 0: (p0, p1)
        w[1, 0, 1] = w[1, 1, 2] = 1.0  # rank 1: same rule
        rules = rules_from_attention(AttentionTensor(w), query=0, top_n=5)
        assert rules[0].confidence == pytest.approx(2.0)

    def test_budget_error_mentions_beam(self, monkeypatch):
        monkeypatch.setattr(mplr.model, "RULE_ENUMERATION_BUDGET", 100)
        a = AttentionTensor(np.full((1, 8, 4), 0.25))
        with pytest.raises(ValueError, match="beam"):
            rules_from_attention(a, query=0, top_n=5)

    def test_deterministic_tie_order(self):
        a = attn([[0, 0.5, 0.5], [1.0, 0, 0]])
        rules = rules_from_attention(a, query=0, top_n=5)
        assert [r.hops.hops for r in rules] == [(0,), (1,)]


def reference_cases():
    """(rank, hops, weights) tensors with exact zeros, a zero identity column
    and ties, over 3 predicates."""
    rng = np.random.default_rng(7)
    for R in (1, 2, 3):
        for L in (1, 2, 3, 4):
            dense = rng.random((R, L, 4))
            sparse = np.where(rng.random((R, L, 4)) < 0.4, 0.0, dense)
            no_identity = dense.copy()
            no_identity[:, :, 0] = 0.0
            # a few distinct values, so products and sums tie
            ties = rng.choice([0.0, 0.25, 0.5], size=(R, L, 4))
            for kind, w in (("dense", dense), ("zeros", sparse),
                            ("no-identity", no_identity), ("ties", ties)):
                yield pytest.param(w, id=f"R{R}-L{L}-{kind}")


class TestMatchesSequenceWalk:
    @pytest.mark.parametrize("weights", list(reference_cases()))
    @pytest.mark.parametrize("top_n", [1, 5, 400])
    def test_identical_to_reference(self, weights, top_n):
        a = AttentionTensor(weights)
        got = rules_from_attention(a, query=2, top_n=top_n)
        want = rules_reference(a, query=2, top_n=top_n)
        # no tolerance: same rules, same order, same confidences bit for bit
        assert [(r.hops.hops, r.confidence, r.predicate) for r in got] == [
            (r.hops.hops, r.confidence, r.predicate) for r in want
        ]

    @pytest.mark.parametrize("top_n", [2, 5, 7])
    def test_cut_inside_a_block_of_ties(self, top_n):
        # uniform weights: the 3 one-hop rules tie, and so do the 9 two-hop rules
        a = AttentionTensor(np.full((2, 2, 4), 0.25))
        confs = [r.confidence for r in rules_reference(a, query=2, top_n=400)]
        assert confs[top_n - 1] == confs[top_n]
        got = rules_from_attention(a, query=2, top_n=top_n)
        assert [(r.hops.hops, r.confidence) for r in got] == [
            (r.hops.hops, r.confidence) for r in rules_reference(a, 2, top_n)
        ]

    def test_softmax_attention_of_a_model(self):
        params = ModelParams(5, rank=3, max_len=3, embed_dim=6, hidden_dim=6, seed=9)
        for q in range(5):
            a = mplr.model.attention_forward(params, q)
            assert rules_from_attention(a, q, 50) == rules_reference(a, q, 50)


class TestRulesAccountForScores:
    """Every rule, weighted by its confidence and counted along the graph's
    paths, adds up to the plain scores; the all-identity sequence scores the
    head itself."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("R", [1, 3])
    def test_scores_are_confidence_weighted_path_counts(self, L, R):
        kg = random_kg(L + R, num_entities=8, num_predicates=3, edge_prob=0.2)
        ops = build_operators(kg)
        w = np.random.default_rng(10 * L + R).random((R, L, len(ops)))
        a = AttentionTensor(w / w.sum(axis=2, keepdims=True))
        rules = rules_from_attention(a, query=0, top_n=10**6)
        assert len(rules) == sum(3**m for m in range(1, L + 1))
        stay = a.weights[:, :, 0].prod(axis=1).sum()
        for h in range(kg.num_entities):
            got = score_entities(ops, a, [h])[0]
            want = [
                sum(r.confidence * dfs_count_paths(kg, h, r.hops.hops, t) for r in rules)
                + (stay if t == h else 0.0)
                for t in range(kg.num_entities)
            ]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestExtractRules:
    def test_top_n_and_descending_confidence(self):
        params = ModelParams(4, rank=2, max_len=2, embed_dim=8, hidden_dim=8, seed=0)
        rules = extract_rules(params, query=1, top_n=3)
        assert len(rules) == 3
        confs = [r.confidence for r in rules]
        assert confs == sorted(confs, reverse=True)
        for r in rules:
            assert r.predicate == 1
            assert all(h >= 0 for h in r.hops.hops)

    def test_total_confidence_bounded_by_rank(self):
        # the collapsed confidences partition the (P+1)^L product mass
        params = ModelParams(3, rank=3, max_len=2, embed_dim=6, hidden_dim=6, seed=4)
        rules = extract_rules(params, query=0, top_n=100)
        total = sum(r.confidence for r in rules)
        assert total <= 3.0 + 1e-9

    @pytest.mark.parametrize("top_n", [0, -1, -5])
    def test_top_n_below_one_gives_no_rules(self, top_n):
        # 3 predicates at L = 2 have 12 rules; a negative slice once kept 12 + top_n
        params = ModelParams(3, rank=2, max_len=2, embed_dim=6, hidden_dim=6, seed=1)
        assert len(extract_rules(params, query=0, top_n=100)) == 12
        assert extract_rules(params, query=0, top_n=top_n) == []
        a = mplr.model.attention_forward(params, 0)
        assert rules_from_attention(a, query=0, top_n=top_n) == []

    def test_renderers(self, toy_kg):
        params = ModelParams(
            toy_kg.num_predicates, rank=1, max_len=2, embed_dim=6, hidden_dim=6, seed=2
        )
        rules = extract_rules(params, query=0, top_n=4)
        tsv = rules_tsv(rules, toy_kg)
        assert tsv.startswith("rule\tpredicate\tconfidence")
        table = rules_table(rules, toy_kg)
        assert "=> daughterOf" in table
        assert rules_table([], toy_kg) == "(no rules)\n"
