import itertools
import logging

import numpy as np
import pytest

from mplr.kg import KnowledgeGraph
from mplr.operators import RulePattern, build_operators
from mplr.indicators import (
    BACKWARD,
    FORWARD,
    CostBudgetError,
    EmptySubgraphError,
    bifurcation,
    comprehensive_saturation,
    estimate_cost,
    macro_saturation,
    micro_saturation,
    sample_subgraph,
    saturation_report,
    saturation_table,
    saturation_tsv,
    bifurcation_tsv,
)

from conftest import dfs_count_paths, random_kg


def chain_kg():
    """h --p1--> z --p2--> t plus the explained edge h --q--> t."""
    return KnowledgeGraph(
        ["h", "z", "t"], ["p1", "p2", "q"], [(0, 0, 1), (1, 1, 2), (0, 2, 2)]
    )


def oracle_saturations(kg, q, max_len, exclude):
    """DFS-based gamma/delta for every pattern (independent of the library path)."""
    triplets = [tri for tri in kg.triples if tri[1] == q]
    patterns = [
        hops
        for length in range(2, max_len + 1)
        for hops in itertools.product(range(kg.num_predicates), repeat=length)
    ]
    counts = {
        hops: [
            dfs_count_paths(
                kg, h, hops, t, excluded_edge=(h, q, t) if exclude else None
            )
            for h, _, t in triplets
        ]
        for hops in patterns
    }
    totals = [sum(counts[hops][i] for hops in patterns) for i in range(len(triplets))]
    result = {}
    for hops in patterns:
        c = counts[hops]
        gamma = sum(1 for x in c if x > 0) / len(triplets)
        delta = sum(
            (c[i] / totals[i]) if totals[i] > 0 else 0.0 for i in range(len(triplets))
        ) / len(triplets)
        result[hops] = (gamma, delta)
    return result


class TestSaturation:
    def test_chain_macro_is_one(self):
        kg = chain_kg()
        assert macro_saturation(kg, RulePattern((0, 1)), 2) == 1.0

    def test_chain_micro_is_one(self):
        kg = chain_kg()
        assert micro_saturation(kg, RulePattern((0, 1)), 2, max_len=2) == 1.0

    def test_pattern_with_no_instances(self):
        kg = chain_kg()
        assert macro_saturation(kg, RulePattern((1, 0)), 2) == 0.0
        assert micro_saturation(kg, RulePattern((1, 0)), 2, max_len=2) == 0.0

    def test_empty_subgraph_raises(self):
        kg = KnowledgeGraph(["a", "b"], ["r", "unused"], [(0, 0, 1)])
        with pytest.raises(EmptySubgraphError):
            macro_saturation(kg, RulePattern((0, 0)), 1)
        with pytest.raises(EmptySubgraphError):
            micro_saturation(kg, RulePattern((0, 0)), 1, max_len=2)
        with pytest.raises(EmptySubgraphError):
            bifurcation(kg, 1)

    def test_pattern_longer_than_cap_rejected(self):
        kg = chain_kg()
        with pytest.raises(ValueError, match="exceeds max_len"):
            micro_saturation(kg, RulePattern((0, 1, 0)), 2, max_len=2)

    @pytest.mark.parametrize("exclude", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dfs_oracle_length_two(self, seed, exclude):
        kg = random_kg(seed, num_entities=9, num_predicates=3, edge_prob=0.2)
        # add a self-loop so the exclusion corrections are actually exercised
        q = kg.triples[0][1]
        expected = oracle_saturations(kg, q, 2, exclude)
        for hops, (gamma, delta) in expected.items():
            got_g = macro_saturation(
                kg, RulePattern(hops), q, exclude_direct_edge=exclude
            )
            got_d = micro_saturation(
                kg, RulePattern(hops), q, max_len=2, exclude_direct_edge=exclude
            )
            assert got_g == pytest.approx(gamma, abs=1e-12)
            assert got_d == pytest.approx(delta, abs=1e-12)

    def test_matches_dfs_oracle_with_self_loops(self):
        # self-loops make the closed-form exclusion corrections non-trivial
        kg = KnowledgeGraph(
            ["a", "b", "c"],
            ["q", "r"],
            [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 0, 0), (0, 1, 2), (2, 0, 1)],
        )
        for exclude in (True, False):
            expected = oracle_saturations(kg, 0, 2, exclude)
            for hops, (gamma, delta) in expected.items():
                assert macro_saturation(
                    kg, RulePattern(hops), 0, exclude_direct_edge=exclude
                ) == pytest.approx(gamma, abs=1e-12)
                assert micro_saturation(
                    kg, RulePattern(hops), 0, max_len=2, exclude_direct_edge=exclude
                ) == pytest.approx(delta, abs=1e-12)

    @pytest.mark.parametrize("exclude", [True, False])
    def test_matches_dfs_oracle_length_three(self, exclude):
        # lengths 3 and 4: with two predicates q recurs at several hops
        for seed, max_len in ((11, 3), (11, 4), (3, 4)):
            kg = random_kg(seed, num_entities=6, num_predicates=2, edge_prob=0.3)
            q = kg.triples[0][1]
            expected = oracle_saturations(kg, q, max_len, exclude)
            for hops, (gamma, delta) in expected.items():
                assert macro_saturation(
                    kg, RulePattern(hops), q, exclude_direct_edge=exclude
                ) == pytest.approx(gamma, abs=1e-12)
                assert micro_saturation(
                    kg, RulePattern(hops), q, max_len=max_len,
                    exclude_direct_edge=exclude,
                ) == pytest.approx(delta, abs=1e-12)

    def test_matches_dfs_oracle_length_three_with_self_loops(self):
        # paths that take the removed edge at two q-hops: a -q-> b -q-> a -q-> b
        # returns along b -q-> a in between, and a -q-> a -q-> a -r-> a uses
        # the self-loop twice before a hop that is not q
        kg = KnowledgeGraph(
            ["a", "b", "c"],
            ["q", "r"],
            [(0, 0, 1), (1, 0, 0), (0, 0, 0), (1, 0, 1), (0, 1, 2), (2, 1, 1),
             (2, 0, 2), (0, 1, 0)],
        )
        for exclude in (True, False):
            expected = oracle_saturations(kg, 0, 3, exclude)
            for hops, (gamma, delta) in expected.items():
                assert macro_saturation(
                    kg, RulePattern(hops), 0, exclude_direct_edge=exclude
                ) == pytest.approx(gamma, abs=1e-12)
                assert micro_saturation(
                    kg, RulePattern(hops), 0, max_len=3, exclude_direct_edge=exclude
                ) == pytest.approx(delta, abs=1e-12)

    def test_micro_shares_sum_to_explained_fraction(self):
        kg = random_kg(5, num_entities=8, num_predicates=3, edge_prob=0.25)
        q = kg.triples[0][1]
        triplets = [tri for tri in kg.triples if tri[1] == q]
        explained = sum(
            1
            for h, _, t in triplets
            if any(
                dfs_count_paths(kg, h, hops, t, excluded_edge=(h, q, t)) > 0
                for hops in itertools.product(range(3), repeat=2)
            )
        ) / len(triplets)
        total_micro = sum(
            micro_saturation(kg, RulePattern(hops), q, max_len=2)
            for hops in itertools.product(range(3), repeat=2)
        )
        assert total_micro == pytest.approx(explained, abs=1e-9)


class TestComprehensive:
    def test_table_values(self):
        assert comprehensive_saturation(0.47, 0.35) == pytest.approx(0.1645)
        assert comprehensive_saturation(1.0, 0.34) == pytest.approx(0.34)

    def test_zero_absorbs(self):
        for x in (0.0, 0.3, 1.0):
            assert comprehensive_saturation(x, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            comprehensive_saturation(1.2, 0.5)

    def test_eta_bounds_and_product(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g, d = rng.random(2)
            eta = comprehensive_saturation(g, d)
            assert 0.0 <= eta <= min(g, d)
            assert eta == pytest.approx(g * d)


class TestBifurcation:
    def test_toy_backward(self, toy_kg):
        q = toy_kg.predicate_index["daughterOf"]
        rec = bifurcation(toy_kg, q, BACKWARD, lambda_max=3)
        assert rec.proportions[2] == 0.5

    def test_toy_forward(self, toy_kg):
        q = toy_kg.predicate_index["daughterOf"]
        rec = bifurcation(toy_kg, q, FORWARD, lambda_max=3)
        assert rec.proportions[2] == 0.0

    def test_lambda_one_is_total(self, toy_kg):
        for q in range(toy_kg.num_predicates):
            for direction in (FORWARD, BACKWARD):
                rec = bifurcation(toy_kg, q, direction, lambda_max=4)
                assert rec.proportions[1] == 1.0

    def test_non_increasing(self):
        for seed in range(5):
            kg = random_kg(seed, num_entities=10, num_predicates=3, edge_prob=0.3)
            for q in range(kg.num_predicates):
                if kg.num_edges(q) == 0:
                    continue
                rec = bifurcation(kg, q, FORWARD, lambda_max=6)
                vals = [rec.proportions[lam] for lam in range(1, 7)]
                assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_unknown_direction(self, toy_kg):
        with pytest.raises(ValueError):
            bifurcation(toy_kg, 0, "sideways")


class TestSampling:
    def test_full_sample_is_identity(self, toy_kg):
        sampled = sample_subgraph(toy_kg, 7, len(toy_kg.triples))
        assert sampled.triples == toy_kg.triples
        assert sampled.entities == toy_kg.entities

    def test_same_seed_same_sample(self, family_data):
        kg, _, _ = family_data
        a = sample_subgraph(kg, 42, 50)
        b = sample_subgraph(kg, 42, 50)
        assert a.triples == b.triples

    def test_subset_and_count(self, family_data):
        kg, _, _ = family_data
        sampled = sample_subgraph(kg, 1, 60)
        assert len(sampled.triples) == 60
        parent = set(kg.triples)
        assert all(tri in parent for tri in sampled.triples)
        assert sampled.predicates == kg.predicates

    def test_oversample_rejected(self, toy_kg):
        with pytest.raises(ValueError):
            sample_subgraph(toy_kg, 0, 999)


class TestReport:
    def test_sorted_by_eta_and_top_n(self, family_data):
        kg, _, _ = family_data
        records = saturation_report(kg, max_len=2, top_n=3)
        assert records
        by_pred = {}
        for r in records:
            by_pred.setdefault(r.predicate, []).append(r)
        for q, rows in by_pred.items():
            assert len(rows) <= 3
            etas = [r.eta for r in rows]
            assert etas == sorted(etas, reverse=True)
            for r in rows:
                assert r.eta == pytest.approx(r.gamma * r.delta)
                assert 0 <= r.delta <= 1 and 0 <= r.gamma <= 1

    def test_strong_rule_found_for_wife(self, family_data):
        kg, _, _ = family_data
        q = kg.predicate_index["wifeOf"]
        records = saturation_report(kg, max_len=2, top_n=1, predicates=[q])
        top = records[0]
        names = top.pattern.names(kg)
        assert names in {("motherOf", "sonOf"), ("motherOf", "daughterOf")}
        assert top.gamma > 0.5

    @pytest.mark.parametrize("exclude", [True, False])
    def test_predicate_subset_matches_full_scan(self, exclude):
        kg = random_kg(7, num_entities=8, num_predicates=3, edge_prob=0.3)
        full = saturation_report(kg, max_len=3, top_n=4, exclude_direct_edge=exclude)
        for q in range(kg.num_predicates):
            alone = saturation_report(
                kg, max_len=3, top_n=4, exclude_direct_edge=exclude, predicates=[q]
            )
            assert alone == [r for r in full if r.predicate == q]

    def test_empty_predicate_warned_and_skipped(self, caplog):
        kg = KnowledgeGraph(["a", "b"], ["r", "unused"], [(0, 0, 1)])
        with caplog.at_level(logging.WARNING):
            records = saturation_report(kg, max_len=2, top_n=2)
        assert "unused" in caplog.text
        assert all(r.predicate == 0 for r in records)

    def test_budget_gate(self, family_data):
        kg, _, _ = family_data
        assert estimate_cost(kg, 2) > 0
        with pytest.raises(CostBudgetError):
            saturation_report(kg, max_len=2, budget=1.0)

    def test_renderers(self, family_data):
        kg, _, _ = family_data
        records = saturation_report(kg, max_len=2, top_n=2)
        tsv = saturation_tsv(records, kg)
        assert tsv.startswith("pattern\tpredicate")
        assert len(tsv.strip().splitlines()) == len(records) + 1
        table = saturation_table(records, kg)
        assert "gamma=" in table
        recs = [bifurcation(kg, 0, FORWARD, 3)]
        assert "predicate\tdirection" in bifurcation_tsv(recs, kg)
