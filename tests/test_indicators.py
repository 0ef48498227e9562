import itertools
import logging
import tracemalloc

import numpy as np
import pytest

import mplr.indicators
from mplr.kg import KnowledgeGraph
from mplr.operators import OperatorSet, RulePattern, build_operators
from mplr.indicators import (
    BACKWARD,
    FORWARD,
    CostBudgetError,
    EmptySubgraphError,
    bifurcation,
    bifurcation_table,
    estimate_cost,
    sample_subgraph,
    saturation_report,
    saturation_table,
    saturation_tsv,
    bifurcation_tsv,
    _saturation_scan,
)

from conftest import (
    adjacency_reference,
    bw_degree,
    comprehensive_saturation,
    dense_scan,
    dfs_count_paths,
    fw_degree,
    macro_saturation,
    make_family_triples,
    micro_saturation,
    pattern_table,
    random_kg,
    saturation_scan_reference,
)


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

    @pytest.mark.parametrize("exclude", [True, False])
    @pytest.mark.parametrize("max_len", [2, 3, 4])
    def test_scan_does_not_depend_on_chunk_size(self, monkeypatch, max_len, exclude):
        kg = random_kg(2, num_entities=7, num_predicates=3, edge_prob=0.3)
        assert any(h == t for h, _, t in kg.triples)  # self-loops
        assert len({(h, t) for h, _, t in kg.triples}) < len(kg.triples)  # parallel
        active = list(range(kg.num_predicates))
        assert all(kg.num_edges(q) > 0 for q in active)
        ops = OperatorSet(kg)
        expected = _saturation_scan(kg, ops, max_len, active, exclude)
        for chunk in (1, 2, 5):
            monkeypatch.setattr(mplr.indicators, "SCAN_CHUNK", chunk)
            got = _saturation_scan(kg, ops, max_len, active, exclude)
            for want, have in zip(expected, got, strict=True):
                assert np.array_equal(want, have)

    @pytest.mark.parametrize("chunk", [1, 2, 5, None], ids=["1", "2", "5", "default"])
    @pytest.mark.parametrize("exclude", [True, False])
    @pytest.mark.parametrize("max_len", [2, 3, 4])
    def test_scan_matches_forward_walk_bit_for_bit(
        self, monkeypatch, max_len, exclude, chunk
    ):
        if chunk is not None:
            monkeypatch.setattr(mplr.indicators, "SCAN_CHUNK", chunk)
        loops = parallel = False
        for seed in range(15):
            kg = random_kg(seed, num_entities=6 + seed % 3, num_predicates=2 + seed % 3,
                           edge_prob=0.3)
            loops |= any(h == t for h, _, t in kg.triples)
            parallel |= len({(h, t) for h, _, t in kg.triples}) < len(kg.triples)
            ops = OperatorSet(kg)
            for active in ([q for q in range(kg.num_predicates) if kg.num_edges(q)],
                           [kg.triples[0][1]]):
                want = saturation_scan_reference(kg, ops, max_len, active, exclude)
                got = dense_scan(kg, ops, max_len, active, exclude)
                for a, b in zip(want, got, strict=True):
                    assert np.array_equal(a, b)
        assert loops and parallel

    @pytest.mark.parametrize("exclude", [True, False])
    @pytest.mark.parametrize("max_len", [2, 3])
    def test_family_scan_matches_forward_walk_bit_for_bit(
        self, family_data, max_len, exclude
    ):
        kg, _, _ = family_data
        ops = OperatorSet(kg)
        active = list(range(kg.num_predicates))
        want = saturation_scan_reference(kg, ops, max_len, active, exclude)
        got = dense_scan(kg, ops, max_len, active, exclude)
        for a, b in zip(want, got, strict=True):
            assert np.array_equal(a, b)


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

    def test_matches_degree_counts(self):
        for seed in range(5):
            kg = random_kg(seed, num_entities=10, num_predicates=3, edge_prob=0.3)
            out, into = adjacency_reference(kg)
            for q in range(kg.num_predicates):
                if kg.num_edges(q) == 0:
                    continue
                for direction, ends, degree in ((FORWARD, out[q], fw_degree),
                                                (BACKWARD, into[q], bw_degree)):
                    degs = [degree(kg, q, v) for v in ends]
                    rec = bifurcation(kg, q, direction, lambda_max=6)
                    assert rec.proportions == {
                        lam: sum(d >= lam for d in degs) / len(degs)
                        for lam in range(1, 7)
                    }

    def test_profile_equals_independent_degree_count(self):
        # lambda_max 1, 0 (an empty profile) and above every degree
        for seed in range(6):
            kg = random_kg(seed, num_entities=9, num_predicates=3, edge_prob=0.35)
            for q in range(kg.num_predicates):
                if kg.num_edges(q) == 0:
                    continue
                for direction, degree in ((FORWARD, fw_degree), (BACKWARD, bw_degree)):
                    degs = [degree(kg, q, v) for v in range(kg.num_entities)]
                    degs = [d for d in degs if d]
                    for lambda_max in (1, 0, max(degs) + 3):
                        rec = bifurcation(kg, q, direction, lambda_max)
                        assert rec.proportions == {
                            lam: sum(d >= lam for d in degs) / len(degs)
                            for lam in range(1, lambda_max + 1)
                        }
                    assert bifurcation(kg, q, direction, 0).proportions == {}

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

    @pytest.mark.parametrize("max_len", [2, 3])
    @pytest.mark.parametrize("top_n", [1, 3, 8, 50])
    def test_records_are_the_best_rows_of_the_scan(self, max_len, top_n):
        # every row of the scan sorted by eta, then gamma, both descending,
        # then hop tuple, a prefix before its extensions; sparse graphs leave
        # most patterns at 0, so the zero rows fill many of the cuts; seeds
        # 65, 90, 96 and 110 tie two patterns on eta but not on gamma
        for seed in (*range(8), 65, 90, 96, 110):
            kg = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.15)
            active = [q for q in range(kg.num_predicates) if kg.num_edges(q)]
            gamma, delta = dense_scan(kg, OperatorSet(kg), max_len, active, True)
            eta = gamma * delta
            table = pattern_table(kg.num_predicates, 2, max_len)
            want = []
            for s, q in enumerate(active):
                best = sorted(range(len(table)),
                              key=lambda i: (-eta[i, s], -gamma[i, s], tuple(table[i])))
                want += [(tuple(int(p) for p in table[i] if p >= 0), q, gamma[i, s],
                          delta[i, s], eta[i, s]) for i in best[:top_n]]
            got = saturation_report(kg, max_len=max_len, top_n=top_n)
            assert [(r.pattern.hops, r.predicate, r.gamma, r.delta, r.eta)
                    for r in got] == want

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

    def test_repeated_predicate_reported_once(self, family_data):
        kg, _, _ = family_data
        once = saturation_report(kg, max_len=2, top_n=2, predicates=[2])
        assert saturation_report(kg, max_len=2, top_n=2, predicates=[2, 2]) == once

    def test_family_scan_memory_is_bounded(self):
        triples = make_family_triples(num_clans=250)
        entities = list(dict.fromkeys(e for h, _, t in triples for e in (h, t)))
        predicates = list(dict.fromkeys(r for _, r, _ in triples))
        e_id = {e: i for i, e in enumerate(entities)}
        p_id = {p: i for i, p in enumerate(predicates)}
        kg = KnowledgeGraph(
            entities, predicates, [(e_id[h], p_id[r], e_id[t]) for h, r, t in triples]
        )
        assert len(kg.triples) == 15886
        tracemalloc.start()
        try:
            assert saturation_report(kg, max_len=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_hub_scan_memory_is_bounded(self):
        # one hub on every length-2 path: (i, p0, hub) and (hub, p1, j) for
        # every other entity; a forward walk expands all the hub's out-edges
        # for every scanned triplet
        n, hub = 3000, 0
        others = range(1, n)
        triples = [(i, 0, hub) for i in others] + [(hub, 1, j) for j in others]
        rng = np.random.default_rng(0)
        pairs = rng.choice(np.arange(1, n), size=(500, 2))
        triples += sorted({(int(a), 2, int(b)) for a, b in pairs})
        kg = KnowledgeGraph([f"e{i}" for i in range(n)], ["p0", "p1", "q"], triples)
        assert kg.num_edges(2) == 500
        tracemalloc.start()
        try:
            records = saturation_report(kg, max_len=2, predicates=[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records[0].pattern.hops == (0, 1) and records[0].gamma == 1.0
        assert peak <= 5e6

    def test_scan_memory_follows_what_the_scan_finds(self):
        # 150 predicates at L = 3 are 150**2 + 150**3 = 3.4M pattern rows, and
        # one dense float64 column over them is 27 MB; on this sparse graph
        # the scanned predicate's triplets meet few of those patterns
        kg = random_kg(0, num_entities=100, num_predicates=150, edge_prob=0.002)
        q = max(range(kg.num_predicates), key=kg.num_edges)
        tracemalloc.start()
        try:
            records = saturation_report(kg, max_len=3, predicates=[q])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 5 and records[0].gamma > 0
        assert peak < 10e6

    @pytest.mark.parametrize("call, index", [
        (lambda kg: saturation_report(kg, predicates=[5]), 5),
        (lambda kg: estimate_cost(kg, 2, [7]), 7),
        (lambda kg: bifurcation(kg, -1), -1),
    ], ids=["saturation_report", "estimate_cost", "bifurcation"])
    def test_out_of_range_predicate_is_refused(self, toy_kg, call, index):
        with pytest.raises(ValueError,
                           match=rf"^predicate index {index} out of range: .* 0\.\.2$"):
            call(toy_kg)

    @pytest.mark.parametrize("max_len", [1, 0])
    def test_max_len_below_two_is_refused(self, toy_kg, max_len):
        # patterns have two or more hops; the scan used to fail while joining
        with pytest.raises(ValueError, match=rf"^max_len must be at least 2 .* {max_len}$"):
            saturation_report(toy_kg, max_len=max_len)

    def test_second_report_builds_no_operators(self, monkeypatch):
        kg = random_kg(3, num_entities=8, num_predicates=3, edge_prob=0.3)
        built = []
        init = OperatorSet.__init__

        def counting_init(self, graph):
            built.append(graph)
            init(self, graph)

        monkeypatch.setattr(OperatorSet, "__init__", counting_init)
        first = saturation_report(kg, max_len=3)
        assert built == [kg]
        assert saturation_report(kg, max_len=3) == first
        assert build_operators(kg) is kg.operators
        assert built == [kg]

    def test_empty_predicate_warned_and_skipped(self, caplog):
        kg = KnowledgeGraph(["a", "b"], ["r", "unused"], [(0, 0, 1)])
        with caplog.at_level(logging.WARNING):
            records = saturation_report(kg, max_len=2, top_n=2)
        assert "unused" in caplog.text
        assert all(r.predicate == 0 for r in records)

    def test_nothing_to_report_gives_no_records(self, caplog):
        kg = KnowledgeGraph(["a", "b"], ["r", "unused"], [(0, 0, 1)])
        assert saturation_report(kg, max_len=2, top_n=0) == []
        with caplog.at_level(logging.WARNING):
            assert saturation_report(kg, max_len=2, predicates=[1]) == []
        assert "unused" in caplog.text

    def test_budget_gate(self, family_data):
        kg, _, _ = family_data
        assert estimate_cost(kg, 2) > 0
        with pytest.raises(CostBudgetError):
            saturation_report(kg, max_len=2, budget=1.0)
        with pytest.raises(ValueError, match="nan"):
            saturation_report(kg, max_len=2, budget=float("nan"))

    def test_cost_counts_scanned_predicates(self, family_data):
        kg, _, _ = family_data
        P = kg.num_predicates
        assert estimate_cost(kg, 2) == P**2 * len(kg.triples)
        assert estimate_cost(kg, 3, [0, 1]) == (P**2 + P**3) * (
            kg.num_edges(0) + kg.num_edges(1)
        )
        budget = estimate_cost(kg, 2, [0])
        assert saturation_report(kg, max_len=2, budget=budget, predicates=[0])
        with pytest.raises(CostBudgetError):
            saturation_report(kg, max_len=2, budget=budget, predicates=[0, 1])

    def test_renderers(self, family_data):
        kg, _, _ = family_data
        records = saturation_report(kg, max_len=2, top_n=2)
        tsv = saturation_tsv(records, kg)
        assert tsv.startswith("pattern\tpredicate")
        assert len(tsv.strip().splitlines()) == len(records) + 1
        for r, line in zip(records, tsv.splitlines()[1:], strict=True):
            assert [float(x) for x in line.split("\t")[2:]] == [r.gamma, r.delta, r.eta]
        table = saturation_table(records, kg)
        assert "gamma=" in table
        recs = [bifurcation(kg, 0, FORWARD, 3)]
        assert "predicate\tdirection" in bifurcation_tsv(recs, kg)

    def test_renderers_of_no_records(self, toy_kg):
        assert saturation_table([], toy_kg) == "(no saturation records)\n"
        assert bifurcation_table([], toy_kg) == "(no bifurcation records)\n"
