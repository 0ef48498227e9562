import itertools

import numpy as np
import pytest

from mplr.kg import KnowledgeGraph
from mplr.operators import (
    IDENTITY_OP,
    OperatorSet,
    RulePattern,
    build_operators,
    count_paths,
    pattern_rows,
    top_patterns,
)

from conftest import (
    dense_scan,
    dfs_count_paths,
    edge_list_reference,
    enumerate_patterns,
    operator_matrix,
    operators_of,
    pattern_table,
    propagate,
    random_kg,
)


@pytest.fixture
def toy_ops(toy_kg):
    return build_operators(toy_kg)


def toy_expected_daughter_matrix(kg):
    m = np.zeros((6, 6))
    e = kg.entity_index
    for h, t in [("z1", "x1"), ("z2", "x1"), ("z4", "x2")]:
        m[e[h], e[t]] = 1.0
    return m


class TestBuildOperators:
    def test_identity_at_index_zero(self, toy_kg, toy_ops):
        assert len(toy_ops) == toy_kg.num_predicates + 1
        ident = operators_of(toy_ops)[IDENTITY_OP]
        assert ident.predicate == IDENTITY_OP
        assert np.array_equal(ident.matrix.toarray(), np.eye(6))

    def test_toy_daughter_matrix_exact(self, toy_kg, toy_ops):
        p = toy_kg.predicate_index["daughterOf"]
        got = toy_ops.predicate_matrix(p).toarray()
        assert np.array_equal(got, toy_expected_daughter_matrix(toy_kg))

    def test_entries_binary_and_counts(self, toy_kg, toy_ops):
        for p in range(toy_kg.num_predicates):
            m = toy_ops.predicate_matrix(p)
            assert set(np.unique(m.toarray())) <= {0.0, 1.0}
            assert m.nnz == toy_kg.num_edges(p)

    def test_zero_triple_predicate_is_all_zero(self):
        from mplr.kg import KnowledgeGraph

        kg = KnowledgeGraph(["a", "b"], ["r", "empty"], [(0, 0, 1)])
        ops = build_operators(kg)
        assert ops.predicate_matrix(1).nnz == 0

    def test_nonzeros_sum_to_triple_count(self, family_data):
        kg, _, _ = family_data
        ops = build_operators(kg)
        total = sum(ops.predicate_matrix(p).nnz for p in range(kg.num_predicates))
        assert total == len(kg.triples)


class TestSharedOperatorSet:
    def test_one_set_per_graph(self, toy_kg):
        ops = build_operators(toy_kg)
        assert build_operators(toy_kg) is ops
        assert toy_kg.operators is ops
        pattern = RulePattern((0, 1))
        assert count_paths(toy_kg, 0, pattern, 1) == count_paths(ops, 0, pattern, 1)
        assert toy_kg.operators is ops

    def test_arrays_are_read_only(self, toy_kg):
        ops = build_operators(toy_kg)
        arrays = (*ops.edges, ops.indptr, *ops._in_edges, ops._in_indptr)
        assert len(arrays) == 7
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                a += 1


class TestEdgeList:
    def test_out_edges_match_matrices(self):
        for seed in range(4):
            kg = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.3)
            ops = build_operators(kg)
            entities = np.array([3, 0, 3, 6, 5])
            owner, cols, op = ops.out_edges(entities)
            got = sorted(zip(owner.tolist(), cols.tolist(), op.tolist()))
            want = sorted(
                (n, int(j), k)
                for n, e in enumerate(entities)
                for k in range(len(ops))
                for j in np.flatnonzero(operator_matrix(ops, k).toarray()[e])
            )
            assert got == want

    @staticmethod
    def assert_matches_reference(kg):
        ops = build_operators(kg)
        want = edge_list_reference(kg)
        for got, ref in zip(ops.edges, want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
        assert np.array_equal(
            ops.indptr, np.searchsorted(want[0], np.arange(kg.num_entities + 1))
        )

    def test_edges_match_csr_reference_on_random_graphs(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, P = int(rng.integers(1, 10)), int(rng.integers(1, 5))
            triples = {
                (int(h), int(p), int(h if seed % 3 == 0 else t))  # self-loops
                for h, t in rng.integers(n, size=(int(rng.integers(0, 3 * n)), 2))
                # one (h, t) pair under several predicates; the last stays empty
                for p in rng.choice(P, size=int(rng.integers(1, P + 1)), replace=False)
                if p < P - 1 or seed % 2
            }
            triples = sorted(triples)
            rng.shuffle(triples)
            # entity n has no edge
            kg = KnowledgeGraph([f"e{i}" for i in range(n + 1)],
                                [f"p{i}" for i in range(P)], triples)
            self.assert_matches_reference(kg)

    def test_edges_match_csr_reference_on_edge_cases(self, family_data):
        shared = KnowledgeGraph(
            ["a", "b", "c", "isolated"], ["r", "s", "t", "empty"],
            [(2, 1, 0), (0, 0, 1), (0, 0, 0), (0, 2, 1), (1, 2, 2), (0, 1, 1)],
        )
        no_triples = KnowledgeGraph(["a", "b"], ["r"], [])
        no_entities = KnowledgeGraph([], ["r"], [])
        for kg in (shared, no_triples, no_entities, family_data[0]):
            self.assert_matches_reference(kg)

    def test_no_entities_no_edges(self, toy_ops):
        owner, cols, op = toy_ops.out_edges(np.zeros(0, dtype=np.int64))
        assert len(owner) == len(cols) == len(op) == 0
        owner, rows, op = toy_ops.in_edges(np.zeros(0, dtype=np.int64))
        assert len(owner) == len(rows) == len(op) == 0

    @staticmethod
    def listed(ops, entities, excluded=None):
        """(src, op, dst) of out_edges and of in_edges over `entities`, per entity."""
        entities = np.asarray(entities)
        owner, cols, op = ops.out_edges(entities, excluded)
        out = [(n, (int(entities[n]), int(o), int(c))) for n, c, o in zip(owner, cols, op)]
        owner, rows, op = ops.in_edges(entities, excluded)
        into = [(n, (int(r), int(o), int(entities[n]))) for n, r, o in zip(owner, rows, op)]
        return sorted(out), sorted(into)

    def test_in_edges_list_the_out_edges(self):
        for seed in range(12):
            kg = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.3)
            ops = build_operators(kg)
            out, into = self.listed(ops, np.arange(kg.num_entities))
            out, into = sorted(e for _, e in out), sorted(e for _, e in into)
            assert out == into
            loops = [(e, 0, e) for e in range(kg.num_entities)]
            triples = [(h, p + 1, t) for h, p, t in kg.triples]
            assert out == sorted(loops + triples)
            # each entity owns its in-edges, in column order
            owner, rows, op = ops.in_edges(np.arange(kg.num_entities))
            assert np.all(np.diff(owner) >= 0)
            # identity=False leaves out exactly the identity loops, both ways
            entities = np.array([3, 0, 3, 6, 5])
            for edges_of in (ops.out_edges, ops.in_edges):
                every = list(zip(*(a.tolist() for a in edges_of(entities))))
                loops = [(n, e, 0) for n, e in enumerate(entities.tolist())]
                some = list(zip(*(a.tolist() for a in edges_of(entities, identity=False))))
                assert sorted(some + loops) == sorted(every)

    def test_each_side_drops_exactly_the_excluded_edge(self):
        for seed in range(6):
            kg = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.3)
            ops = build_operators(kg)
            rng = np.random.default_rng(seed)
            present = [(h, p + 1, t) for h, p, t in kg.triples] + [(3, 0, 3)]
            absent = [(h, o, t) for h, o, t in itertools.product(range(7), range(4), range(7))
                      if (h, o, t) not in present and (o > 0 or h != t)]
            picks = [present[i] for i in rng.choice(len(present), 5, replace=False)]
            picks += [absent[i] for i in rng.choice(len(absent), 3, replace=False)]
            picks += [(2, -1, 2)]  # operator -1 drops nothing
            for h, o, t in picks:
                # the same exclusion on the head side and on the tail side
                for entity in (h, t):
                    full = self.listed(ops, [entity])
                    dropped = self.listed(ops, [entity], ([h], [o], [t]))
                    for all_edges, kept in zip(full, dropped):
                        gone = set(all_edges) - set(kept)
                        assert set(kept) <= set(all_edges)
                        side = [e for _, e in all_edges]
                        assert gone == ({(0, (h, o, t))} if (h, o, t) in side else set())
            # exclusions are per listed entity, not per distinct entity
            h, o, t = present[0]
            into = self.listed(ops, [t, t], ([h, h], [o, -1], [t, t]))[1]
            assert (0, (h, o, t)) not in into and (1, (h, o, t)) in into


class TestPropagate:
    def test_product_row_matches_worked_example(self, toy_kg, toy_ops):
        e = toy_kg.entity_index
        s_idx = toy_kg.predicate_index["sisterOf"]
        d_idx = toy_kg.predicate_index["daughterOf"]
        v = np.zeros(6)
        v[e["z1"]] = 1.0
        ops = operators_of(toy_ops)
        s = propagate(propagate(v, ops[s_idx + 1]), ops[d_idx + 1])
        expected = np.zeros(6)
        expected[e["x1"]] = 1.0
        expected[e["x2"]] = 1.0
        assert np.array_equal(s, expected)

    def test_identity_preserves_state(self, toy_ops):
        v = np.arange(6, dtype=float)
        assert np.array_equal(propagate(v, operators_of(toy_ops)[IDENTITY_OP]), v)

    def test_zero_state_stays_zero(self, toy_ops):
        for op in operators_of(toy_ops):
            assert not propagate(np.zeros(6), op).any()

    def test_chain_associativity(self):
        for seed in range(8):
            kg = random_kg(seed, num_entities=7, num_predicates=3)
            ops = build_operators(kg)
            rng = np.random.default_rng(seed)
            v = rng.random(7)
            m1 = ops.predicate_matrix(0)
            m2 = ops.predicate_matrix(1)
            left = (v @ m1) @ m2
            right = v @ (m1 @ m2)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_nonnegativity_closure(self):
        kg = random_kg(3, num_entities=7, num_predicates=3)
        ops = build_operators(kg)
        v = np.random.default_rng(0).random(7)
        for op in operators_of(ops):
            assert (propagate(v, op) >= 0).all()


class TestCombine:
    def test_combine_matches_dense_sum(self):
        for seed in range(4):
            kg = random_kg(seed, num_entities=6, num_predicates=3)
            ops = build_operators(kg)
            rng = np.random.default_rng(seed + 100)
            w = rng.random(len(ops))
            dense = sum(
                w[k] * operator_matrix(ops, k).toarray() for k in range(len(ops))
            )
            np.testing.assert_allclose(ops.combine(w).toarray(), dense, atol=1e-12)
            np.testing.assert_allclose(
                ops.combine_t(w).toarray(), dense.T, atol=1e-12
            )

    def test_combine_rejects_bad_shape(self, toy_ops):
        with pytest.raises(ValueError, match="operator weights"):
            toy_ops.combine(np.ones(2))


class TestCountPaths:
    def test_worked_example(self, toy_kg, toy_ops):
        e = toy_kg.entity_index
        pattern = RulePattern(
            (toy_kg.predicate_index["sisterOf"], toy_kg.predicate_index["daughterOf"])
        )
        assert count_paths(toy_ops, e["z1"], pattern, e["x1"]) == 1

    def test_empty_predicate_gives_zero(self):
        from mplr.kg import KnowledgeGraph

        kg = KnowledgeGraph(["a", "b"], ["r", "empty"], [(0, 0, 1)])
        assert count_paths(kg, 0, RulePattern((1, 0)), 1) == 0

    def test_accepts_knowledge_graph(self, toy_kg):
        e = toy_kg.entity_index
        pattern = RulePattern(
            (toy_kg.predicate_index["sisterOf"], toy_kg.predicate_index["daughterOf"])
        )
        assert count_paths(toy_kg, e["z1"], pattern, e["x1"]) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dfs_enumeration(self, seed):
        kg = random_kg(seed, num_entities=8, num_predicates=3, edge_prob=0.22)
        ops = build_operators(kg)
        for length in (1, 2, 3):
            for hops in itertools.product(range(3), repeat=length):
                pattern = RulePattern(hops)
                for h in range(0, 8, 3):
                    for t in range(0, 8, 2):
                        assert count_paths(ops, h, pattern, t) == dfs_count_paths(
                            kg, h, hops, t
                        )

    def test_length_four_chain_product_equivalence(self):
        kg = random_kg(2, num_entities=6, num_predicates=2, edge_prob=0.3)
        ops = build_operators(kg)
        for hops in itertools.product(range(2), repeat=4):
            chain = ops.predicate_matrix(hops[0])
            for p in hops[1:]:
                chain = chain @ ops.predicate_matrix(p)
            for h in range(6):
                for t in range(6):
                    assert count_paths(ops, h, RulePattern(hops), t) == int(
                        chain[h, t]
                    )

    @pytest.mark.parametrize("seed", range(4))
    def test_exclusion_matches_dfs(self, seed):
        kg = random_kg(seed, num_entities=7, num_predicates=2, edge_prob=0.3)
        ops = build_operators(kg)
        for h, q, t in kg.triples[::3]:
            for hops in itertools.product(range(2), repeat=2):
                excl = (h, q, t)
                assert count_paths(
                    ops, h, RulePattern(hops), t, excluded_edge=excl
                ) == dfs_count_paths(kg, h, hops, t, excluded_edge=excl)

    def test_absent_excluded_edge_is_noop(self, toy_kg, toy_ops):
        e = toy_kg.entity_index
        pattern = RulePattern(
            (toy_kg.predicate_index["sisterOf"], toy_kg.predicate_index["daughterOf"])
        )
        # (z1, daughterOf, x2) is not a triple; excluding it must change nothing
        q = toy_kg.predicate_index["daughterOf"]
        assert (
            count_paths(toy_ops, e["z1"], pattern, e["x1"], excluded_edge=(e["z1"], q, e["x2"]))
            == 1
        )


class TestEnumeratePatterns:
    def test_two_predicates_length_two(self):
        assert len(list(enumerate_patterns(2, 2, 2))) == 4

    def test_twelve_predicates_length_two(self):
        pats = list(enumerate_patterns(12, 2, 2))
        assert len(pats) == 144
        assert len(set(p.hops for p in pats)) == 144

    def test_geometric_count_lengths_two_to_three(self):
        assert len(list(enumerate_patterns(3, 2, 3))) == 9 + 27

    def test_order_shorter_first_then_lexicographic(self):
        pats = [p.hops for p in enumerate_patterns(2, 1, 2)]
        assert pats == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_saturation_scan_follows_the_order(self):
        kg = random_kg(1, num_entities=6, num_predicates=3, edge_prob=0.3)
        gamma, _ = dense_scan(kg, build_operators(kg), 3, [0], True)
        # row i is the share of the predicate's triplets that the i-th
        # pattern links by DFS, its own edge excluded
        triplets = [tr for tr in kg.triples if tr[1] == 0]
        patterns = list(enumerate_patterns(3, 2, 3))
        assert gamma.shape == (len(patterns), 1)
        for i, p in enumerate(patterns):
            linked = sum(dfs_count_paths(kg, h, p.hops, t, excluded_edge=(h, q, t)) > 0
                         for h, q, t in triplets)
            assert gamma[i, 0] == linked / len(triplets), p.hops
        # the order reference: the rows `pattern_rows` decodes for the scan
        # and for rule extraction
        for min_len in (1, 2):
            table = pattern_table(3, min_len, 3)
            assert table.shape == (sum(3**m for m in range(min_len, 4)), 3)
            rows = [tuple(int(p) for p in row if p >= 0) for row in table]
            assert rows == [p.hops for p in enumerate_patterns(3, min_len, 3)]
            # the -1 padding sits after the hops only
            assert all((row[len(hops):] == -1).all() for row, hops in zip(table, rows))

    def test_pattern_rows_decode_the_table(self):
        rng = np.random.default_rng(3)
        for min_len in (1, 2):
            table = pattern_table(4, min_len, 3)
            every = np.arange(len(table))
            assert np.array_equal(pattern_rows(4, min_len, 3, every), table)
            rows = rng.permutation(every)[:20]
            assert np.array_equal(pattern_rows(4, min_len, 3, rows), table[rows])
            assert pattern_rows(4, min_len, 3, []).shape == (0, 3)

    def test_top_patterns_breaks_ties_by_hop_tuple(self):
        table = pattern_table(2, 1, 2)  # (0,) (1,) (0, 0) (0, 1) (1, 0) (1, 1)
        first = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
        second = np.array([0.0, 1.0, 1.0, 0.0, 3.0, 0.0])
        # (0, 0) before (1,) on a full tie; (0,) before its extension (0, 1)
        assert list(top_patterns(table, (first, second), 6)) == [4, 2, 1, 0, 3, 5]
        assert list(top_patterns(table, (first, second), 2)) == [4, 2]
        assert list(top_patterns(table, (second,), 3)) == [4, 2, 1]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            list(enumerate_patterns(2, 3, 2))

    def test_pattern_names_and_label(self, toy_kg):
        pattern = RulePattern((1, 0))
        assert pattern.names(toy_kg) == ("sisterOf", "daughterOf")
        assert pattern.label(toy_kg) == "sisterOf & daughterOf"
        with pytest.raises(ValueError, match="empty rule pattern"):
            RulePattern(())
