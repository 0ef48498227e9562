import itertools
import tracemalloc

import numpy as np
import pytest

from mplr.kg import KnowledgeGraph, MultiTargetQuery, group_queries
from mplr.operators import build_operators
from mplr.model import (
    AttentionTensor,
    ModelParams,
    _BatchForward,
    _attention_forward,
    attention_forward,
    extract_rules,
    load_checkpoint,
    logit_loss,
    logit_loss_grad,
    loss_and_gradients,
    save_checkpoint,
    score_entities,
    softmax,
    support_scores,
)
from mplr.training import evaluate

from conftest import (
    _rank_unroll_reference,
    naive_bernoulli_loss,
    neural_lp_score,
    oracle_scores,
    random_kg,
    recurrence_scores,
    score_query,
)


def one_hot_attention(num_ops, hops):
    """(1, L, K) tensor putting all mass on the given operator index per hop."""
    w = np.zeros((1, len(hops), num_ops))
    for l, k in enumerate(hops):
        w[0, l, k] = 1.0
    return AttentionTensor(w)


@pytest.fixture
def toy(toy_kg):
    return toy_kg, build_operators(toy_kg)


class TestAttention:
    def test_slices_are_distributions(self):
        params = ModelParams(5, rank=3, max_len=2, embed_dim=8, hidden_dim=8, seed=3)
        attn = attention_forward(params, 2)
        assert attn.weights.shape == (3, 2, 6)
        np.testing.assert_allclose(attn.weights.sum(axis=2), 1.0, atol=1e-6)
        assert (attn.weights >= 0).all()

    def test_zero_projection_gives_uniform(self):
        params = ModelParams(4, rank=2, max_len=2, embed_dim=6, hidden_dim=6, seed=0)
        params.tensors["proj_W"][:] = 0.0
        params.tensors["proj_b"][:] = 0.0
        attn = attention_forward(params, 1)
        np.testing.assert_allclose(attn.weights, 1.0 / 5.0, atol=1e-12)

    def test_same_seed_bitwise_identical(self):
        a = attention_forward(ModelParams(4, rank=2, max_len=2, seed=9), 2)
        b = attention_forward(ModelParams(4, rank=2, max_len=2, seed=9), 2)
        assert np.array_equal(a.weights, b.weights)

    def test_batched_rows_match_single_predicate_attention(self):
        params = ModelParams(7, rank=3, max_len=3, embed_dim=8, hidden_dim=6, seed=4)
        preds = [5, 0, 3, 6]
        weights = _attention_forward(params, preds)
        assert weights.shape == (4, 3, 3, 8)
        for row, q in zip(weights, preds):
            np.testing.assert_allclose(
                row, attention_forward(params, q).weights, rtol=1e-12, atol=1e-15
            )

    def test_different_queries_differ(self):
        params = ModelParams(4, rank=1, max_len=2, embed_dim=8, hidden_dim=8, seed=1)
        a = attention_forward(params, 0)
        b = attention_forward(params, 1)
        assert not np.allclose(a.weights, b.weights)

    # rank 2 keeps the bare max_len id
    @pytest.mark.parametrize("max_len, rank", [
        pytest.param(L, R, id=str(L) if R == 2 else f"{L}-rank{R}")
        for R in (2, 1, 3) for L in (1, 2, 3, 4)
    ])
    @pytest.mark.parametrize("preds", [[3], [5, 0, 3, 6, 1, 2, 4]], ids=["one", "all"])
    def test_equals_the_written_out_unroll(self, max_len, rank, preds):
        # the path evaluation and rule extraction take, without caches; the
        # reference unrolls rank by rank, runs all L backward steps and
        # multiplies in the zero state
        params = ModelParams(7, rank=rank, max_len=max_len, embed_dim=8, hidden_dim=6,
                             seed=11)
        x = params.tensors["query_emb"][preds]
        W, b = params.tensors["proj_W"], params.tensors["proj_b"]
        want = np.empty((len(preds), params.rank, max_len, params.num_operators))
        for r in range(params.rank):
            att_in, _, _ = _rank_unroll_reference(params, r, x)
            want[:, r] = softmax(att_in @ W + b).transpose(1, 0, 2)
        assert np.array_equal(_attention_forward(params, preds), want)

    def test_in_place_math_leaves_the_parameters_alone(self):
        kg = random_kg(4, num_entities=9, num_predicates=3, edge_prob=0.3)
        ops = build_operators(kg)
        params = ModelParams(3, rank=2, max_len=3, embed_dim=6, hidden_dim=5, seed=8)
        before = {key: t.tobytes() for key, t in params.tensors.items()}
        preds = [2, 0, 1]
        _attention_forward(params, preds)
        _attention_forward(params, preds, [])
        loss_and_gradients(ops, params, group_queries(kg.triples)[:8])
        evaluate(kg, params, kg.triples, ops=ops)
        for q in preds:
            extract_rules(params, q)
        assert {key: t.tobytes() for key, t in params.tensors.items()} == before

    @pytest.mark.parametrize("q", [-1, 3])
    def test_query_outside_the_predicates_is_refused(self, q):
        # -1 used to read the last predicate's embedding, and |P| failed with
        # a bare IndexError
        kg = random_kg(4, num_entities=9, num_predicates=3, edge_prob=0.3)
        ops = build_operators(kg)
        params = ModelParams(3, rank=2, max_len=2, embed_dim=6, hidden_dim=5, seed=8)
        message = rf"predicate index {q} out of range: the model has 3 predicates, 0\.\.2"
        with pytest.raises(ValueError, match=message):
            attention_forward(params, q)
        with pytest.raises(ValueError, match=message):
            extract_rules(params, q)
        with pytest.raises(ValueError, match=message):
            loss_and_gradients(ops, params, [MultiTargetQuery(0, q, (1,))])
        with pytest.raises(ValueError, match=message):
            evaluate(kg, params, [(0, 0, 1), (0, q, 1)], ops=ops)

    def test_unroll_memory_is_bounded(self):
        # 192 predicates at the default sizes; the kept unroll held 21.2 MB
        # (peak 25.7 MB) when every step kept seven fresh arrays and the
        # backward cell ran L steps, and holds 14.2 MB (peak 18.6 MB) in
        # per-direction blocks over every rank
        params = ModelParams(192, max_len=2)
        caches = []
        tracemalloc.start()
        try:
            _attention_forward(params, range(192), caches)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 16e6
        assert peak <= 20e6


class TestEntityIndices:
    @pytest.mark.parametrize("head, tail", [(0, 7), (0, -1), (0, 3), (0, 4),
                                            (5, 0), (3, 0), (-1, 0)])
    @pytest.mark.parametrize("entry", ["evaluate", "loss_and_gradients"])
    def test_index_outside_the_entities_is_refused(self, entry, head, tail):
        # an out-of-range tail used to give evaluate an MRR of 0.4; an
        # out-of-range head failed with a bare IndexError or numpy's message
        kg = KnowledgeGraph(["a", "b", "c"], ["p"], [(0, 0, 1), (1, 0, 2)])
        ops = build_operators(kg)
        params = ModelParams(1, rank=1, max_len=2, embed_dim=4, hidden_dim=4)
        bad = tail if head in (0, 1, 2) else head
        message = rf"entity index {bad} out of range: the graph has 3 entities, 0\.\.2"
        with pytest.raises(ValueError, match=message):
            if entry == "evaluate":
                evaluate(kg, params, [(0, 0, 1), (head, 0, tail)], ops=ops)
            else:
                batch = [MultiTargetQuery(0, 0, (1,)), MultiTargetQuery(head, 0, (tail,))]
                loss_and_gradients(ops, params, batch)


class TestScoreQuery:
    def test_pure_pattern_path_count(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        attn = one_hot_attention(4, [p["sisterOf"] + 1, p["daughterOf"] + 1])
        query = MultiTargetQuery(e["z1"], p["daughterOf"], (e["x1"],))
        res = score_query(ops, attn, query)
        assert res.prediction[e["x1"]] == pytest.approx(1.0)
        assert res.per_target_corrections[e["x1"]] == pytest.approx(0.0)

    def test_direct_edge_mass_cancelled(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        attn = one_hot_attention(4, [p["daughterOf"] + 1, 0])
        query = MultiTargetQuery(e["z1"], p["daughterOf"], (e["x1"],))
        res = score_query(ops, attn, query)
        assert res.prediction[e["x1"]] == pytest.approx(0.0)
        assert res.per_target_corrections[e["x1"]] == pytest.approx(1.0)

    def test_all_identity_attention(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        attn = one_hot_attention(4, [0, 0])
        query = MultiTargetQuery(e["z1"], p["daughterOf"], (e["x1"],))
        res = score_query(ops, attn, query)
        expected = np.zeros(kg.num_entities)
        expected[e["z1"]] = 1.0
        np.testing.assert_allclose(res.prediction, expected, atol=1e-12)

    def test_cross_target_paths_survive(self, toy):
        # query (z1, sisterOf, {z2, z4}): the path z1 -> z2 -> z4 must still
        # boost z4 even though (z1, sisterOf, z2) is another target's edge
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        s = p["sisterOf"]
        attn = one_hot_attention(4, [s + 1, s + 1])
        query = MultiTargetQuery(e["z1"], s, (e["z2"], e["z4"]))
        res = score_query(ops, attn, query)
        assert res.prediction[e["z4"]] == pytest.approx(1.0)

    def test_result_invariant_prediction_decomposition(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(4), size=(2, 2))
        attn = AttentionTensor(w)
        query = MultiTargetQuery(e["z1"], p["daughterOf"], (e["x1"],))
        for normalize in (None, "l1", "l2"):
            res = score_query(ops, attn, query, normalize=normalize)
            for t, corr in res.per_target_corrections.items():
                assert res.prediction[t] == pytest.approx(
                    res.uncorrected[t] - corr, abs=1e-12
                )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_weighted_path_oracle(self, seed):
        kg = random_kg(seed, num_entities=7, num_predicates=3, edge_prob=0.25)
        ops = build_operators(kg)
        rng = np.random.default_rng(seed + 1000)
        queries = group_queries(kg.triples)
        picked = queries[:4] + [q for q in queries[4:] if len(q.targets) > 1][:2]
        assert any(len(q.targets) > 1 for q in picked)
        for max_len, rank in ((2, 1), (3, 2), (4, 2)):
            w = rng.dirichlet(np.ones(kg.num_predicates + 1), size=(rank, max_len))
            attn = AttentionTensor(w)
            for query in picked:
                res = score_query(ops, attn, query)
                np.testing.assert_allclose(
                    res.prediction, oracle_scores(kg, w, query), atol=1e-9,
                    err_msg=f"L={max_len} R={rank} query={query}",
                )

    @pytest.mark.parametrize("normalize", [None, "l1", "l2"])
    @pytest.mark.parametrize("max_len", [2, 3, 4])
    @pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
    def test_matches_recurrence_reference(self, epsilon_mode, max_len, normalize):
        for seed in range(3):
            kg = random_kg(seed + 20, num_entities=7, num_predicates=3, edge_prob=0.3)
            ops = build_operators(kg)
            rng = np.random.default_rng(seed)
            w = rng.dirichlet(np.ones(kg.num_predicates + 1), size=(2, max_len))
            queries = group_queries(kg.triples)
            assert any(len(q.targets) > 1 for q in queries[:6])
            for query in queries[:6]:
                res = score_query(
                    ops, AttentionTensor(w), query,
                    epsilon_mode=epsilon_mode, normalize=normalize,
                )
                pred, corr = recurrence_scores(kg, w, query, epsilon_mode, normalize)
                np.testing.assert_allclose(res.prediction, pred, rtol=1e-12, atol=1e-12)
                assert res.per_target_corrections.keys() == corr.keys()
                for t, c in corr.items():
                    assert res.per_target_corrections[t] == pytest.approx(
                        c, rel=1e-12, abs=1e-12
                    )

    @pytest.mark.parametrize("max_len", [2, 3])
    @pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
    def test_target_the_graph_does_not_link(self, epsilon_mode, max_len):
        # a train target absent from the reasoning graph (built without the
        # train split): stored even where no path reaches it, scoring -corr
        kg = random_kg(3, num_entities=9, num_predicates=3, edge_prob=0.15)
        ops = build_operators(kg)
        query = None
        for h, q in itertools.product(range(9), range(3)):
            reach = {h}
            for _ in range(max_len):
                reach |= {x for v in reach for p in range(3) for x in kg.successors(p, v)}
            linked = kg.successors(q, h)
            unlinked = [t for t in sorted(reach) if t not in linked and t != h]
            off = [t for t in range(9) if t not in reach]
            if linked and unlinked and off:
                query = MultiTargetQuery(h, q, (linked[0], unlinked[0], off[0]))
                break
        assert query is not None
        rng = np.random.default_rng(max_len)
        w = rng.dirichlet(np.ones(4), size=(2, max_len))
        for normalize in (None, "l1", "l2"):
            res = score_query(ops, AttentionTensor(w), query,
                              epsilon_mode=epsilon_mode, normalize=normalize)
            pred, corr = recurrence_scores(kg, w, query, epsilon_mode, normalize)
            np.testing.assert_allclose(res.prediction, pred, rtol=1e-12, atol=1e-12)
            for t, c in corr.items():
                assert res.per_target_corrections[t] == pytest.approx(
                    c, rel=1e-12, abs=1e-12
                )
            off = query.targets[2]
            assert res.uncorrected[off] == 0.0
            assert res.prediction[off] == -res.per_target_corrections[off] != 0.0

    @pytest.mark.parametrize("normalize", [None, "l1", "l2"])
    def test_loss_equals_dense_loss_of_scattered_scores(self, normalize):
        kg = random_kg(5, num_entities=12, num_predicates=3, edge_prob=0.08)
        ops = build_operators(kg)
        grouped = group_queries(kg.triples)
        queries = [q for p in (2, 0, 1) for q in grouped if q.query == p][::3]
        preds = [2, 0, 1]
        assert {q.query for q in queries} == set(preds)
        assert any(len(q.targets) > 1 for q in queries)
        rng = np.random.default_rng(1)
        w = rng.dirichlet(np.ones(4), size=(len(preds), 2, 2))
        fwd = _BatchForward(
            ops, w, preds, [preds.index(q.query) for q in queries],
            [q.head for q in queries], [q.targets for q in queries],
            normalize=normalize,
        )
        E = kg.num_entities
        s = np.zeros(len(queries) * E)
        s[fwd.keys] = fwd.s
        v = np.zeros((len(queries), E))
        for b, q in enumerate(queries):
            v[b, list(q.targets)] = 1.0
        assert len(fwd.s) < s.size
        assert fwd.loss() == pytest.approx(
            logit_loss(s.reshape(len(queries), E), v), rel=1e-12
        )

    def test_subtract_equals_delete_without_reuse(self, toy):
        # deleting the direct edge and scoring plainly must agree with the
        # corrected score when no path crosses the deleted edge twice
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        d = p["daughterOf"]
        attn = one_hot_attention(4, [p["sisterOf"] + 1, d + 1])
        h, t = e["z1"], e["x1"]
        res = score_query(ops, attn, MultiTargetQuery(h, d, (t,)))
        pruned = KnowledgeGraph(
            kg.entities,
            kg.predicates,
            [tri for tri in kg.triples if tri != (h, d, t)],
        )
        deleted = neural_lp_score(build_operators(pruned), attn, h, t)
        assert res.prediction[t] == pytest.approx(deleted, abs=1e-12)

    def test_literal_mode_follows_printed_recurrence(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        d = p["daughterOf"]
        # hop1 identity, hop2 daughterOf: mass stays at z1 then moves to x1.
        attn = one_hot_attention(4, [0, d + 1])
        query = MultiTargetQuery(e["z1"], d, (e["x1"],))
        corrected = score_query(ops, attn, query, epsilon_mode="corrected")
        literal = score_query(ops, attn, query, epsilon_mode="literal")
        # corrected: the hop-2 direct-edge use is injected (u_1[h] = 1), so the
        # single path is cancelled; the printed recurrence injects u_1[t] = 0
        # at hop 2 and its base case lands on a dead coordinate, leaving 1.
        assert corrected.prediction[e["x1"]] == pytest.approx(0.0)
        assert literal.prediction[e["x1"]] == pytest.approx(1.0)

    def test_mismatched_operator_count_raises(self, toy):
        _, ops = toy
        attn = one_hot_attention(3, [0, 0])
        with pytest.raises(ValueError, match="does not match"):
            score_query(ops, attn, MultiTargetQuery(0, 0, (1,)))


class TestRanks:
    """The R ranks of one propagation never mix: each rank's values equal a
    one-rank run on its slice of the attention, and the scores add the ranks
    in rank order."""

    @pytest.mark.parametrize("normalize", [None, "l1", "l2"])
    @pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_each_rank_equals_a_one_rank_run(self, max_len, epsilon_mode, normalize):
        kg = random_kg(max_len, num_entities=12, num_predicates=3, edge_prob=0.12)
        ops = build_operators(kg)
        grouped = group_queries(kg.triples)
        preds = [2, 0, 1]
        queries = [q for p in preds for q in grouped if q.query == p][::2]
        assert any(len(q.targets) > 1 for q in queries)
        groups = [preds.index(q.query) for q in queries]
        heads = [q.head for q in queries]
        rng = np.random.default_rng(max_len)
        weights = rng.dirichlet(np.ones(4), size=(len(preds), 3, max_len))

        def run(w):
            return _BatchForward(ops, w, preds, groups, heads,
                                 [q.targets for q in queries],
                                 epsilon_mode=epsilon_mode, normalize=normalize)

        fwd = run(weights)
        ds = rng.standard_normal(len(fwd.s))
        dA = fwd.backward(ds)
        excluded = (np.array([q.query + 1 for q in queries]),
                    np.array([q.targets[0] for q in queries]))
        keys, s = support_scores(ops, weights, groups, heads, excluded=excluded,
                                 normalize=normalize)
        want_s, want_scores = 0.0, 0.0
        for r in range(3):
            one = run(weights[:, r : r + 1])
            assert np.array_equal(one.keys, fwd.keys)
            for level, u in zip(fwd.U, one.U):
                assert np.array_equal(level[r], u[0])
            assert np.array_equal(fwd.corr[r], one.corr[0])
            assert np.array_equal(fwd.divisors[r], one.divisors[0])
            assert np.array_equal(dA[:, r], one.backward(ds)[:, 0])
            want_s = want_s + one.s
            one_keys, one_scores = support_scores(
                ops, weights[:, r : r + 1], groups, heads, excluded=excluded,
                normalize=normalize,
            )
            assert np.array_equal(one_keys, keys)
            want_scores = want_scores + one_scores
        assert np.array_equal(fwd.s, want_s)
        assert np.array_equal(s, want_scores)

    def test_ranks_add_in_order_on_a_single_entry(self):
        # a head with no out-edge stores one entry; summed as one column,
        # a reduction over 9 ranks would add them pairwise
        kg = KnowledgeGraph(["a", "b", "c"], ["p"], [(0, 0, 1)])
        ops = build_operators(kg)
        for seed in range(10):
            weights = np.random.default_rng(seed).dirichlet(np.ones(2), size=(1, 9, 2))
            keys, s = support_scores(ops, weights, [0], [2])
            assert list(keys) == [2]
            want = 0.0
            for r in range(9):
                want = want + support_scores(ops, weights[:, r : r + 1], [0], [2])[1]
            assert np.array_equal(s, want)


class TestNormalization:
    def test_l2_divides_by_state_norm(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        attn = one_hot_attention(4, [p["sisterOf"] + 1, p["sisterOf"] + 1])
        head = e["z1"]
        raw = score_entities(ops, attn, [head])[0]
        normed = score_entities(ops, attn, [head], normalize="l2")[0]
        np.testing.assert_allclose(normed, raw / np.linalg.norm(raw), atol=1e-12)
        l1 = score_entities(ops, attn, [head], normalize="l1")[0]
        np.testing.assert_allclose(l1, raw / np.abs(raw).sum(), atol=1e-12)

    def test_unknown_mode_is_refused(self, toy):
        _, ops = toy
        with pytest.raises(ValueError, match="unknown normalize mode 'l3'"):
            score_entities(ops, one_hot_attention(4, [0, 0]), [0], normalize="l3")

    def test_zero_state_rows_left_alone(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        # x1 has no outgoing daughterOf edges: propagated state is all zero
        attn = one_hot_attention(4, [p["daughterOf"] + 1, p["daughterOf"] + 1])
        s = score_entities(ops, attn, [e["x1"]], normalize="l2")[0]
        assert not s.any()


class TestNeuralLpScore:
    def test_same_path_count_as_corrected_when_unused(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        attn = one_hot_attention(4, [p["sisterOf"] + 1, p["daughterOf"] + 1])
        assert neural_lp_score(ops, attn, e["z1"], e["x1"]) == pytest.approx(1.0)

    def test_no_correction_applied(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        attn = one_hot_attention(4, [p["daughterOf"] + 1, 0])
        assert neural_lp_score(ops, attn, e["z1"], e["x1"]) == pytest.approx(1.0)

    def test_identity_only_scores_head(self, toy):
        kg, ops = toy
        attn = one_hot_attention(4, [0, 0])
        for h in range(kg.num_entities):
            for t in range(kg.num_entities):
                expected = 1.0 if t == h else 0.0
                assert neural_lp_score(ops, attn, h, t) == pytest.approx(expected)

    def test_excluded_edge_changes_scores(self, toy):
        kg, ops = toy
        e, p = kg.entity_index, kg.predicate_index
        d = p["daughterOf"]
        attn = one_hot_attention(4, [d + 1, 0])
        h, t = e["z1"], e["x1"]
        scores = score_entities(
            ops, attn, [h], excluded_edges=(d, np.array([t]), np.array([1.0]))
        )
        assert scores[0, t] == pytest.approx(0.0)
        # absent edge: exclusion is a no-op
        scores2 = score_entities(
            ops, attn, [h], excluded_edges=(d, np.array([t]), np.array([0.0]))
        )
        assert scores2[0, t] == pytest.approx(1.0)


class TestLoss:
    def test_zero_scores_give_log_two_per_entry(self):
        v = np.array([1.0, 0, 0, 1, 0, 0])
        assert logit_loss(np.zeros(6), v) == pytest.approx(6 * np.log(2))

    def test_confident_correct_entry(self):
        val = logit_loss(np.array([20.0]), np.array([1.0]))
        assert val == pytest.approx(2.061e-9, rel=1e-3)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(-20, 20, size=30)
            v = (rng.random(30) < 0.3).astype(float)
            assert logit_loss(s, v) == pytest.approx(
                naive_bernoulli_loss(s, v), abs=1e-9
            )

    def test_finite_for_huge_scores(self):
        s = np.array([1e4, -1e4])
        v = np.array([0.0, 1.0])
        assert np.isfinite(logit_loss(s, v))

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.uniform(-30, 30, size=10)
            v = (rng.random(10) < 0.5).astype(float)
            assert logit_loss(s, v) >= 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            logit_loss(np.array([np.inf]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            logit_loss(np.zeros(3), np.zeros(4))

    def test_gradient_at_zero(self):
        g = logit_loss_grad(np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(g, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)


class TestCheckpoint:
    def test_name_list_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="2 predicate names for 3 predicates"):
            ModelParams(3, predicates=["p0", "p1"])

    def test_attention_tensor_must_be_three_dimensional(self):
        with pytest.raises(ValueError, match="rank x hops x operators"):
            AttentionTensor(np.full((2, 4), 0.25))

    def test_round_trip_bit_identical(self, tmp_path):
        params = ModelParams(
            6, rank=2, max_len=2, embed_dim=10, hidden_dim=7, seed=5,
            normalize="l1", epsilon_mode="literal",
            predicates=["p0", "p1", "p2", "p3", "p4", "p5"],
        )
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.meta() == params.meta()
        assert set(loaded.tensors) == set(params.tensors)
        for key, tensor in params.tensors.items():
            assert np.array_equal(loaded.tensors[key], tensor)

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_members_are_per_rank_cell_tensors(self, tmp_path, max_len):
        # the file keeps one member per rank and cell tensor, so checkpoints
        # from before the cells were stacked load unchanged
        params = ModelParams(4, rank=2, max_len=max_len, embed_dim=5, hidden_dim=3, seed=6)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        cell = {"Wx": (5, 12), "Wh": (3, 12), "b": (12,)}
        kept = {1: ["fwd_Wx", "fwd_b"],
                2: ["fwd_Wx", "fwd_Wh", "fwd_b", "bwd_Wx", "bwd_b"],
                3: ["fwd_Wx", "fwd_Wh", "fwd_b", "bwd_Wx", "bwd_Wh", "bwd_b"]}[max_len]
        want = {"__meta__": None, "query_emb": (4, 5)}
        for r in range(2):
            for key in kept:
                want[f"cell{r}_{key}"] = cell[key[4:]]
        want |= {"proj_W": (6, 5), "proj_b": (5,)}
        with np.load(path) as data:
            assert data.files == list(want)
            for name, shape in want.items():
                if shape is not None:
                    assert data[name].shape == shape, name
            for r in range(2):
                for key in kept:
                    assert np.array_equal(data[f"cell{r}_{key}"], params.tensors[key][r])

    def test_loaded_model_scores_identically(self, toy, tmp_path):
        kg, ops = toy
        params = ModelParams(kg.num_predicates, rank=2, max_len=2,
                             embed_dim=8, hidden_dim=8, seed=2)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        a = attention_forward(params, 0).weights
        b = attention_forward(loaded, 0).weights
        assert np.array_equal(a, b)
