import zipfile

import numpy as np
import pytest

import mplr.training as training
from mplr.kg import KnowledgeGraph, DatasetSplits, group_queries
from mplr.indicators import BifurcationRecord, FORWARD, BACKWARD
from mplr.model import (
    AttentionTensor,
    ModelParams,
    _attention_forward,
    extract_rules,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    score_entities,
    support_scores,
)
from mplr.operators import build_operators
from mplr.training import (
    ADAM_BLOCK,
    AdamOptimizer,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    hit_upper_bound,
    rank_among,
    train,
)

from conftest import adam_step_reference, model_params_reference, random_kg


class TestAdam:
    def test_first_step_magnitude(self):
        lr = 0.001
        vector = np.array([1.0, -2.0])
        adam = AdamOptimizer(vector, lr=lr)
        g = np.array([0.5, -3.0])
        adam.step(vector, g)
        delta = np.abs(vector - np.array([1.0, -2.0]))
        # first step moves by lr * |g| / (|g| + eps), a whisker under lr
        assert np.all(np.abs(delta - lr) < 1e-5)
        assert np.all(delta < lr)

    def test_step_direction_opposes_gradient(self):
        vector = np.zeros(2)
        adam = AdamOptimizer(vector, lr=0.1)
        adam.step(vector, np.array([1.0, -1.0]))
        assert vector[0] < 0 < vector[1]

    def test_zero_gradient_leaves_parameter_unchanged(self):
        vector = np.array([3.14, -1.0])
        adam = AdamOptimizer(vector, lr=0.5)
        for _ in range(10):
            adam.step(vector, np.zeros(2))
        assert np.array_equal(vector, np.array([3.14, -1.0]))

    def test_in_place_step_equals_the_allocating_reference(self):
        # sizes below, at and past one block; zero and negative-zero grads
        rng = np.random.default_rng(3)
        for size in (1, 7, ADAM_BLOCK, 2 * ADAM_BLOCK + 3):
            vector = rng.standard_normal(size)
            ref_vector = vector.copy()
            adam = AdamOptimizer(vector, lr=0.01)
            ref = AdamOptimizer(ref_vector, lr=0.01)
            for _ in range(5):
                grad = rng.standard_normal(size)
                grad[::3] = 0.0
                grad[1::5] = -0.0
                kept = grad.copy()
                adam.step(vector, grad)
                adam_step_reference(ref, ref_vector, grad)
                assert np.array_equal(vector, ref_vector), size
                assert np.array_equal(adam.m, ref.m) and np.array_equal(adam.v, ref.v), size
                assert np.array_equal(grad, kept), size

    def test_strided_vector_is_stepped_in_place(self):
        # a slice of a 1-D vector writes through at any stride
        rng = np.random.default_rng(4)
        buffer = rng.standard_normal(2 * ADAM_BLOCK + 6)
        grads = rng.standard_normal((3, len(buffer)))
        vector, between = buffer[::2], buffer[1::2].copy()
        ref_vector = vector.copy()
        adam = AdamOptimizer(vector, lr=0.01)
        ref = AdamOptimizer(ref_vector, lr=0.01)
        for g in grads:
            adam.step(vector, g[1::2])
            adam_step_reference(ref, ref_vector, g[1::2])
        assert np.array_equal(buffer[::2], ref_vector)
        assert np.array_equal(buffer[1::2], between)

    @pytest.mark.parametrize("which", ["vector", "gradient"])
    def test_other_shapes_are_refused(self, which):
        # a shorter gradient would update only a prefix of the vector
        arrays = {"vector": np.zeros(6), "gradient": np.ones(6)}
        adam = AdamOptimizer(arrays["vector"])
        arrays[which] = arrays[which][:5]
        with pytest.raises(ValueError, match=r"shape \(6,\), not"):
            adam.step(arrays["vector"], arrays["gradient"])
        with pytest.raises(ValueError, match=r"shape \(6,\), not"):
            adam.step(np.zeros((2, 3)), np.ones((2, 3)))
        assert adam.t == 0 and not arrays["vector"].any() and not adam.m.any()

    def test_training_state_is_one_buffer_each(self, tmp_path):
        # the tensors of the parameters, of a copy and of a loaded checkpoint
        # are consecutive views that exactly cover their vector; a gradient
        # has the same layout, and Adam's moments are vectors of its size
        params = ModelParams(5, rank=2, max_len=3, embed_dim=4, hidden_dim=3, seed=1)
        adam = AdamOptimizer(params.vector)
        dup = params.copy()
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for key, t in params.tensors.items():
            assert not np.shares_memory(dup.tensors[key], t), key
            assert np.array_equal(dup.tensors[key], t), key
            assert np.array_equal(loaded.tensors[key], t), key
        assert np.array_equal(dup.vector, params.vector)
        assert np.array_equal(loaded.vector, params.vector)
        kg = random_kg(1, num_entities=6, num_predicates=5, edge_prob=0.3)
        grad = np.empty_like(params.vector)
        _, grads = loss_and_gradients(build_operators(kg), params,
                                      group_queries(kg.triples), out=grad)
        count = np.arange(params.vector.size, dtype=np.float64)
        for vector, views in ((params.vector, params.tensors), (dup.vector, dup.tensors),
                              (loaded.vector, loaded.tensors), (grad, grads)):
            assert vector.shape == adam.m.shape == adam.v.shape
            assert all(a.base is vector for a in views.values())
            vector[...] = count
            assert np.array_equal(np.concatenate([a.ravel() for a in views.values()]),
                                  count)
        assert not np.shares_memory(adam.m, adam.v)


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

    def test_huge_learning_rate_stops_at_the_batch_that_diverged(self):
        # one step of lr 1e308 overflows the next batch's forward pass; train
        # names that batch, with no numpy warnings
        kg, splits = rule_chain_dataset()
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0,
                          **(SMALL_CONFIG | dict(batch_size=1, learning_rate=1e308)))
        with pytest.raises(TrainingDivergedError,
                           match=r"^non-finite loss at epoch 1, batch starting at 1 "):
            train(kg, splits, cfg)

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_training_equals_adam_over_every_tensor(self, max_len):
        # the parameters hold only the cell tensors the unroll reads, and the
        # allocating Adam over every tensor's gradient, scaled, gives the same
        # bits as train
        kg = random_kg(4, num_entities=9, num_predicates=3, edge_prob=0.3)
        splits = DatasetSplits(kg.triples, [], [], ("train",))
        config = TrainConfig(max_len=max_len, rank=2, embed_dim=6, hidden_dim=5,
                             batch_size=5, max_epochs=2, learning_rate=0.01, seed=2)
        trained, _ = train(kg, splits, config)

        params = ModelParams(kg.num_predicates, rank=2, max_len=max_len, embed_dim=6,
                             hidden_dim=5, seed=2, predicates=kg.predicates)
        start = params.copy()
        ops, queries = build_operators(kg), group_queries(splits.train)
        ref = AdamOptimizer(params.vector, lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        for _ in range(config.max_epochs):
            order = rng.permutation(len(queries))
            for i in range(0, len(order), config.batch_size):
                batch = [queries[j] for j in order[i : i + config.batch_size]]
                _, grads = loss_and_gradients(ops, params, batch)
                # every tensor's gradient, in the parameter vector's layout
                grad = np.concatenate([g.ravel() for g in grads.values()])
                grad *= 1.0 / len(batch)
                adam_step_reference(ref, params.vector, grad)
        assert trained.tensors.keys() == params.tensors.keys()
        for key, t in params.tensors.items():
            assert np.array_equal(trained.tensors[key], t), key
            assert not np.array_equal(t, start.tensors[key]), key
        per_cell = {
            1: ["fwd_Wx", "fwd_b"],
            2: ["fwd_Wx", "fwd_Wh", "fwd_b", "bwd_Wx", "bwd_b"],
            3: ["fwd_Wx", "fwd_Wh", "fwd_b", "bwd_Wx", "bwd_Wh", "bwd_b"],
        }
        want = ["query_emb", *per_cell[max_len], "proj_W", "proj_b"]
        assert list(params.tensors) == want

    def test_kept_tensors_start_the_same_at_every_length(self):
        # the generator is advanced past the draws of every dropped cell weight
        full = ModelParams(3, rank=2, max_len=3, embed_dim=6, hidden_dim=5, seed=2)
        for max_len in (1, 2):
            params = ModelParams(3, rank=2, max_len=max_len, embed_dim=6, hidden_dim=5,
                                 seed=2)
            for key, t in params.tensors.items():
                assert np.array_equal(t, full.tensors[key]), (max_len, key)

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_starting_tensors_equal_the_uniform_draws(self, max_len):
        # drawn in place and advanced past the dropped tensors, bit for bit
        # what rng.uniform draws in the documented order
        sizes = dict(num_predicates=5, rank=3, max_len=max_len, embed_dim=6,
                     hidden_dim=7, seed=4)
        params = ModelParams(**sizes)
        want = model_params_reference(**sizes)
        assert list(params.tensors) == list(want)
        for key, t in want.items():
            assert np.array_equal(params.tensors[key], t), key

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


def support_kg():
    """Random graph over e0..e7 with self-loops (one shared by two
    predicates), plus e8, whose only in-edge is (e0, p1, e8), and the
    isolated e9."""
    base = random_kg(6, num_entities=8, num_predicates=3, edge_prob=0.2)
    extra = {(2, 0, 2), (2, 1, 2), (5, 2, 5), (0, 1, 8)}
    entities = [f"e{i}" for i in range(10)]
    return KnowledgeGraph(entities, base.predicates, sorted(set(base.triples) | extra))


# answer reachable only through the excluded edge, answer == head, a head
# with no out-edges, an answer off the support
SUPPORT_CASES = [(0, 1, 8), (2, 0, 2), (9, 2, 3), (1, 0, 9)]


def reference_ranks(kg, ops, weights, groups, triples, normalize):
    """rank_among over the dense score_entities row of each query."""
    return [
        rank_among(
            score_entities(
                ops, AttentionTensor(weights[g]), [h],
                excluded_edges=(q, [t], [kg.has_triple(h, q, t)]), normalize=normalize,
            )[0],
            t, exclude=h,
        )
        for g, (h, q, t) in zip(groups, triples)
    ]


class TestSupportRanks:
    @pytest.mark.parametrize("normalize", [None, "l1", "l2"])
    @pytest.mark.parametrize("kind", ["softmax", "ties"])
    def test_equal_rank_among_on_dense_scores(self, kind, normalize):
        kg = support_kg()
        ops = build_operators(kg)
        assert [tr for tr in kg.triples if tr[2] == 8] == [(0, 1, 8)]
        assert not any(tr[0] == 9 or tr[2] == 9 for tr in kg.triples)
        rng = np.random.default_rng(0)
        if kind == "ties":
            w = rng.choice([0.0, 0.25, 0.5], size=(3, 2, 2, 4))
        else:
            w = rng.dirichlet(np.ones(4), size=(3, 2, 2))
        triples = SUPPORT_CASES + kg.triples
        h, q, t = np.array(triples).T
        keys, s = support_scores(ops, w, q, h, excluded=(q + 1, t), normalize=normalize)
        E = kg.num_entities
        assert 0 * E + 8 not in keys and 3 * E + 9 not in keys  # off the support
        assert (keys[keys // E == 2] % E).tolist() == [9]  # only the head
        got = training._ranks(keys, s, E, h, t)
        want = reference_ranks(kg, ops, w, q, triples, normalize)
        assert got.tolist() == want
        assert any(r != int(r) for r in want)  # some answers tie

    def test_evaluate_matches_rank_among(self):
        kg = support_kg()
        ops = build_operators(kg)
        params = ModelParams(3, rank=2, max_len=2, embed_dim=6, hidden_dim=5, seed=1)
        triples = SUPPORT_CASES + kg.triples
        report = evaluate(kg, params, triples, ks=(1, 3), ops=ops)
        preds = list(dict.fromkeys(q for _, q, _ in triples))
        weights = _attention_forward(params, preds)
        ordered = sorted(triples, key=lambda tr: preds.index(tr[1]))
        groups = [preds.index(q) for _, q, _ in ordered]
        ranks = np.array(reference_ranks(kg, ops, weights, groups, ordered, "l2"))
        assert report.mrr == float(np.mean(1.0 / ranks))
        assert report.hit_at[3] == float(np.mean(ranks <= 3))
        for p in preds:
            part = [g == preds.index(p) for g in groups]
            pe = report.per_predicate[kg.predicates[p]]
            assert pe.mrr == float(np.mean(1.0 / ranks[part]))
            # a plain int, as the overall count is, so the report serializes
            assert type(pe.num_queries) is int and pe.num_queries == sum(part)
        assert type(report.num_queries) is int


TRAINED_CONFIG = dict(max_epochs=60, patience=60, seed=0, **SMALL_CONFIG)


@pytest.fixture(scope="module")
def trained():
    kg, splits = rule_chain_dataset(num_instances=6, num_valid=2)
    cfg = TrainConfig(**TRAINED_CONFIG)
    params, _ = train(kg, splits, cfg)
    return kg, splits, params


class TestEvaluate:

    def test_perfect_rule_gives_perfect_metrics(self, trained):
        kg, splits, params = trained
        report = evaluate(kg, params, splits.valid, ks=(1, 3))
        assert report.mrr == pytest.approx(1.0)
        assert report.hit_at[1] == pytest.approx(1.0)
        assert report.num_queries == len(splits.valid)

    def test_deterministic(self, trained, tmp_path):
        kg, splits, params = trained
        a = evaluate(kg, params, splits.valid, ks=(1, 3))
        b = evaluate(kg, params, splits.valid, ks=(1, 3))
        assert a.as_tsv() == b.as_tsv()
        # training again from the seed writes the same checkpoint; the
        # archive's headers carry the write time, so its members are compared
        again, _ = train(kg, splits, TrainConfig(**TRAINED_CONFIG))
        for name, p in (("a.npz", params), ("b.npz", again)):
            save_checkpoint(p, tmp_path / name)
        members = []
        for name in ("a.npz", "b.npz"):
            with zipfile.ZipFile(tmp_path / name) as archive:
                members.append({n: archive.read(n) for n in archive.namelist()})
        assert members[0] == members[1]

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

    def test_array_split_equals_list_split(self, trained):
        kg, splits, params = trained
        want = evaluate(kg, params, splits.valid).as_tsv()
        assert evaluate(kg, params, np.array(splits.valid)).as_tsv() == want

    @pytest.mark.parametrize("triples, message", [
        pytest.param(np.empty((0, 3), dtype=np.int64), "^empty evaluation split$",
                     id="empty-array"),
        pytest.param([(0, 0)], "^evaluation rows must be", id="two-fields"),
        pytest.param(np.zeros((2, 4), dtype=np.int64), "^evaluation rows must be",
                     id="four-columns"),
        pytest.param([(0, 0, 1), (0, 0)], "^evaluation rows must be", id="ragged"),
        pytest.param([0, 0, 1], "^evaluation rows must be", id="one-flat-row"),
        pytest.param([("a", "q", "b")], "^evaluation rows must be", id="names"),
        pytest.param([(0.7, 0, 1)], "^evaluation rows must be", id="floats"),
        pytest.param(5, "^evaluation rows must be", id="scalar"),
    ])
    def test_malformed_split_rejected(self, trained, triples, message):
        kg, _, params = trained
        with pytest.raises(ValueError, match=message):
            evaluate(kg, params, triples)

    @pytest.mark.parametrize("ks", [(0,), (1, 0), (-3, 10)])
    def test_k_below_one_rejected(self, trained, ks):
        kg, splits, params = trained
        with pytest.raises(ValueError, match="^hit@k needs every k to be at least 1"):
            evaluate(kg, params, splits.valid, ks=ks)

    def test_non_finite_scores_rejected(self, trained, monkeypatch):
        kg, splits, params = trained
        real = training.support_scores

        def poisoned(*args, **kwargs):
            keys, scores = real(*args, **kwargs)
            scores[0] = np.nan
            return keys, scores

        monkeypatch.setattr(training, "support_scores", poisoned)
        with pytest.raises(ValueError, match="non-finite scores for predicate 'q'"):
            evaluate(kg, params, splits.valid)


def chunk_heads(monkeypatch):
    """The heads of each chunk that `evaluate` scores, one list per call."""
    calls = []
    real = training.support_scores

    def recorded(ops, weights, groups, heads, **kwargs):
        calls.append(heads.tolist())
        return real(ops, weights, groups, heads, **kwargs)

    monkeypatch.setattr(training, "support_scores", recorded)
    return calls


class TestEvalChunks:
    """Rows are propagated independently and each row's sums run in edge
    order, so where the chunks split cannot change a report."""

    @pytest.mark.parametrize("normalize", [None, "l1", "l2"])
    @pytest.mark.parametrize("max_len", [2, 3])
    def test_report_independent_of_the_edge_budget(self, family_data, monkeypatch,
                                                   max_len, normalize):
        kg, splits, _ = family_data
        ops = kg.operators
        triples = splits.train + splits.valid + splits.test
        params = ModelParams(kg.num_predicates, rank=3, max_len=max_len, embed_dim=6,
                             hidden_dim=5, seed=2, normalize=normalize)
        calls = chunk_heads(monkeypatch)
        reports = {}
        for budget in (1, 64, training.EVAL_EDGES, 10**9):
            monkeypatch.setattr(training, "EVAL_EDGES", budget)
            calls.clear()
            reports[budget] = evaluate(kg, params, triples, ops=ops).as_tsv()
            # every query is scored once, and only a chunk of one passes the budget
            assert sorted(sum(calls, [])) == sorted(h for h, _, _ in triples)
            for heads in calls:
                edges = sum(ops.indptr[h + 1] - ops.indptr[h] for h in heads)
                assert len(heads) == 1 or edges <= budget
            if budget == 1:
                assert len(calls) == len(triples)
            if budget == 64:
                assert 1 < len(calls) < len(triples)
            if budget == 10**9:
                assert len(calls) == 1
        assert len(set(reports.values())) == 1

    def test_answers_off_the_support_independent_of_the_edge_budget(self, monkeypatch):
        # off-support answers and a head without out-edges rank in closed form
        kg = support_kg()
        params = ModelParams(3, rank=2, max_len=2, embed_dim=6, hidden_dim=5, seed=1)
        triples = SUPPORT_CASES + kg.triples
        reports = set()
        for budget in (1, 7, 10**9):
            monkeypatch.setattr(training, "EVAL_EDGES", budget)
            reports.add(evaluate(kg, params, triples).as_tsv())
        assert len(reports) == 1

    def test_hub_head_gets_a_chunk_of_its_own(self, monkeypatch):
        # e0 points at every other entity under p0; e1..e5 have two out-edges each
        n = 30
        edges = {(0, 0, t) for t in range(1, n)}
        edges |= {(h, p, h + 1 + p) for h in range(1, 6) for p in (0, 1)}
        kg = KnowledgeGraph([f"e{i}" for i in range(n)], ["p0", "p1"], sorted(edges))
        ops = kg.operators
        assert ops.indptr[1] - ops.indptr[0] == n  # its edges and its identity loop
        triples = [(1, 0, 2), (2, 0, 3), (0, 0, 5), (3, 0, 4), (0, 0, 9), (4, 1, 6)]
        params = ModelParams(2, rank=2, max_len=2, embed_dim=4, hidden_dim=4, seed=0)
        calls = chunk_heads(monkeypatch)
        monkeypatch.setattr(training, "EVAL_EDGES", 10)
        got = evaluate(kg, params, triples, ops=ops).as_tsv()
        # p0's queries in split order, then p1's; 3 edges per light head
        assert calls == [[1, 2], [0], [3], [0], [4]]
        monkeypatch.setattr(training, "EVAL_EDGES", 10**9)
        assert evaluate(kg, params, triples, ops=ops).as_tsv() == got


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
