"""Central finite differences against the analytic reverse-mode gradients."""

import numpy as np
import pytest

from mplr.kg import KnowledgeGraph, MultiTargetQuery, group_queries
from mplr.operators import build_operators
from mplr.model import ModelParams, _Propagation, loss_and_gradients

from conftest import (
    backward,
    loss_and_gradients_reference,
    operator_grads_reference,
    random_kg,
)


def four_entity_kg():
    # a -> b -> c by two predicates, the explained edges a -> c and a -> d,
    # plus a loop back so paths exist for several operator mixes
    return KnowledgeGraph(
        ["a", "b", "c", "d"],
        ["p1", "p2", "q"],
        [
            (0, 0, 1),
            (1, 1, 2),
            (0, 2, 2),
            (0, 2, 3),
            (1, 0, 3),
            (3, 1, 2),
            (2, 2, 0),
        ],
    )


def finite_difference(ops, params, queries, key, idx, h=1e-4):
    flat = params.tensors[key].ravel()
    orig = flat[idx]

    def total_loss():
        loss, _ = loss_and_gradients(ops, params, queries)
        return loss

    flat[idx] = orig + h
    plus = total_loss()
    flat[idx] = orig - h
    minus = total_loss()
    flat[idx] = orig
    return (plus - minus) / (2 * h)


def check_all_tensors(params, ops, queries, coords_per_tensor=6, rel_tol=1e-4):
    _, grads = loss_and_gradients(ops, params, queries)
    rng = np.random.default_rng(0)
    worst = 0.0
    for key, tensor in params.tensors.items():
        n = tensor.size
        # a cell tensor stacks one tensor per rank, and each gets its share
        per_rank = key.startswith(("fwd_", "bwd_"))
        count = coords_per_tensor * (params.rank if per_rank else 1)
        picks = rng.choice(n, size=min(count, n), replace=False)
        for idx in picks:
            fd = finite_difference(ops, params, queries, key, idx)
            an = grads[key].ravel()[idx]
            # the 1e-4 floor turns the check absolute (at 1e-8) for gradients
            # below finite-difference resolution
            scale = max(abs(fd), abs(an), 1e-4)
            rel = abs(fd - an) / scale
            worst = max(worst, rel)
            assert rel < rel_tol, f"{key}[{idx}]: fd={fd} analytic={an} rel={rel}"
    return worst


@pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
@pytest.mark.parametrize("normalize", [None, "l2", "l1"])
def test_every_parameter_class_matches_finite_differences(epsilon_mode, normalize):
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(
        kg.num_predicates,
        rank=2,
        max_len=2,
        embed_dim=6,
        hidden_dim=5,
        seed=11,
        normalize=normalize,
        epsilon_mode=epsilon_mode,
    )
    queries = [
        MultiTargetQuery(0, 2, (2, 3)),  # multi-target
        MultiTargetQuery(2, 2, (0,)),
    ]
    check_all_tensors(params, ops, queries)


def test_longer_recurrence_and_higher_rank():
    kg = four_entity_kg()
    ops = build_operators(kg)
    queries = [MultiTargetQuery(0, 2, (2, 3)), MultiTargetQuery(2, 2, (0,))]
    for epsilon_mode in ("corrected", "literal"):
        for max_len in (3, 4):
            params = ModelParams(
                kg.num_predicates, rank=3, max_len=max_len, embed_dim=5,
                hidden_dim=4, seed=7, normalize="l2", epsilon_mode=epsilon_mode,
            )
            check_all_tensors(params, ops, queries, coords_per_tensor=4)


@pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
@pytest.mark.parametrize("normalize", [None, "l1"])
def test_target_the_graph_does_not_link_matches_finite_differences(
    epsilon_mode, normalize
):
    # (d, p1, b) and (d, p1, c) are not edges, and b is three hops from d:
    # off the support at L = 2
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(
        kg.num_predicates, rank=2, max_len=2, embed_dim=6, hidden_dim=5,
        seed=17, normalize=normalize, epsilon_mode=epsilon_mode,
    )
    queries = [MultiTargetQuery(3, 0, (1, 2)), MultiTargetQuery(0, 2, (2, 3))]
    check_all_tensors(params, ops, queries)


def test_unused_query_embedding_has_zero_gradient():
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(kg.num_predicates, rank=2, max_len=2,
                         embed_dim=6, hidden_dim=5, seed=3)
    _, grads = backward(ops, params, MultiTargetQuery(0, 2, (2,)))
    emb = grads["query_emb"]
    assert emb[2].any()          # the queried predicate learns
    assert not emb[0].any()      # others exactly zero
    assert not emb[1].any()


def test_single_query_backward_equals_batch_of_one():
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(kg.num_predicates, rank=2, max_len=2,
                         embed_dim=6, hidden_dim=5, seed=3)
    query = MultiTargetQuery(0, 2, (2, 3))
    loss_a, grads_a = backward(ops, params, query)
    loss_b, grads_b = loss_and_gradients(ops, params, [query])
    assert loss_a == loss_b
    for key in grads_a:
        assert np.array_equal(grads_a[key], grads_b[key])


def test_batch_gradients_are_order_independent_sums():
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(kg.num_predicates, rank=1, max_len=2,
                         embed_dim=5, hidden_dim=4, seed=5)
    q1 = MultiTargetQuery(0, 2, (2,))
    q2 = MultiTargetQuery(1, 0, (3,))
    loss_ab, grads_ab = loss_and_gradients(ops, params, [q1, q2])
    loss_ba, grads_ba = loss_and_gradients(ops, params, [q2, q1])
    assert loss_ab == pytest.approx(loss_ba, abs=1e-12)
    for key in grads_ab:
        np.testing.assert_allclose(grads_ab[key], grads_ba[key], atol=1e-12)
    loss_a, grads_a = backward(ops, params, q1)
    loss_b, grads_b = backward(ops, params, q2)
    assert loss_ab == pytest.approx(loss_a + loss_b, abs=1e-10)
    for key in grads_ab:
        np.testing.assert_allclose(
            grads_ab[key], grads_a[key] + grads_b[key], atol=1e-10
        )


# ---------------------------------------------------------------------------
# operator-gradient kernel against the per-operator reference

def kernel_kg():
    """Random graph with self-loops (one shared by two predicates) and an
    operator with no edges."""
    base = random_kg(4, num_entities=9, num_predicates=3, edge_prob=0.3)
    loops = [(2, 0, 2), (2, 1, 2), (5, 2, 5)]
    triples = sorted(set(base.triples) | set(loops))
    return KnowledgeGraph(base.entities, base.predicates + ["none"], triples)


def kernel_inputs(kind, rng, B=4, E=9):
    g = rng.standard_normal((B, E))
    if kind == "one-hot":
        x = np.zeros((B, E))
        x[np.arange(B), rng.integers(0, E, size=B)] = 1.0
    elif kind == "sparse":
        x = rng.random((B, E)) * (rng.random((B, E)) < 0.25)
    elif kind == "dense":
        x = rng.standard_normal((B, E))
    else:  # zero rows among dense ones
        x = rng.standard_normal((B, E))
        x[[0, 2]] = 0.0
    return x, g


KERNEL_INPUTS = ("one-hot", "sparse", "dense", "zero-rows")


def kernel_operator_grads(ops, x, g):
    """<x M_k, g> per operator k from the kernel's reverse mode: every nonzero
    x[b, i] is a row that starts at i with value x[b, i] and crosses one hop,
    and the gradient at the row's level-1 entries is read from g[b]."""
    E, K = ops.num_entities, len(ops)
    b, i = np.nonzero(x)
    prop = _Propagation(ops, np.ones((1, 1, 1, K)), np.zeros(len(i), dtype=int), i)
    keys = prop.keys[1]
    dA = np.zeros((1, 1, 1, K))
    prop.U = [x[b, i][None], None]
    prop.backward(g[b[keys // E], keys % E][None], dA)
    return dA[0, 0, 0]


@pytest.mark.parametrize("kind", KERNEL_INPUTS)
def test_operator_grads_match_per_operator_products(kind):
    kg = kernel_kg()
    ops = build_operators(kg)
    assert ops.predicate_matrix(3).nnz == 0
    assert ops.predicate_matrix(0)[2, 2] == ops.predicate_matrix(1)[2, 2] == 1
    rng = np.random.default_rng(KERNEL_INPUTS.index(kind))
    for _ in range(5):
        x, g = kernel_inputs(kind, rng)
        got = kernel_operator_grads(ops, x, g)
        want = operator_grads_reference(ops, x, g)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got[4] == 0.0  # the operator with no edges


def test_operator_grads_of_all_zero_state():
    ops = build_operators(kernel_kg())
    got = kernel_operator_grads(ops, np.zeros((3, 9)), np.ones((3, 9)))
    assert got.shape == (5,) and not got.any()


# ---------------------------------------------------------------------------
# per-hop edge weights of the propagation kernel

PROPAGATION_CASES = [
    *((L, kind, 1) for L in (1, 2, 3) for kind in ("plain", "excluded", "extra-keys")),
    (2, "plain", 2), (3, "plain", 2), (3, "plain", 3),  # correction chains
    (3, "strided", 1),  # attention that is not C-contiguous
]


@pytest.mark.parametrize("L, kind, first", PROPAGATION_CASES)
def test_stored_edge_weights_are_per_edge_lookups(L, kind, first):
    kg = random_kg(L, num_entities=9, num_predicates=3, edge_prob=0.25)
    ops = build_operators(kg)
    E, K, G, R, B = kg.num_entities, len(ops), 3, 2, 8
    rng = np.random.default_rng(L * 10 + first)
    weights = rng.random((G, R, L, K))
    if kind == "strided":
        weights = np.asfortranarray(weights)
    groups = rng.integers(0, G, size=B)
    # eval-style rows start at the heads of graph triples and may drop them
    h, p, t = kg.triple_array[rng.choice(len(kg.triple_array), size=B)].T
    kwargs = {}
    if kind == "excluded":
        kwargs["excluded"] = (np.where(np.arange(B) % 4 == 3, -1, p + 1), t)
    elif kind == "extra-keys":
        kwargs["extra_keys"] = np.arange(B) * E + rng.integers(0, E, size=B)
    # a correction chain propagates over the hops from `first` on
    prop = _Propagation(ops, weights[:, :, first - 1:], groups, h, **kwargs)
    assert len(prop.edges) == L - first + 1
    for i, (src, _, slot, w) in enumerate(prop.edges):
        g, op = np.divmod(slot, K)
        assert len(src) and w.shape == (R, len(src))
        want = np.array([weights[g, r, first + i - 1, op] for r in range(R)])
        assert np.array_equal(w, want)


# ---------------------------------------------------------------------------
# one matrix LSTM for every predicate of a batch

THREE_PREDICATE_BATCH = [
    MultiTargetQuery(0, 2, (2, 3)),
    MultiTargetQuery(2, 2, (0,)),
    MultiTargetQuery(0, 0, (1,)),
    MultiTargetQuery(1, 1, (2,)),
    MultiTargetQuery(3, 1, (2,)),
]


@pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
def test_batch_of_three_predicates_matches_finite_differences(epsilon_mode):
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(
        kg.num_predicates, rank=2, max_len=3, embed_dim=5, hidden_dim=4,
        seed=13, normalize="l2", epsilon_mode=epsilon_mode,
    )
    check_all_tensors(params, ops, THREE_PREDICATE_BATCH, coords_per_tensor=4)


def test_batch_of_three_predicates_is_sum_of_single_queries():
    kg = four_entity_kg()
    ops = build_operators(kg)
    params = ModelParams(kg.num_predicates, rank=2, max_len=3,
                         embed_dim=5, hidden_dim=4, seed=13)
    loss, grads = loss_and_gradients(ops, params, THREE_PREDICATE_BATCH)
    singles = [backward(ops, params, q) for q in THREE_PREDICATE_BATCH]
    assert loss == pytest.approx(sum(l for l, _ in singles), abs=1e-10)
    for key in grads:
        np.testing.assert_allclose(
            grads[key], sum(g[key] for _, g in singles), atol=1e-10
        )


# ---------------------------------------------------------------------------
# the training step against its written-out reference, bit for bit

def reference_setup(max_len, epsilon_mode="corrected", normalize="l2", rank=2):
    kg = random_kg(5, num_entities=9, num_predicates=3, edge_prob=0.3)
    queries = group_queries(kg.triples)[:8]
    assert max(len(q.targets) for q in queries) > 1
    params = ModelParams(
        kg.num_predicates, rank=rank, max_len=max_len, embed_dim=6, hidden_dim=7,
        seed=19, normalize=normalize, epsilon_mode=epsilon_mode,
    )
    return build_operators(kg), params, queries


# rank 2 keeps the bare max_len id; rank 1 is a stack of one, rank 3 the paper's
@pytest.mark.parametrize("max_len, rank", [
    pytest.param(L, R, id=str(L) if R == 2 else f"{L}-rank{R}")
    for R in (2, 1, 3) for L in (1, 2, 3)
])
@pytest.mark.parametrize("epsilon_mode", ["corrected", "literal"])
@pytest.mark.parametrize("normalize", [None, "l2", "l1"])
def test_gradients_equal_the_unrolled_again_reference(max_len, rank, epsilon_mode,
                                                      normalize):
    # the reference multiplies by the zero initial state, unrolls every cell
    # again, rank by rank, for the backward pass and allocates fresh gradients
    ops, params, queries = reference_setup(max_len, epsilon_mode, normalize, rank)
    loss, grads = loss_and_gradients(ops, params, queries)
    ref_loss, ref_grads = loss_and_gradients_reference(ops, params, queries)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        assert np.array_equal(grads[key], ref_grads[key]), key


@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_gradients_equal_the_reference_over_several_predicates(max_len):
    # the batches above hold one predicate; here the projection's grads sum
    # over several (hop, predicate) rows, in the reference's order
    ops, params, _ = reference_setup(max_len, rank=3)
    queries = group_queries(random_kg(5, num_entities=9, num_predicates=3,
                                      edge_prob=0.3).triples)
    assert len({q.query for q in queries}) == 3
    loss, grads = loss_and_gradients(ops, params, queries)
    ref_loss, ref_grads = loss_and_gradients_reference(ops, params, queries)
    assert loss == ref_loss
    for key in grads:
        assert np.array_equal(grads[key], ref_grads[key]), key


def test_unread_cell_tensors_are_absent_at_one_hop():
    # the one hop reads the forward state after one step, which multiplies
    # no Wh, and the backward cell runs no steps
    ops, params, queries = reference_setup(max_len=1)
    _, grads = loss_and_gradients(ops, params, queries)
    assert grads.keys() == params.tensors.keys()
    for name in ("fwd_Wh", "bwd_Wx", "bwd_Wh", "bwd_b"):
        assert name not in params.tensors
    for r in range(params.rank):
        assert grads["fwd_Wx"][r].any() and grads["fwd_b"][r].any()


def test_out_buffer_is_zero_filled_and_returned():
    # the grads are views of `out`, a vector laid out like the parameters
    ops, params, queries = reference_setup(max_len=2)
    fresh_loss, fresh = loss_and_gradients(ops, params, queries)
    out = np.random.default_rng(0).standard_normal(params.vector.size)
    out[-params.tensors["proj_b"].size :] = np.nan
    loss, grads = loss_and_gradients(ops, params, queries, out=out)
    assert loss == fresh_loss and grads.keys() == params.tensors.keys()
    assert np.array_equal(out, np.concatenate([g.ravel() for g in fresh.values()]))
    for key in fresh:
        assert grads[key].base is out
        assert np.array_equal(grads[key], fresh[key]), key
    with pytest.raises(ValueError, match="does not hold"):
        loss_and_gradients(ops, params, queries, out=out[1:])


def test_calls_without_out_return_distinct_arrays():
    ops, params, queries = reference_setup(max_len=2)
    _, a = loss_and_gradients(ops, params, queries)
    _, b = loss_and_gradients(ops, params, queries)
    for key in a:
        assert not np.shares_memory(a[key], b[key]), key
        assert np.array_equal(a[key], b[key])
