"""Shared fixtures: the six-entity worked example, random graphs, brute-force
oracles, and multi-family kinship datasets from the benchmark's generator."""

import itertools
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from mplr.indicators import EmptySubgraphError, _saturation_scan
from mplr.kg import (
    DEFAULT_GRAPH_SOURCE,
    DatasetSplits,
    KnowledgeGraph,
    LoadSummary,
    Triple,
    TripleParseError,
    load_dataset,
)
from mplr.model import (
    ExtractedRule,
    _BatchForward,
    logit_loss,
    logit_loss_grad,
    loss_and_gradients,
    score_entities,
    sigmoid,
    softmax,
)
from mplr.operators import IDENTITY_OP, RulePattern

# the kinship generator is the benchmark's own (bench/ is not a package)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from datagen import kinship_triples  # noqa: E402

# ---------------------------------------------------------------------------
# six-entity toy graph reproducing the worked adjacency/product matrices

TOY_ENTITIES = ["x1", "x2", "z1", "z2", "z3", "z4"]
TOY_PREDICATES = ["daughterOf", "sisterOf", "auntOf"]
TOY_TRIPLES = [
    ("z1", "daughterOf", "x1"),
    ("z2", "daughterOf", "x1"),
    ("z4", "daughterOf", "x2"),
    ("z1", "sisterOf", "z2"),
    ("z1", "sisterOf", "z4"),
    ("z2", "sisterOf", "z1"),
    ("z2", "sisterOf", "z4"),
    ("z4", "sisterOf", "z1"),
    ("z4", "sisterOf", "z4"),
    ("x2", "auntOf", "z2"),
    ("x2", "auntOf", "z3"),
]

TOY_LINES = [f"{h}\t{p}\t{t}" for h, p, t in TOY_TRIPLES]


def build_toy_kg():
    ents = {e: i for i, e in enumerate(TOY_ENTITIES)}
    preds = {p: i for i, p in enumerate(TOY_PREDICATES)}
    triples = [(ents[h], preds[p], ents[t]) for h, p, t in TOY_TRIPLES]
    return KnowledgeGraph(TOY_ENTITIES, TOY_PREDICATES, triples)


@pytest.fixture
def toy_kg():
    return build_toy_kg()


@pytest.fixture
def toy_dataset_dir(tmp_path):
    """Toy triples as an on-disk dataset (all triples in train, empty valid/test)."""
    d = tmp_path / "toy"
    d.mkdir()
    (d / "train.txt").write_text("".join(line + "\n" for line in TOY_LINES))
    (d / "valid.txt").write_text("")
    (d / "test.txt").write_text("")
    return d


def triple_lines(kg):
    """The graph's triples rendered back to the TAB-separated text format."""
    for h, p, t in kg.triples:
        yield f"{kg.entities[h]}\t{kg.predicates[p]}\t{kg.entities[t]}"


def parse_triple_file_reference(path):
    """The (head, relation, tail) fields of one TAB-separated triple file, as
    a walk over its lines, one check each; raises TripleParseError with the
    line number."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or any(not f.strip() for f in parts):
                raise TripleParseError(
                    f"{path}:{lineno}: expected 3 TAB-separated fields, got {len(parts)}"
                )
            out.append((parts[0].strip(), parts[1].strip(), parts[2].strip()))
    return out


def load_dataset_reference(
    train_path,
    valid_path,
    test_path,
    graph_source: tuple[str, ...] = DEFAULT_GRAPH_SOURCE,
):
    """`load_dataset` as it was before the loader kept the splits as arrays:
    a tuple per line, deduplicated by `dict.fromkeys`, overlaps by set
    intersection, and the graph built from the tuple list.

    Load the three split files into a KnowledgeGraph plus DatasetSplits.

    Vocabularies cover the union of all splits in first-appearance order
    (train, then valid, then test; head, relation, tail within a line). The
    reasoning graph is built from the splits named by `graph_source`. Duplicate
    lines within a split are stored once and counted in the summary; a triple
    appearing in two different splits is an error.

    Returns (kg, splits, summary).
    """
    names = ("train", "valid", "test")
    if not graph_source:
        raise ValueError("graph source names no split (expected train, valid or test)")
    for name in graph_source:
        if name not in names:
            raise ValueError(f"unknown graph source {name!r}")
    raw = [parse_triple_file_reference(p) for p in (train_path, valid_path, test_path)]
    if not raw[0]:
        raise ValueError(f"empty train file: {train_path}")

    # (heads, relations, tails) per split; heads and tails interleave line by
    # line in the entities' first-appearance order
    columns = [tuple(zip(*rows)) or ((), (), ()) for rows in raw]
    entities = list(dict.fromkeys(itertools.chain.from_iterable(
        itertools.chain.from_iterable(zip(h, t)) for h, _, t in columns
    )))
    predicates = list(dict.fromkeys(
        itertools.chain.from_iterable(r for _, r, _ in columns)
    ))
    ent_idx = dict(zip(entities, itertools.count()))
    pred_idx = dict(zip(predicates, itertools.count()))

    splits_idx: dict[str, list[Triple]] = {}
    duplicates: dict[str, int] = {}
    for name, (h, r, t) in zip(names, columns):
        index = zip(map(ent_idx.__getitem__, h), map(pred_idx.__getitem__, r),
                    map(ent_idx.__getitem__, t))
        splits_idx[name] = list(dict.fromkeys(index))  # each triple at its first line
        duplicates[name] = len(h) - len(splits_idx[name])

    for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
        overlap = set(splits_idx[a]) & set(splits_idx[b])
        if overlap:
            raise ValueError(
                f"splits {a} and {b} share {len(overlap)} triples; "
                "splits must be pairwise disjoint"
            )

    graph_triples: list[Triple] = []
    for name in names:
        if name in graph_source:
            graph_triples.extend(splits_idx[name])

    kg = KnowledgeGraph(entities, predicates, graph_triples)
    splits = DatasetSplits(
        splits_idx["train"], splits_idx["valid"], splits_idx["test"], tuple(graph_source)
    )
    summary = LoadSummary(
        num_entities=kg.num_entities,
        num_predicates=kg.num_predicates,
        num_graph_triples=len(kg.triples),
        split_sizes={k: len(v) for k, v in splits_idx.items()},
        duplicates=duplicates,
        graph_source=tuple(graph_source),
    )
    return kg, splits, summary


def group_queries_reference(split):
    """One plain (head, predicate, targets) triple per distinct (head,
    predicate) pair, in first-appearance order, targets deduplicated."""
    targets = {}
    for h, q, t in split:
        ts = targets.setdefault((h, q), [])
        if t not in ts:
            ts.append(t)
    return [(h, q, tuple(ts)) for (h, q), ts in targets.items()]


def write_triples(kg, path):
    Path(path).write_text("".join(line + "\n" for line in triple_lines(kg)),
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# random graphs

def random_kg(seed, num_entities=8, num_predicates=4, edge_prob=0.18):
    """Seeded random multigraph over anonymous entities, no duplicate triples."""
    rng = np.random.default_rng(seed)
    triples = []
    for p in range(num_predicates):
        mask = rng.random((num_entities, num_entities)) < edge_prob
        for h, t in zip(*np.nonzero(mask)):
            triples.append((int(h), p, int(t)))
    if not triples:
        triples = [(0, 0, min(1, num_entities - 1))]
    entities = [f"e{i}" for i in range(num_entities)]
    predicates = [f"p{i}" for i in range(num_predicates)]
    return KnowledgeGraph(entities, predicates, triples)


# ---------------------------------------------------------------------------
# brute-force oracles (kept independent of the library's propagation code)

def adjacency_reference(kg):
    """(out, into): per predicate, vertex -> successor / predecessor list in
    triple order, built from `kg.triples` alone."""
    out = {p: {} for p in range(kg.num_predicates)}
    into = {p: {} for p in range(kg.num_predicates)}
    for h, p, t in kg.triples:
        out[p].setdefault(h, []).append(t)
        into[p].setdefault(t, []).append(h)
    return out, into


def fw_degree(kg, predicate, v):
    """Number of entities reached from v by `predicate` edges (out-degree in G(q))."""
    if not 0 <= v < kg.num_entities:
        raise IndexError(f"entity index {v} out of range")
    return sum(1 for h, p, _ in kg.triples if (h, p) == (v, predicate))


def bw_degree(kg, predicate, v):
    """Number of entities reaching v by `predicate` edges (in-degree in G(q))."""
    if not 0 <= v < kg.num_entities:
        raise IndexError(f"entity index {v} out of range")
    return sum(1 for _, p, t in kg.triples if (p, t) == (predicate, v))


def dfs_count_paths(kg, head, hops, tail, excluded_edge=None):
    """Exhaustive path enumeration; hops are predicate indices, -1 = stay put."""
    out, _ = adjacency_reference(kg)

    def rec(node, i):
        if i == len(hops):
            return 1 if node == tail else 0
        p = hops[i]
        if p == -1:
            return rec(node, i + 1)
        total = 0
        for nxt in out[p].get(node, []):
            if excluded_edge is not None and (node, p, nxt) == tuple(excluded_edge):
                continue
            total += rec(nxt, i + 1)
        return total

    return rec(head, 0)


def oracle_scores(kg, weights, query):
    """Exhaustive weighted-path score with direct-edge multiplicity accounting.

    For every operator sequence (identity = stay) and every concrete entity
    path, the path's weight is the product of per-hop attention entries; a
    path ending at a target t is additionally weighted by (1 - u) where u is
    the number of times it traversed the direct edge (head, q, t).
    """
    R, L, K = weights.shape
    E = kg.num_entities
    out, _ = adjacency_reference(kg)
    targets = set(query.targets)
    s = np.zeros(E)
    for r in range(R):
        for seq in itertools.product(range(K), repeat=L):
            w = 1.0
            for l in range(L):
                w *= weights[r, l, seq[l]]
            if w == 0.0:
                continue

            def walk(node, i, direct_uses):
                if i == L:
                    end = node
                    if end in targets:
                        s[end] += w * (1 - direct_uses.get(end, 0))
                    else:
                        s[end] += w
                    return
                k = seq[i]
                if k == 0:
                    walk(node, i + 1, direct_uses)
                    return
                p = k - 1
                for nxt in out[p].get(node, []):
                    du = direct_uses
                    if p == query.query and node == query.head:
                        du = dict(direct_uses)
                        du[nxt] = du.get(nxt, 0) + 1
                    walk(nxt, i + 1, du)

            walk(query.head, 0, {})
    return s


def recurrence_scores(kg, weights, query, epsilon_mode="corrected", normalize=None):
    """Scores from the per-target correction recurrence, one dense row per target.

    Per rank, the state u_l = u_{l-1} W_l with W_l = sum_k a_{l,k} M_k (M_0 is
    the identity) and, for every target t, a correction row
    eps_l = eps_{l-1} W_l + a_{l,q} * base_l * e_t. The injected base is
    u_{l-1}[head] in the corrected mode; the printed (literal) recurrence uses
    1 at the first hop and u_{l-1}[t] after it. Target t loses eps_L[t], and
    each rank's row is divided by the l1/l2 norm of its uncorrected u_L (left
    alone when that norm is 0). Returns (prediction, per-target corrections).
    Dense matrices only, independent of the library's operators.
    """
    R, L, K = weights.shape
    E = kg.num_entities
    mats = [np.eye(E)] + [np.zeros((E, E)) for _ in range(kg.num_predicates)]
    for h, p, t in kg.triples:
        mats[p + 1][h, t] = 1.0
    targets = np.asarray(query.targets)
    rows = np.arange(len(targets))
    q_op = query.query + 1
    s = np.zeros(E)
    corr_total = np.zeros(len(targets))
    for r in range(R):
        u = np.zeros(E)
        u[query.head] = 1.0
        eps = np.zeros((len(targets), E))
        for l in range(1, L + 1):
            w_l = sum(weights[r, l - 1, k] * mats[k] for k in range(K))
            if epsilon_mode == "corrected":
                base = np.full(len(targets), u[query.head])
            elif l == 1:
                base = np.ones(len(targets))
            else:
                base = u[targets]
            eps = eps @ w_l
            eps[rows, targets] += weights[r, l - 1, q_op] * base
            u = u @ w_l
        corr = eps[rows, targets]
        if normalize == "l2":
            n = np.sqrt(np.dot(u, u))
        elif normalize == "l1":
            n = np.abs(u).sum()
        else:
            n = 1.0
        d = n if n > 0 else 1.0
        pred = u.copy()
        pred[targets] -= corr
        s += pred / d
        corr_total += corr / d
    return s, dict(zip(query.targets, corr_total))


def operator_matrix(ops, k):
    """Operator k of an OperatorSet (0 = identity) as a CSR matrix."""
    if k == IDENTITY_OP:
        return sparse.eye_array(ops.num_entities, dtype=np.float64, format="csr")
    return ops.predicate_matrix(k - 1)


def edge_list_reference(kg):
    """(rows, cols, ops) of every operator's nonzeros, identity first, built
    the long way: one CSR matrix per operator, converted to COO, concatenated
    and stable-sorted by row."""
    n = kg.num_entities
    per_predicate = {p: [] for p in range(kg.num_predicates)}
    for h, p, t in kg.triples:
        per_predicate[p].append((h, t))
    mats = [sparse.eye_array(n, dtype=np.float64, format="csr")]
    for p in range(kg.num_predicates):
        edges = per_predicate[p]
        if edges:
            rows = np.fromiter((h for h, _ in edges), dtype=np.int64)
            cols = np.fromiter((t for _, t in edges), dtype=np.int64)
            data = np.ones(len(edges), dtype=np.float64)
            mats.append(sparse.csr_array((data, (rows, cols)), shape=(n, n)))
        else:
            mats.append(sparse.csr_array((n, n), dtype=np.float64))
    coos = [m.tocoo() for m in mats]
    rows = np.concatenate([c.row for c in coos]).astype(np.int64)
    cols = np.concatenate([c.col for c in coos]).astype(np.int64)
    ops = np.repeat(np.arange(len(coos)), [c.nnz for c in coos])
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], ops[order]


def pattern_table(num_predicates, min_len, max_len):
    """Every hop tuple of length min_len..max_len, one row each, padded with -1.

    Shorter tuples come first, then lexicographic order, so the tuples of
    length m are the C-order ravel of a (num_predicates,) * m array: the
    order `pattern_rows` decodes and the saturation scan's rows follow.
    """
    blocks = []
    for m in range(min_len, max_len + 1):
        block = np.full((num_predicates**m, max_len), -1, dtype=np.int64)
        block[:, :m] = np.indices((num_predicates,) * m).reshape(m, -1).T
        blocks.append(block)
    return np.concatenate(blocks)


def saturation_scan_reference(kg, ops, max_len, active, exclude, chunk=1024):
    """`_saturation_scan` as one forward walk over `OperatorSet.out_edges`.

    Row n starts at the head of triplet n, and level k holds the nonzero
    path counts of the chains of length k under sorted keys (chain * rows +
    row) * |E| + entity, chains in `pattern_table` order. Each level expands
    every out-edge of the one before; the pattern counts of a level are its
    entries at the rows' tails, and the last hop only takes edges into the
    row's tail. With `exclude`, row n never takes the edge (h_n, q_n, t_n).
    The walk runs `chunk` triplets at a time, in graph order.
    """
    num_preds, num_ents = ops.num_predicates, ops.num_entities
    width = len(active)
    slot = np.full(num_preds, -1, dtype=np.int64)
    slot[active] = np.arange(width)
    hs, qs, ts = kg.triple_array[slot[kg.triple_array[:, 1]] >= 0].T
    pattern_ids, triplet_ids, counts = [], [], []
    for lo in range(0, len(hs), chunk):
        h, q, t = (a[lo:lo + chunk] for a in (hs, qs, ts))
        n = len(h)
        chain, row, ent, cnt = np.zeros(n, dtype=np.int64), np.arange(n), h, np.ones(n)
        offset = 0
        for k in range(1, max_len + 1):
            excluded = (h[row], q[row] + 1, t[row]) if exclude else None
            src, nxt, op = ops.out_edges(ent, excluded)
            keep = op > 0
            if k == max_len:
                keep &= nxt == t[row[src]]
            src, nxt, op = src[keep], nxt[keep], op[keep]
            chain = chain[src] * num_preds + op - 1
            keys, inv = np.unique((chain * n + row[src]) * num_ents + nxt,
                                  return_inverse=True)
            cnt = np.bincount(inv, weights=cnt[src], minlength=len(keys))
            chain_row, ent = np.divmod(keys, num_ents)
            chain, row = np.divmod(chain_row, n)
            if k >= 2:
                hit = ent == t[row]
                pattern_ids.append(offset + chain[hit])
                triplet_ids.append(lo + row[hit])
                counts.append(cnt[hit])
                offset += num_preds**k

    num_patterns = len(pattern_table(num_preds, 2, max_len))
    pid, trip, cnt = (np.concatenate(a) for a in (pattern_ids, triplet_ids, counts))
    totals = np.bincount(trip, weights=cnt, minlength=len(hs))
    shares = cnt / totals[trip]
    key = pid * width + slot[qs[trip]]
    nq = np.bincount(slot[qs], minlength=width).astype(np.float64)
    size = num_patterns * width
    gamma = np.bincount(key, minlength=size).reshape(num_patterns, width) / nq
    delta = np.bincount(key, weights=shares, minlength=size).reshape(
        num_patterns, width
    ) / nq
    return gamma, delta


def dense_scan(kg, ops, max_len, active, exclude):
    """`_saturation_scan` as dense (gamma, delta), each (patterns, len(active)),
    zero where the scan stores nothing: the layout of
    `saturation_scan_reference`. Checks that the stored entries run by slot,
    then row, each pair once, and that none has gamma 0."""
    slots, rows, gamma, delta = _saturation_scan(kg, ops, max_len, active, exclude)
    num_patterns = sum(kg.num_predicates**k for k in range(2, max_len + 1))
    assert np.all(np.diff(slots * num_patterns + rows) > 0)
    assert np.all(gamma > 0)
    dense = np.zeros((2, num_patterns, len(active)))
    dense[:, rows, slots] = gamma, delta
    return dense[0], dense[1]


def operator_grads_reference(ops, x, g):
    """<x M_k, g> for every operator k (identity first): one sparse product
    per operator, over the transposed CSR matrices."""
    K = len(ops)
    out = np.empty(K)
    out[0] = np.vdot(x, g)
    xt = np.ascontiguousarray(x.T)
    gt = np.ascontiguousarray(g.T)
    for k in range(1, K):
        out[k] = np.vdot(operator_matrix(ops, k).T.tocsr() @ xt, gt)
    return out


def neural_lp_score(ops, attn, head, tail, *, normalize=None):
    """Chain score of one (head, tail) pair with no direct-edge correction."""
    return float(score_entities(ops, attn, [head], normalize=normalize)[0, tail])


def backward(ops, params, query):
    """Loss and parameter gradients of one query, run as a batch of one."""
    return loss_and_gradients(ops, params, [query])


# ---------------------------------------------------------------------------
# training step references: every product and temporary written out

def model_params_reference(num_predicates, rank, max_len, embed_dim, hidden_dim, seed):
    """The starting tensors `ModelParams` documents, drawn with rng.uniform
    in its order: query_emb, then per rank the forward Wx and Wh and the
    backward Wx and Wh, then proj_W. Every cell weight is drawn; the ones no
    step reads are then left out, and the kept ones are stacked over ranks."""
    rng = np.random.default_rng(seed)
    de, dh = embed_dim, hidden_dim

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    query_emb = uniform((num_predicates, de), de)
    drawn = {}
    for r in range(rank):
        for direction in ("fwd", "bwd"):
            drawn[r, direction, "Wx"] = uniform((de, 4 * dh), de)
            drawn[r, direction, "Wh"] = uniform((dh, 4 * dh), dh)
    proj_W = uniform((2 * dh, num_predicates + 1), 2 * dh)
    bias = np.zeros(4 * dh)
    bias[dh : 2 * dh] = 1.0  # the forget gate
    tensors = {"query_emb": query_emb}
    for direction, steps in (("fwd", max_len), ("bwd", max_len - 1)):
        if steps >= 1:
            tensors[f"{direction}_Wx"] = np.stack(
                [drawn[r, direction, "Wx"] for r in range(rank)])
        if steps >= 2:
            tensors[f"{direction}_Wh"] = np.stack(
                [drawn[r, direction, "Wh"] for r in range(rank)])
        if steps >= 1:
            tensors[f"{direction}_b"] = np.stack([bias] * rank)
    tensors["proj_W"] = proj_W
    tensors["proj_b"] = np.zeros(num_predicates + 1)
    return tensors


def _cell_tensors(params, tensors, r, direction):
    """Wx, Wh and b of one direction of cell r, read from `tensors` (the
    parameters or their gradients). A cell tensor the parameters lack reads
    as a fresh zero array: its products reach only states that no hop reads,
    and a gradient written to it is thrown away."""
    de, dh = params.embed_dim, params.hidden_dim
    key = f"{direction}_"
    shapes = {"Wx": (de, 4 * dh), "Wh": (dh, 4 * dh), "b": (4 * dh,)}
    return [tensors[key + n][r] if key + n in tensors else np.zeros(shape)
            for n, shape in shapes.items()]


def _run_cell_reference(params, r, direction, x, steps):
    """One direction of cell r unrolled with the zero state multiplied in."""
    dh = params.hidden_dim
    Wx, Wh, b = _cell_tensors(params, params.tensors, r, direction)
    zx = x @ Wx + b
    h = np.zeros((len(x), dh))
    c = np.zeros((len(x), dh))
    hs, caches = [], []
    for _ in range(steps):
        z = zx + h @ Wh
        s = sigmoid(z)
        i, f, o = s[:, :dh], s[:, dh : 2 * dh], s[:, 3 * dh :]
        g = np.tanh(z[:, 2 * dh : 3 * dh])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        hs.append(h)
        caches.append((i, f, g, o, tc, c_prev, h_prev))
    return hs, caches


def _rank_unroll_reference(params, r, x):
    L = params.max_len
    fwd_h, fwd_caches = _run_cell_reference(params, r, "fwd", x, L)
    bwd_h, bwd_caches = _run_cell_reference(params, r, "bwd", x, L)
    zero = np.zeros_like(fwd_h[0])
    att_in = np.stack([
        np.concatenate([fwd_h[l], bwd_h[L - 2 - l] if l < L - 1 else zero], axis=1)
        for l in range(L)
    ])
    return att_in, fwd_caches, bwd_caches


def _cell_backward_reference(params, r, direction, x, caches, dh_steps, grads):
    """BPTT through every step, the zero state's products and the dead
    carries after step 0 included."""
    dh = params.hidden_dim
    Wx, Wh, _ = _cell_tensors(params, params.tensors, r, direction)
    gWx, gWh, gb = _cell_tensors(params, grads, r, direction)
    dz_sum = np.zeros((len(x), 4 * dh))
    dh_carry = np.zeros((len(x), dh))
    dc_carry = np.zeros((len(x), dh))
    for step in reversed(range(len(caches))):
        i, f, g, o, tc, c_prev, h_prev = caches[step]
        dh_total = dh_steps[step] + dh_carry
        do = dh_total * tc
        dc = dh_total * o * (1.0 - tc * tc) + dc_carry
        dc_carry = dc * f
        dz = np.concatenate(
            [dc * g * i * (1 - i), dc * c_prev * f * (1 - f), dc * i * (1 - g * g),
             do * o * (1 - o)],
            axis=1,
        )
        gWh += h_prev.T @ dz
        dz_sum += dz
        dh_carry = dz @ Wh.T
    gWx += x.T @ dz_sum
    gb += dz_sum.sum(axis=0)
    return dz_sum @ Wx.T


def loss_and_gradients_reference(ops, params, queries):
    """`loss_and_gradients` with the attention unrolled again, rank by rank,
    for the backward pass and fresh gradient arrays."""
    L, dh = params.max_len, params.hidden_dim
    index = {}
    groups = [index.setdefault(q.query, len(index)) for q in queries]
    preds = np.asarray(list(index), dtype=np.int64)
    x = params.tensors["query_emb"][preds]
    W, b = params.tensors["proj_W"], params.tensors["proj_b"]
    weights = np.empty((len(x), params.rank, L, params.num_operators))
    for r in range(params.rank):
        att_in, _, _ = _rank_unroll_reference(params, r, x)
        weights[:, r] = softmax(att_in @ W + b).transpose(1, 0, 2)
    fwd = _BatchForward(
        ops, weights, preds, groups,
        [q.head for q in queries], [q.targets for q in queries],
        epsilon_mode=params.epsilon_mode, normalize=params.normalize,
    )
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    dA = fwd.backward(logit_loss_grad(fwd.s, fwd.v))
    dx = np.zeros_like(x)
    for r in range(params.rank):
        att_in, fwd_caches, bwd_caches = _rank_unroll_reference(params, r, x)
        a = weights[:, r].transpose(1, 0, 2)
        dAr = dA[:, r].transpose(1, 0, 2)
        dlogits = a * (dAr - np.sum(dAr * a, axis=2, keepdims=True))
        grads["proj_W"] += att_in.reshape(-1, 2 * dh).T @ dlogits.reshape(-1, W.shape[1])
        grads["proj_b"] += dlogits.sum(axis=(0, 1))
        dhid = dlogits @ W.T
        dfwd = dhid[:, :, :dh]
        dbwd = np.zeros_like(dfwd)
        dbwd[: L - 1] = dhid[: L - 1, :, dh:][::-1]
        dx += _cell_backward_reference(params, r, "fwd", x, fwd_caches, dfwd, grads)
        dx += _cell_backward_reference(params, r, "bwd", x, bwd_caches, dbwd, grads)
    grads["query_emb"][preds] += dx
    return fwd.loss(), grads


def adam_step_reference(adam, vector, grad):
    """One Adam step of `adam` (an AdamOptimizer) with a fresh array for every
    intermediate: m and v are rebound, the vector updated in place."""
    adam.t += 1
    bc1 = 1.0 - adam.beta1**adam.t
    bc2 = 1.0 - adam.beta2**adam.t
    adam.m = adam.beta1 * adam.m + (1 - adam.beta1) * grad
    adam.v = adam.beta2 * adam.v + (1 - adam.beta2) * grad * grad
    m_hat = adam.m / bc1
    v_hat = adam.v / bc2
    vector -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


@dataclass(frozen=True)
class Operator:
    """One adjacency operator; `predicate` is the operator-axis index (0 = identity)."""

    predicate: int
    matrix: object


def operators_of(ops):
    """Every operator of an OperatorSet, identity first."""
    return [Operator(k, operator_matrix(ops, k)) for k in range(len(ops))]


def propagate(state, op):
    """Left vector-matrix product state^T M; entry j = sum_i state[i] * M[i, j]."""
    return np.asarray(state, dtype=np.float64) @ op.matrix


def enumerate_patterns(num_predicates, min_len, max_len):
    """All predicate tuples of length min_len..max_len, shorter first, lexicographic."""
    if not 1 <= min_len <= max_len:
        raise ValueError(f"invalid length range [{min_len}, {max_len}]")
    for length in range(min_len, max_len + 1):
        for hops in itertools.product(range(num_predicates), repeat=length):
            yield RulePattern(hops)


@dataclass
class ScoreResult:
    """Joint prediction for one multi-target query.

    `prediction[t] = uncorrected[t] - per_target_corrections[t]` for every
    target; non-target coordinates carry the plain propagated score.
    """

    prediction: np.ndarray
    per_target_corrections: dict
    loss: float
    uncorrected: np.ndarray


def score_query(ops, attn, query, *, epsilon_mode="corrected", normalize=None):
    """Score every entity for one (head, predicate, targets) query.

    Runs the reasoner's forward pass on a batch of one query and scatters its
    support values to dense rows. The per-target corrections are the closed
    form sum_l a_q(l) * base_l * D_l(t) the forward pass keeps, rank by rank.
    """
    fwd = _BatchForward(
        ops,
        attn.weights[None],
        [query.query],
        [0],
        [query.head],
        [list(query.targets)],
        epsilon_mode=epsilon_mode,
        normalize=normalize,
    )
    ent = fwd.keys % ops.num_entities
    s = np.zeros(ops.num_entities)
    s[ent] = fwd.s
    uncorrected = np.zeros(ops.num_entities)
    corr_total = np.zeros(len(query.targets))
    for U, corr, d in zip(fwd.U[-1], fwd.corr, fwd.divisors):
        uncorrected[ent] += U / d[0]
        corr_total += corr / d[0]
    v = np.zeros(ops.num_entities)
    v[list(query.targets)] = 1.0
    return ScoreResult(
        prediction=s,
        per_target_corrections={t: float(c) for t, c in zip(query.targets, corr_total)},
        loss=logit_loss(s, v),
        uncorrected=uncorrected,
    )


def rules_reference(attn, query, top_n=10):
    """Rule extraction by walking all (|P|+1)^L hop sequences.

    Each sequence gets confidence sum_r prod_l a[r][l][hop]; sequences
    collapse by dropping identity hops, and the confidences of sequences
    collapsing to the same rule add up in sequence order. The empty
    (all-identity) rule is dropped.
    """
    weights = attn.weights
    R, L, K = weights.shape
    conf = np.zeros(K**L)
    for r in range(R):
        v = np.ones(1)
        for l in range(L):
            v = (v[:, None] * weights[r, l][None, :]).ravel()
        conf += v
    merged = {}
    for idx, seq in enumerate(itertools.product(range(K), repeat=L)):
        hops = tuple(k - 1 for k in seq if k != 0)
        if not hops or conf[idx] == 0.0:
            continue
        merged[hops] = merged.get(hops, 0.0) + conf[idx]
    ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        ExtractedRule(RulePattern(hops), float(c), query)
        for hops, c in ranked[:top_n]
    ]


def _chain_index(chain, base):
    """Position of `chain` among the chains of its length, lexicographically."""
    index = 0
    for p in chain:
        index = index * base + p
    return index


def pattern_saturation(kg, pattern, predicate, max_len, exclude):
    """(gamma, delta) of one pattern, read off the scan of `predicate`."""
    if len(pattern) > max_len:
        raise ValueError(f"pattern length {len(pattern)} exceeds max_len {max_len}")
    if len(pattern) < 2 or not all(0 <= p < kg.num_predicates for p in pattern.hops):
        raise ValueError(f"not a saturation pattern: {pattern.hops}")
    if kg.num_edges(predicate) == 0:
        raise EmptySubgraphError(f"empty subgraph for predicate {predicate}")
    gamma, delta = dense_scan(kg, kg.operators, max_len, [predicate], exclude)
    row = sum(kg.num_predicates**m for m in range(2, len(pattern))) + _chain_index(
        pattern.hops, kg.num_predicates
    )
    return float(gamma[row, 0]), float(delta[row, 0])


def macro_saturation(kg, pattern, predicate, *, exclude_direct_edge=True):
    """Fraction of (h, predicate, t) triplets connected by at least one pattern path."""
    return pattern_saturation(
        kg, pattern, predicate, len(pattern), exclude_direct_edge
    )[0]


def micro_saturation(kg, pattern, predicate, max_len, *, exclude_direct_edge=True):
    """Mean per-triplet share of pattern paths among all paths of length <= max_len.

    Triplets with no connecting path at all contribute share 0 (the average
    still divides by the full subgraph edge count).
    """
    return pattern_saturation(kg, pattern, predicate, max_len, exclude_direct_edge)[1]


def comprehensive_saturation(gamma, delta):
    if not (0.0 <= gamma <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValueError("saturations must lie in [0, 1]")
    return gamma * delta


def naive_bernoulli_loss(s, v):
    """Direct -sum v log sigma(s) + (1-v) log sigma(-s); fine for |s| <= 20."""
    s = np.asarray(s, dtype=np.float64)

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    return float(-np.sum(v * np.log(sig(s)) + (1 - v) * np.log(sig(-s))))


# ---------------------------------------------------------------------------
# synthetic multi-family kinship data

def make_family_triples(num_clans=3, seed=0, groups=1):
    """Two-generation family trees with the twelve kinship relations closed
    over each tree: the benchmark's generator (`bench/datagen.py`) with 2-3
    children per clan and 1-3 grandchildren per child; with groups > 1 each
    relation r becomes the copies r_g0 .. r_g{groups-1}, clan c using copy
    c % groups."""
    return kinship_triples(random.Random(seed), num_clans, (2, 3), (1, 3), groups)


def write_family_dataset(root, num_clans=3, seed=0, fractions=(0.84, 0.08, 0.08),
                         groups=1):
    """`make_family_triples`, shuffled from seed + 1 and split to disk."""
    triples = make_family_triples(num_clans, seed, groups)
    rng = random.Random(seed + 1)
    rng.shuffle(triples)
    n = len(triples)
    n_train = int(fractions[0] * n)
    n_valid = int(fractions[1] * n)
    parts = {
        "train.txt": triples[:n_train],
        "valid.txt": triples[n_train : n_train + n_valid],
        "test.txt": triples[n_train + n_valid :],
    }
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, rows in parts.items():
        (root / name).write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows)
        )
    return root


@pytest.fixture(scope="session")
def family_dataset_dir(tmp_path_factory):
    return write_family_dataset(tmp_path_factory.mktemp("kin") / "families")


@pytest.fixture(scope="session")
def family_data(family_dataset_dir):
    d = family_dataset_dir
    return load_dataset(d / "train.txt", d / "valid.txt", d / "test.txt")


# ---------------------------------------------------------------------------
# benchmark dataset discovery (used by the acceptance suite)

def benchmark_dir(name):
    """Path to a real benchmark dataset if present, else None.

    Looks under $MPLR_DATA_DIR (default ./data) for <name>/{train,valid,test}.txt.
    """
    root = Path(os.environ.get("MPLR_DATA_DIR", "data"))
    d = root / name
    if all((d / f).is_file() for f in ("train.txt", "valid.txt", "test.txt")):
        return d
    return None


def require_benchmark(name):
    d = benchmark_dir(name)
    if d is None:
        pytest.skip(
            f"benchmark dataset {name!r} not available: place train.txt/valid.txt/"
            f"test.txt under $MPLR_DATA_DIR/{name} (default ./data/{name}); "
            "this sandbox has no network access to fetch it"
        )
    return d
