"""Differentiable multi-target rule reasoner over sparse relational operators.

A query predicate is embedded and fed (at every step) through R independent
bidirectional recurrent cells; each step's concatenated hidden states pass
through a shared linear projection and softmax, yielding per-hop attention
distributions over the |P|+1 operators (identity first). Scoring propagates a
one-hot head vector through the attention-weighted operator sums W_1..W_L and
subtracts, per target, the score mass the target receives from traversing
its own direct edge - the multi-target replacement for deleting edges from
the graph. That mass has a closed form: what enters the direct edge at hop l
(the mode-dependent base) times the return entry (W_{l+1} ... W_L)[t, t],
which depends on the predicate and the target but not on the query.

Every operator, the identity included, has a weight at every hop, so the
entities a query reaches in l hops do not depend on the attention. States
live only on that support, as (row, entity) keys, and one edge-list kernel
propagates them forward and back, in training and in evaluation. An entity
off the support scores 0: it adds log 2 to the loss and counts in closed
form when ranking. Evaluation scores the test queries in fixed chunks.

All gradients are exact reverse-mode, hand-derived, and validated against
central finite differences in the test suite. Everything is deterministic
given the seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .operators import OperatorSet, RulePattern, pattern_table, top_patterns

GATE_ORDER = "ifgo"  # slices of the fused 4*hidden gate tensors

CORRECTED = "corrected"
LITERAL = "literal"
EPSILON_MODES = (CORRECTED, LITERAL)
NORMALIZE_MODES = (None, "l1", "l2")


def softmax(x):
    """Softmax over the last axis."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class ModelParams:
    """All trainable state: query embeddings, R bidirectional cells, shared projection.

    Tensors live in an ordered dict so optimizers and gradient checks can
    iterate them generically. Gate weights are fused (input, forget, candidate,
    output); forget biases start at 1.0, everything else from symmetric uniform
    ranges scaled by fan-in, all drawn from the seed. `predicates` optionally
    names the predicate vocabulary, in index order; checkpoints record it so a
    model is only ever applied to the vocabulary it was trained on.
    """

    def __init__(
        self,
        num_predicates,
        rank=3,
        max_len=2,
        embed_dim=128,
        hidden_dim=128,
        seed=0,
        normalize="l2",
        epsilon_mode=CORRECTED,
        predicates=None,
    ):
        if normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}")
        if epsilon_mode not in EPSILON_MODES:
            raise ValueError(f"epsilon_mode must be one of {EPSILON_MODES}")
        if min(num_predicates, rank, max_len, embed_dim, hidden_dim) < 1:
            raise ValueError("all model dimensions must be positive")
        if predicates is not None and len(predicates) != num_predicates:
            raise ValueError(
                f"{len(predicates)} predicate names for {num_predicates} predicates"
            )
        self.num_predicates = num_predicates
        self.rank = rank
        self.max_len = max_len
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.normalize = normalize
        self.epsilon_mode = epsilon_mode
        self.predicates = None if predicates is None else list(predicates)

        rng = np.random.default_rng(seed)

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        dh, de = hidden_dim, embed_dim
        self.tensors: dict[str, np.ndarray] = {}
        self.tensors["query_emb"] = uniform((num_predicates, de), de)
        for r in range(rank):
            for direction in ("fwd", "bwd"):
                self.tensors[f"cell{r}_{direction}_Wx"] = uniform((de, 4 * dh), de)
                self.tensors[f"cell{r}_{direction}_Wh"] = uniform((dh, 4 * dh), dh)
                b = np.zeros(4 * dh)
                b[dh : 2 * dh] = 1.0
                self.tensors[f"cell{r}_{direction}_b"] = b
        self.tensors["proj_W"] = uniform((2 * dh, num_predicates + 1), 2 * dh)
        self.tensors["proj_b"] = np.zeros(num_predicates + 1)

    @property
    def num_operators(self):
        return self.num_predicates + 1

    def zero_grads(self):
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def copy(self):
        dup = ModelParams.__new__(ModelParams)
        dup.__dict__.update(self.__dict__)
        dup.tensors = {k: v.copy() for k, v in self.tensors.items()}
        return dup

    def meta(self):
        return {
            "num_predicates": self.num_predicates,
            "rank": self.rank,
            "max_len": self.max_len,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "seed": self.seed,
            "normalize": self.normalize,
            "epsilon_mode": self.epsilon_mode,
            "predicates": self.predicates,
            "gate_order": GATE_ORDER,
        }


def save_checkpoint(params: ModelParams, path) -> None:
    """Self-describing container: hyperparameters plus every tensor, bit-exact."""
    meta = json.dumps(params.meta()).encode()
    with open(path, "wb") as fh:
        np.savez(
            fh,
            __meta__=np.frombuffer(meta, dtype=np.uint8),
            **params.tensors,
        )


def load_checkpoint(path) -> ModelParams:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"].tobytes()))
        gate_order = meta.pop("gate_order")
        if gate_order != GATE_ORDER:
            raise ValueError(f"checkpoint gate order {gate_order!r} unsupported")
        params = ModelParams(**meta)
        for key in params.tensors:
            params.tensors[key] = data[key].copy()
    return params


@dataclass
class AttentionTensor:
    """Per-rank, per-hop distributions over the |P|+1 operators (identity at 0)."""

    weights: np.ndarray  # (R, L, |P|+1)

    def __post_init__(self):
        if self.weights.ndim != 3:
            raise ValueError("attention tensor must be rank x hops x operators")


def _run_cell(params, r, direction, x, steps):
    """Unroll one direction of cell r over the (G, embed) inputs x, fed at every step."""
    dh = params.hidden_dim
    key = f"cell{r}_{direction}_"
    Wh = params.tensors[key + "Wh"]
    zx = x @ params.tensors[key + "Wx"] + params.tensors[key + "b"]
    h = np.zeros((len(x), dh))
    c = np.zeros((len(x), dh))
    hs, caches = [], []
    for _ in range(steps):
        z = zx + h @ Wh
        i = expit(z[:, :dh])
        f = expit(z[:, dh : 2 * dh])
        g = np.tanh(z[:, 2 * dh : 3 * dh])
        o = expit(z[:, 3 * dh :])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        hs.append(h)
        caches.append((i, f, g, o, tc, c_prev, h_prev))
    return hs, caches


def _rank_unroll(params, r, x):
    """Both directions of cell r over the (G, embed) inputs x.

    Returns the per-hop attention inputs, shape (L, G, 2 * hidden), and each
    direction's step caches. Hop i (1-based) reads the forward state after i
    steps concatenated with the backward state after L-i steps; "after 0
    steps" is the zero initial state, so the deepest hop sees only the
    forward direction.
    """
    L = params.max_len
    fwd_h, fwd_caches = _run_cell(params, r, "fwd", x, L)
    bwd_h, bwd_caches = _run_cell(params, r, "bwd", x, L)
    zero = np.zeros_like(fwd_h[0])
    att_in = np.stack([
        np.concatenate([fwd_h[l], bwd_h[L - 2 - l] if l < L - 1 else zero], axis=1)
        for l in range(L)
    ])
    return att_in, fwd_caches, bwd_caches


def _attention_forward(params: ModelParams, queries):
    """Attention weights of shape (G, R, L, K) for G distinct query predicates.

    Each rank is one matrix LSTM unroll per direction over all G rows. Only
    the weights are kept: `_attention_backward` unrolls again, one rank at a
    time, so a batch never holds every rank's step caches at once.
    """
    x = params.tensors["query_emb"][np.asarray(queries, dtype=np.int64)]
    W, b = params.tensors["proj_W"], params.tensors["proj_b"]
    weights = np.empty((len(x), params.rank, params.max_len, params.num_operators))
    for r in range(params.rank):
        att_in, _, _ = _rank_unroll(params, r, x)
        weights[:, r] = softmax(att_in @ W + b).transpose(1, 0, 2)
    return weights


def attention_forward(params: ModelParams, query: int) -> AttentionTensor:
    return AttentionTensor(_attention_forward(params, [query])[0])


def _cell_backward(params, r, direction, x, caches, dh_steps, grads):
    """BPTT through one direction over all G rows; dh_steps[i] is the external
    grad on step i's h. Adds the cell's weight grads to `grads`, returns dL/dx.

    The input x is the same at every step, so its weight and input grads come
    from the summed gate grads: gWx = x^T sum_steps dZ.
    """
    dh = params.hidden_dim
    key = f"cell{r}_{direction}_"
    Wh = params.tensors[key + "Wh"]
    gWh = grads[key + "Wh"]
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
    grads[key + "Wx"] += x.T @ dz_sum
    grads[key + "b"] += dz_sum.sum(axis=0)
    return dz_sum @ params.tensors[key + "Wx"].T


def _attention_backward(params, queries, weights, dA, grads):
    """Accumulate parameter grads given the (G, R, L, K) attention weights of
    `queries` and dL/d(weights).

    One pass per rank and direction covers all G predicates; the projection's
    grads are one matmul over every (hop, predicate) row.
    """
    L, dh = params.max_len, params.hidden_dim
    W = params.tensors["proj_W"]
    queries = np.asarray(queries, dtype=np.int64)
    x = params.tensors["query_emb"][queries]
    dx = np.zeros_like(x)
    for r in range(params.rank):
        att_in, fwd_caches, bwd_caches = _rank_unroll(params, r, x)
        a = weights[:, r].transpose(1, 0, 2)  # (L, G, K)
        dAr = dA[:, r].transpose(1, 0, 2)
        dlogits = a * (dAr - np.sum(dAr * a, axis=2, keepdims=True))
        grads["proj_W"] += att_in.reshape(-1, 2 * dh).T @ dlogits.reshape(-1, W.shape[1])
        grads["proj_b"] += dlogits.sum(axis=(0, 1))
        dhid = dlogits @ W.T
        dfwd = dhid[:, :, :dh]
        dbwd = np.zeros_like(dfwd)
        dbwd[: L - 1] = dhid[: L - 1, :, dh:][::-1]  # hop l reads step L-2-l
        dx += _cell_backward(params, r, "fwd", x, fwd_caches, dfwd, grads)
        dx += _cell_backward(params, r, "bwd", x, bwd_caches, dbwd, grads)
    grads["query_emb"][queries] += dx


# ---------------------------------------------------------------------------
# scoring

def logit_loss(s, v):
    """Stabilized multi-label Bernoulli negative log-likelihood with logits."""
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if s.shape != v.shape:
        raise ValueError(f"shape mismatch {s.shape} vs {v.shape}")
    if not (np.isfinite(s).all() and np.isfinite(v).all()):
        raise ValueError("non-finite input to loss")
    return float(np.sum(np.maximum(s, 0.0) - v * s + np.log1p(np.exp(-np.abs(s)))))


def logit_loss_grad(s, v):
    return expit(np.asarray(s, dtype=np.float64)) - v


def _norm_divisors(u, row, num_rows, normalize):
    """Per-row norms of the stored values u (row[i] owns u[i]) and their divisors."""
    if normalize is None:
        return None, np.ones(num_rows)
    if normalize == "l2":
        n = np.sqrt(np.bincount(row, weights=u * u, minlength=num_rows))
    elif normalize == "l1":
        n = np.bincount(row, weights=np.abs(u), minlength=num_rows)
    else:
        raise ValueError(f"unknown normalize mode {normalize!r}")
    return n, np.where(n > 0, n, 1.0)


def _lookup(keys, wanted):
    """Positions of `wanted` in the sorted `keys`, and whether each is there."""
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return pos, keys[pos] == wanted


class _Propagation:
    """Rows pushed through hops first..L of the attention-weighted operators.

    Row b starts as e_{starts[b]} and is weighted by weights[groups[b]], a
    (R, L, K) slice of the (G, R, L, K) attention. Every operator, the identity
    included, has a weight at every hop, so the entities a row reaches do not
    depend on the rank or on the attention values. The support of each level
    is built once, as sorted keys row * |E| + entity, together with the edges
    that enter it: source position at the level before, destination position,
    a (group, operator) slot and the per-rank edge weights. A value is
    bincount(dst, u[src] * w); nothing is pruned, so exact zeros stay stored.
    `extra_keys` are added to the last level; `excluded` = (operator, tail)
    per row drops the edge (start, operator, tail) wherever it occurs
    (operator -1: none).
    """

    def __init__(self, ops, weights, groups, starts, *, first=1, extra_keys=None,
                 excluded=None):
        G, R, L, K = weights.shape
        if K != len(ops):
            raise ValueError(f"attention over {K} operators does not match graph "
                             f"with {ops.num_predicates} predicates")
        E = ops.num_entities
        starts = np.asarray(starts, dtype=np.int64)
        groups = np.asarray(groups, dtype=np.int64)
        self.num_rows, self.num_slots, self.first = len(starts), G * K, first
        keys = np.arange(len(starts)) * E + starts
        self.keys = [keys]
        self.edges = []  # per hop: (src, dst, slot, (R, n) weights)
        for hop in range(first, L + 1):
            src, ent, op = ops.out_edges(keys % E)
            row = keys[src] // E
            if excluded is not None:
                x_op, x_tail = excluded
                keep = ~((op == x_op[row]) & (ent == x_tail[row])
                         & (keys[src] == row * E + starts[row]))
                src, ent, op, row = src[keep], ent[keep], op[keep], row[keep]
            new = row * E + ent
            if hop == L and extra_keys is not None:
                new = np.concatenate([new, extra_keys])
            keys, inv = np.unique(new, return_inverse=True)
            g = groups[row]
            self.keys.append(keys)
            self.edges.append(
                (src, inv[: len(src)], g * K + op,
                 np.ascontiguousarray(weights[g, :, hop - 1, op].T))
            )

    def forward(self, r):
        """Values of rank r at every level, starting from 1 at each row's start."""
        U = [np.ones(self.num_rows)]
        for (src, dst, _, w), keys in zip(self.edges, self.keys[1:]):
            U.append(np.bincount(dst, weights=U[-1][src] * w[r], minlength=len(keys)))
        return U

    def backward(self, r, U, dU, dA, inject=None):
        """Reverse mode of rank r from dU, the gradient at the last level.

        Adds each hop's operator gradients, bincount(slot, U[src] * dU[dst]),
        to dA[:, r] of shape (G, L, K). inject[i] = (positions, values) is
        added to the gradient of level i on the way down.
        """
        G = dA.shape[0]
        for i in reversed(range(len(self.edges))):
            src, dst, slot, w = self.edges[i]
            g = dU[dst]
            dA[:, r, self.first + i - 1] += np.bincount(
                slot, weights=U[i][src] * g, minlength=self.num_slots
            ).reshape(G, -1)
            if i == 0:
                break
            dU = np.bincount(src, weights=w[r] * g, minlength=len(self.keys[i]))
            if inject is not None and inject[i] is not None:
                np.add.at(dU, *inject[i])


class _BatchForward:
    """Forward pass of a batch of multi-target queries over their support.

    Row b is the query (heads[b], preds[groups[b]], target_lists[b]) with
    attention weights[groups[b]]. The correction of (row b, target t) is the
    closed form corr(b, t) = sum_l a_q(l) * base_l(b, t) * D_l(t): mass base_l
    enters the direct edge (h_b, q, t) at hop l and D_l(t) = (W_{l+1} ...
    W_L)[t, t] is the share of it that returns to t over the remaining hops.
    D_L = 1; D_l for l < L is a chain on the same kernel from e_t over hops
    l+1..L, one row per distinct (predicate, target), read at t. Targets are
    stored at the last level even where the graph does not reach them, so
    their prediction is -corr there. An entity outside the support and the
    targets scores 0, so the loss is the sum over the stored entries plus
    log 2 for each of the others. Everything reverse mode needs is kept.
    """

    def __init__(self, ops, weights, preds, groups, heads, target_lists,
                 epsilon_mode=CORRECTED, normalize=None):
        G, R, L, K = weights.shape
        E = ops.num_entities
        groups = np.asarray(groups, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        B = len(heads)
        t_row = np.repeat(np.arange(B), [len(ts) for ts in target_lists])
        t_ent = np.concatenate([np.asarray(ts, dtype=np.int64) for ts in target_lists])
        t_key = t_row * E + t_ent
        self.weights, self.normalize, self.num_cells = weights, normalize, B * E
        self.q_op = np.asarray(preds, dtype=np.int64) + 1
        self.t_grp = groups[t_row]
        self.prop = _Propagation(ops, weights, groups, heads, extra_keys=t_key)
        self.keys = self.prop.keys[L]
        self.row = self.keys // E
        self.t_pos = np.searchsorted(self.keys, t_key)
        self.v = np.zeros(len(self.keys))
        self.v[self.t_pos] = 1.0
        # base_l reads (b, h_b) at level l-1, or (b, t) in the literal mode
        # after hop 1 (at hop 1 both are 1)
        self.base_at = [
            _lookup(self.prop.keys[l - 1],
                    t_key if epsilon_mode == LITERAL and l > 1 else t_row * E + heads[t_row])
            for l in range(1, L + 1)
        ]
        c_key, self.c_slot = np.unique(self.t_grp * E + t_ent, return_inverse=True)
        c_ent = c_key % E
        self.chains = [
            _Propagation(ops, weights, c_key // E, c_ent, first=l + 1)
            for l in range(1, L)
        ]
        self.c_read = [
            np.searchsorted(ch.keys[-1], np.arange(len(c_key)) * E + c_ent)
            for ch in self.chains
        ]
        # a_q(l) per target: (n_targets, R, L)
        self.a_q = weights[np.arange(G), :, :, self.q_op][self.t_grp]

        per_rank = []
        s = np.zeros(len(self.keys))
        for r in range(R):
            U = self.prop.forward(r)
            chain_U = [ch.forward(r) for ch in self.chains]
            D = [cu[-1][read][self.c_slot] for cu, read in zip(chain_U, self.c_read)]
            D.append(np.ones(len(t_key)))
            base = [np.where(found, u[pos], 0.0)
                    for u, (pos, found) in zip(U, self.base_at)]
            corr = sum(self.a_q[:, r, l] * base[l] * D[l] for l in range(L))
            pred = U[L].copy()
            pred[self.t_pos] -= corr
            n, d = _norm_divisors(U[L], self.row, B, normalize)
            s += pred / d[self.row]
            per_rank.append((U, chain_U, D, base, corr, pred, n, d))
        (self.U, self.chain_U, self.D, self.base, self.corr, self.pred, self.norms,
         self.divisors) = zip(*per_rank)
        self.s = s

    def loss(self):
        stored = logit_loss(self.s, self.v)
        return stored + (self.num_cells - len(self.s)) * np.log(2.0)

    def backward(self, ds):
        """dL/d(attention weights), shape (G, R, L, K), given dL/ds on the support."""
        G, R, L, K = self.weights.shape
        row = self.row
        dA = np.zeros((G, R, L, K))
        for r in range(R):
            d = self.divisors[r]
            dPred = ds / d[row]
            dU = dPred.copy()
            if self.normalize is not None:
                dn = -np.bincount(row, weights=ds * self.pred[r], minlength=len(d)) / (d * d)
                dn = np.where(self.norms[r] > 0, dn, 0.0)
                if self.normalize == "l2":
                    dU += (dn / d)[row] * self.U[r][L]
                else:  # l1, states are non-negative
                    dU += dn[row]
            dCorr = -dPred[self.t_pos]
            inject = [None] * L
            for l in range(L):
                base, D, a_q = self.base[r][l], self.D[r][l], self.a_q[:, r, l]
                dA[np.arange(G), r, l, self.q_op] += np.bincount(
                    self.t_grp, weights=dCorr * base * D, minlength=G
                )
                if l > 0:
                    pos, found = self.base_at[l]
                    inject[l] = (pos[found], (dCorr * a_q * D)[found])
                if l < L - 1:
                    chain, read = self.chains[l], self.c_read[l]
                    dY = np.zeros(len(chain.keys[-1]))
                    dY[read] = np.bincount(
                        self.c_slot, weights=dCorr * a_q * base, minlength=len(read)
                    )
                    chain.backward(r, self.chain_U[r][l], dY, dA)
            self.prop.backward(r, self.U[r], dU, dA, inject)
        return dA


def support_scores(ops, weights, groups, heads, *, excluded=None, normalize=None):
    """Correction-free scores of each row on its support: (keys, scores).

    Row b starts at heads[b] with attention weights[groups[b]]; keys are
    row * |E| + entity, and every entity not in them scores 0. `excluded` is
    an (operator, tail) pair per row: the edge (heads[b], operator, tails[b])
    is removed from every hop (operator -1: nothing removed).
    """
    prop = _Propagation(ops, weights, groups, heads, excluded=excluded)
    keys = prop.keys[-1]
    row = keys // ops.num_entities
    s = np.zeros(len(keys))
    for r in range(weights.shape[1]):
        u = prop.forward(r)[-1]
        _, d = _norm_divisors(u, row, prop.num_rows, normalize)
        s += u / d[row]
    return keys, s


def score_entities(
    ops: OperatorSet,
    attn: AttentionTensor,
    heads,
    *,
    excluded_edges=None,
    normalize: str | None = None,
) -> np.ndarray:
    """Plain (correction-free) batched scores; one row of entity scores per head.

    `excluded_edges` is an optional (predicate, tails, present) triple: for row
    b the labeled edge (heads[b], predicate, tails[b]) is removed from every
    propagation hop when present[b] is true - the filtered-evaluation protocol.
    """
    B, E = len(heads), ops.num_entities
    excluded = None
    if excluded_edges is not None:
        pred, tails, present = excluded_edges
        excluded = (np.where(np.asarray(present) != 0, pred + 1, -1),
                    np.asarray(tails, dtype=np.int64))
    keys, s = support_scores(ops, attn.weights[None], np.zeros(B, dtype=np.int64),
                             heads, excluded=excluded, normalize=normalize)
    out = np.zeros(B * E)
    out[keys] = s
    return out.reshape(B, E)


# ---------------------------------------------------------------------------
# training-facing entry points

def loss_and_gradients(ops: OperatorSet, params: ModelParams, queries):
    """Summed loss and parameter gradients over a batch of queries.

    One matrix LSTM unroll gives the attention of the batch's G distinct
    predicates; one support-restricted forward/backward covers every query,
    and the (G, R, L, K) attention grads go back through the LSTM in one
    pass. The returned grads are plain sums; callers rescale for mean
    reduction.
    """
    index: dict[int, int] = {}
    groups = [index.setdefault(q.query, len(index)) for q in queries]
    preds = list(index)
    weights = _attention_forward(params, preds)
    fwd = _BatchForward(
        ops, weights, preds, groups,
        [q.head for q in queries], [q.targets for q in queries],
        epsilon_mode=params.epsilon_mode, normalize=params.normalize,
    )
    grads = params.zero_grads()
    dA = fwd.backward(logit_loss_grad(fwd.s, fwd.v))
    _attention_backward(params, preds, weights, dA, grads)
    return fwd.loss(), grads


# ---------------------------------------------------------------------------
# rule extraction

# most rules one extraction builds: sum_{m=1..L} |P|^m
RULE_ENUMERATION_BUDGET = 2_000_000


@dataclass(frozen=True)
class ExtractedRule:
    hops: RulePattern
    confidence: float
    predicate: int


def extract_rules(
    params: ModelParams, query: int, top_n: int = 10
) -> list[ExtractedRule]:
    """Rules implied by the trained attention for `query`, ranked by confidence."""
    return rules_from_attention(attention_forward(params, query), query, top_n)


def rules_from_attention(
    attn: AttentionTensor, query: int, top_n: int = 10
) -> list[ExtractedRule]:
    """Rules implied by an attention tensor, ranked by confidence.

    A hop sequence over the |P|+1 operators has confidence
    sum_r prod_l a[r, l, k_l]; dropping its identity hops collapses it to a
    rule, whose confidence is the sum over its sequences. So the m-hop rule
    (p_1, ..., p_m) has the closed form

        sum_{S subset of the L hops, |S| = m} sum_r
            prod_{j in S} a[r, j, p(j)] * prod_{j not in S} a[r, j, 0],

    where p(j) is the predicate that S puts at hop j, in order. Each length m
    is computed for all |P|^m rules at once: per subset and rank, an outer
    product of the predicate weights on S, times the identity weight on the
    other hops, multiplied in hop order. The subsets run in reversed
    `itertools.combinations` order: a sequence with its identity hops earlier
    sorts first, so this is the lexicographic order of the sequences, and the
    sums add up bit for bit as a walk over all (|P|+1)^L sequences would.
    Rules of confidence 0 are dropped (attention weights are non-negative,
    so those are the rules no sequence reaches); ties go to the
    lexicographically smaller hop tuple.
    """
    weights = attn.weights
    R, L, K = weights.shape
    P = K - 1
    count = sum(P**m for m in range(1, L + 1))
    if count > RULE_ENUMERATION_BUDGET:
        raise ValueError(
            f"{count} rules of 1..{L} hops over {P} predicates exceed the "
            f"enumeration budget ({RULE_ENUMERATION_BUDGET}); a beam-search "
            "extraction mode is required for rule lengths this large"
        )
    conf = []
    for m in range(1, L + 1):
        total = np.zeros((P,) * m)
        for S in reversed(list(itertools.combinations(range(L), m))):
            seq = np.zeros((P,) * m)  # the sequences S stands for, summed over ranks
            for r in range(R):
                v = np.ones(())
                for j in range(L):
                    if j in S:
                        v = v[..., None] * weights[r, j, 1:]
                    else:
                        v = v * weights[r, j, 0]
                seq += v
            total += seq
        conf.append(total.ravel())
    conf = np.concatenate(conf)
    table = pattern_table(P, 1, L)
    kept = np.flatnonzero(conf)
    best = kept[top_patterns(table[kept], (conf[kept],), top_n)]
    return [
        ExtractedRule(RulePattern(tuple(int(p) for p in table[i] if p >= 0)),
                      float(conf[i]), query)
        for i in best
    ]


def rules_tsv(rules, kg) -> str:
    lines = ["rule\tpredicate\tconfidence"]
    for r in rules:
        lines.append(
            f"{','.join(r.hops.names(kg))}\t{kg.predicates[r.predicate]}\t{r.confidence!r}"
        )
    return "\n".join(lines) + "\n"


def rules_table(rules, kg) -> str:
    if not rules:
        return "(no rules)\n"
    width = max(len(" & ".join(r.hops.names(kg))) for r in rules)
    lines = []
    for r in rules:
        body = " & ".join(r.hops.names(kg))
        lines.append(
            f"{body:<{width}} => {kg.predicates[r.predicate]:<16} {r.confidence:.4f}"
        )
    return "\n".join(lines) + "\n"
