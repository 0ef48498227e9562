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

All gradients are exact reverse-mode, hand-derived, and validated against
central finite differences in the test suite. Everything is deterministic
given the seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .kg import MultiTargetQuery
from .operators import OperatorSet, RulePattern, pattern_table, top_patterns

GATE_ORDER = "ifgo"  # slices of the fused 4*hidden gate tensors

CORRECTED = "corrected"
LITERAL = "literal"
EPSILON_MODES = (CORRECTED, LITERAL)
NORMALIZE_MODES = (None, "l1", "l2")


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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

    @property
    def rank(self):
        return self.weights.shape[0]

    @property
    def max_len(self):
        return self.weights.shape[1]


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
        i = sigmoid(z[:, :dh])
        f = sigmoid(z[:, dh : 2 * dh])
        g = np.tanh(z[:, 2 * dh : 3 * dh])
        o = sigmoid(z[:, 3 * dh :])
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
    return sigmoid(np.asarray(s, dtype=np.float64)) - v


def _norm_divisors(u_last, normalize):
    if normalize is None:
        return None, np.ones(u_last.shape[0])
    if normalize == "l2":
        n = np.sqrt(np.einsum("be,be->b", u_last, u_last))
    elif normalize == "l1":
        n = np.abs(u_last).sum(axis=1)
    else:
        raise ValueError(f"unknown normalize mode {normalize!r}")
    return n, np.where(n > 0, n, 1.0)


class _GroupForward:
    """Forward pass for a set of queries sharing one predicate (and attention).

    Rows of U are queries. The correction of (query b, target t) is the closed
    form corr(b, t) = sum_l a_q(l) * base_l(b, t) * D_l(t): mass base_l enters
    the direct edge (h_b, q, t) at hop l and D_l(t) = (W_{l+1} ... W_L)[t, t]
    is the share of it that returns to t over the remaining hops. D_L = 1 and
    D_{L-1} = sum_k a_{L,k} M_k[t, t] sums over the loops (t, t, k) of the
    operators' edge list, identity included;
    for L >= 3 the deeper D_l come from one row per distinct target, X_l =
    e_t (W_{l+1} ... W_L)^T, so D_l(t) = X_l[t, t]. D depends on the group
    and the target only, never on the query, so only the B query rows of U
    cross the operators. Everything needed for reverse mode is kept: per-hop
    states, per-rank weighted operators, the return rows, norms, predictions.
    """

    def __init__(self, ops, weights, query, heads, target_lists,
                 epsilon_mode=CORRECTED, normalize=None):
        R, L, K = weights.shape
        if K != ops.num_predicates + 1:
            raise ValueError(
                f"attention over {K} operators does not match graph with "
                f"{ops.num_predicates} predicates"
            )
        E = ops.num_entities
        heads = np.asarray(heads, dtype=np.int64)
        B = len(heads)
        t_qrow = np.concatenate(
            [np.full(len(ts), i, dtype=np.int64) for i, ts in enumerate(target_lists)]
        )
        t_ent = np.concatenate([np.asarray(ts, dtype=np.int64) for ts in target_lists])

        self.ops, self.weights, self.query = ops, weights, query
        self.heads, self.t_qrow, self.t_ent = heads, t_qrow, t_ent
        self.t_uniq, self.t_slot = np.unique(t_ent, return_inverse=True)
        owner, cols, op = ops.out_edges(self.t_uniq)
        loop = cols == self.t_uniq[owner]
        self.loop_slot, self.loop_op = owner[loop], op[loop]  # M_k[t, t] = 1
        self.epsilon_mode, self.normalize = epsilon_mode, normalize
        self.q_op = query + 1

        self.W = [[None] * (L + 1) for _ in range(R)]
        self.Wt = [[None] * (L + 1) for _ in range(R)]
        self.U = [[None] * (L + 1) for _ in range(R)]
        self.X = [None] * R
        self.D = [None] * R
        self.pred = []
        self.norms = []
        self.divisors = []
        s = np.zeros((B, E))
        for r in range(R):
            u = np.zeros((B, E))
            u[np.arange(B), heads] = 1.0
            self.U[r][0] = u
            for l in range(1, L + 1):
                Wl = ops.combine(weights[r, l - 1])
                self.W[r][l] = Wl
                self.U[r][l] = self.U[r][l - 1] @ Wl
                if l > 1:  # no product ever crosses hop 1 in reverse
                    self.Wt[r][l] = ops.combine_t(weights[r, l - 1])
            self._return_diagonals(r)
            corr = np.zeros(len(t_ent))
            for l in range(1, L + 1):
                a_q = weights[r, l - 1, self.q_op]
                corr += a_q * self._injection_base(r, l) * self.D[r][l - 1][self.t_slot]
            pred = self.U[r][L].copy()
            pred[t_qrow, t_ent] -= corr
            self.pred.append(pred)
            n, d = _norm_divisors(self.U[r][L], normalize)
            self.norms.append(n)
            self.divisors.append(d)
            s += pred / d[:, None]
        self.s = s

    def _return_diagonals(self, r):
        """D[r][l-1] = (W_{l+1} ... W_L)[t, t] per distinct target; X[r][l] its rows."""
        L = self.weights.shape[1]
        t = self.t_uniq
        D = np.ones((L, len(t)))
        X = [None] * (L + 1)
        if L >= 2:
            D[L - 2] = np.bincount(
                self.loop_slot, weights=self.weights[r, L - 1, self.loop_op],
                minlength=len(t),
            )
        if L >= 3:
            cols = np.arange(len(t))
            X[L] = np.zeros((len(t), self.ops.num_entities))
            X[L][cols, t] = 1.0
            X[L - 1] = self.Wt[r][L][t].toarray()
            for l in range(L - 2, 0, -1):
                X[l] = X[l + 1] @ self.Wt[r][l + 1]
                D[l - 1] = X[l][cols, t]
        self.D[r], self.X[r] = D, X

    def _injection_base(self, r, l):
        """Mass entering the direct edge at hop l, per (query, target) row."""
        if self.epsilon_mode == CORRECTED:
            return self.U[r][l - 1][self.t_qrow, self.heads[self.t_qrow]]
        if l == 1:
            return np.ones(len(self.t_ent))
        return self.U[r][l - 1][self.t_qrow, self.t_ent]

    def target_matrix(self):
        E = self.ops.num_entities
        v = np.zeros((len(self.heads), E))
        v[self.t_qrow, self.t_ent] = 1.0
        return v

    def backward(self, ds):
        """dL/d(attention weights) of shape (R, L, K) given dL/ds."""
        ops, weights = self.ops, self.weights
        R, L, K = weights.shape
        dA = np.zeros((R, L, K))
        for r in range(R):
            d = self.divisors[r]
            dPred = ds / d[:, None]
            dU_l = dPred.copy()
            if self.normalize is not None:
                n = self.norms[r]
                live = n > 0
                dn = -np.einsum("be,be->b", ds, self.pred[r]) / (d * d)
                dn = np.where(live, dn, 0.0)
                if self.normalize == "l2":
                    dU_l += (dn / d)[:, None] * self.U[r][L]
                else:  # l1, states are non-negative
                    dU_l += dn[:, None]
            dCorr = -dPred[self.t_qrow, self.t_ent]
            # dL/dD_l per distinct target
            dD = np.zeros((L, len(self.t_uniq)))
            for l in range(L, 0, -1):
                a_q = weights[r, l - 1, self.q_op]
                base = self._injection_base(r, l)
                D_l = self.D[r][l - 1][self.t_slot]
                dA[r, l - 1] += _operator_grads(ops, self.U[r][l - 1], dU_l)
                dA[r, l - 1, self.q_op] += float(np.dot(dCorr, base * D_l))
                dD[l - 1] = np.bincount(
                    self.t_slot, weights=dCorr * a_q * base, minlength=len(self.t_uniq)
                )
                if l == 1:
                    break
                dU_l = dU_l @ self.Wt[r][l]
                dbase = dCorr * a_q * D_l
                if self.epsilon_mode == CORRECTED:
                    np.add.at(dU_l, (self.t_qrow, self.heads[self.t_qrow]), dbase)
                else:
                    np.add.at(dU_l, (self.t_qrow, self.t_ent), dbase)
            self._return_backward(r, dD, dA)
        return dA

    def _return_backward(self, r, dD, dA):
        """Add dL/dD_l, pushed back to the attention weights, to dA[r]."""
        L = self.weights.shape[1]
        t = self.t_uniq
        if L >= 2:
            dA[r, L - 1] += np.bincount(
                self.loop_op, weights=dD[L - 2][self.loop_slot],
                minlength=dA.shape[2],
            )
        if L < 3:
            return
        # y_j = sum_{l <= min(j, L-2)} dD_l(t) e_t W_{l+1} ... W_j, one row per
        # target, meets the return rows X_{j+1} at hop j+1
        cols = np.arange(len(t))
        y = np.zeros((len(t), self.ops.num_entities))
        for j in range(1, L):
            if j > 1:
                y = y @ self.W[r][j]
            if j <= L - 2:
                y[cols, t] += dD[j - 1]
            dA[r, j] += _operator_grads(self.ops, y, self.X[r][j + 1])


def _operator_grads(ops, x, g):
    """d(loss)/d(a_k) = <x M_k, g> for every operator k of one hop, identity included.

    One sampled product over the operators' row-ordered edge list: every
    nonzero x[b, i] sends x[b, i] * g[b, j] along each edge (i, j, k) that
    leaves i, and the terms are summed by operator. The cost is the number of
    edges leaving the support of x, whatever the number of operators.
    """
    b, i = np.nonzero(x)
    owner, cols, op = ops.out_edges(i)
    terms = x[b, i][owner] * g[b[owner], cols]
    return np.bincount(op, weights=terms, minlength=ops.num_predicates + 1)


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
    heads = np.asarray(heads, dtype=np.int64)
    B = len(heads)
    E = ops.num_entities
    R, L, K = attn.weights.shape
    excl = None
    if excluded_edges is not None:
        pred, tails, present = excluded_edges
        excl = (
            pred + 1,
            np.asarray(tails, dtype=np.int64),
            np.asarray(present, dtype=np.float64),
        )
    s = np.zeros((B, E))
    rows = np.arange(B)
    for r in range(R):
        u = np.zeros((B, E))
        u[rows, heads] = 1.0
        for l in range(L):
            w = attn.weights[r, l]
            nxt = u @ ops.combine(w)
            if excl is not None:
                op, tails, present = excl
                nxt[rows, tails] -= w[op] * present * u[rows, heads]
            u = nxt
        _, d = _norm_divisors(u, normalize)
        s += u / d[:, None]
    return s


# ---------------------------------------------------------------------------
# training-facing entry points

def loss_and_gradients(ops: OperatorSet, params: ModelParams, queries):
    """Summed loss and parameter gradients over a batch of queries.

    Queries are grouped by predicate (attention depends only on the
    predicate). One matrix LSTM unroll gives the attention of all G predicates
    in the batch; each group then runs one vectorized forward/backward through
    the operators, and the stacked (G, R, L, K) attention grads go back
    through the LSTM in one pass. The returned grads are plain sums; callers
    rescale for mean reduction.
    """
    grads = params.zero_grads()
    total = 0.0
    by_pred: dict[int, list[MultiTargetQuery]] = {}
    for q in queries:
        by_pred.setdefault(q.query, []).append(q)
    preds = list(by_pred)
    weights = _attention_forward(params, preds)
    dA = np.empty_like(weights)
    for row, (pred, group) in enumerate(by_pred.items()):
        fwd = _GroupForward(
            ops,
            weights[row],
            pred,
            np.array([g.head for g in group]),
            [list(g.targets) for g in group],
            epsilon_mode=params.epsilon_mode,
            normalize=params.normalize,
        )
        v = fwd.target_matrix()
        total += logit_loss(fwd.s, v)
        ds = logit_loss_grad(fwd.s, v)
        dA[row] = fwd.backward(ds)
    _attention_backward(params, preds, weights, dA, grads)
    return total, grads


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
