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
form when ranking. Evaluation scores the test queries in chunks sized by
the out-edges of their heads, the edges the first hop gathers.

All gradients are exact reverse-mode, hand-derived, and validated against
central finite differences in the test suite. Everything is deterministic
given the seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .kg import tsv
from .operators import OperatorSet, RulePattern, pattern_rows, top_patterns

GATE_ORDER = "ifgo"  # slices of the fused 4*hidden gate tensors
# the ModelParams arguments a checkpoint records, in its order
INTEGER_SETTINGS = ("num_predicates", "rank", "max_len", "embed_dim", "hidden_dim", "seed")
SETTINGS = (*INTEGER_SETTINGS, "normalize", "epsilon_mode", "predicates")

CORRECTED = "corrected"
LITERAL = "literal"
EPSILON_MODES = (CORRECTED, LITERAL)
NORMALIZE_MODES = (None, "l1", "l2")


def sigmoid(x, out=None):
    """Logistic function of an array; where exp(-x) overflows it returns the
    limit 0. With `out` (which may be x itself) the result is written there."""
    with np.errstate(over="ignore"):
        e = np.negative(x, out=out)
        np.exp(e, out=e)
        e += 1.0
        return np.divide(1.0, e, out=e)


def softmax(x):
    """Softmax over the last axis, in place: x is overwritten and returned."""
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def packed(shapes, flat=None):
    """Arrays of the given shapes, by key, as consecutive views of one 1-D
    buffer: `flat`, whose length must be their total size, or a fresh
    uninitialised one.

    One allocation in place of one per array, so that a call which builds
    and drops large state (a training run's parameters and gradient, an
    unroll's blocks) costs the same every time. glibc hands a few large
    freed buffers back to the system at the end of every such call, where
    it kept the pages of dozens of separate arrays after some calls and
    handed them back after others, depending on what else lay on the heap;
    and numpy asks the kernel to back a buffer of 4 MB or more with huge
    pages, which makes touching fresh pages cheaper.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    if flat is None:
        flat = np.empty(sum(sizes))
    elif flat.shape != (sum(sizes),):
        raise ValueError(f"a vector of shape {flat.shape} does not hold "
                         f"{sum(sizes)} values")
    views, start = {}, 0
    for (key, shape), size in zip(shapes.items(), sizes):
        views[key] = flat[start : start + size].reshape(shape)
        start += size
    return views


def _tensor_shapes(num_predicates, rank, max_len, embed_dim, hidden_dim, seed,
                   normalize, epsilon_mode, predicates):
    """Every tensor's shape, by name in the parameter vector's order, that
    the settings build; ValueError for settings out of range. A direction
    holds only the cell tensors some step of its unroll reads (`ModelParams`)."""
    if normalize not in NORMALIZE_MODES:
        raise ValueError(f"normalize must be one of {NORMALIZE_MODES}")
    if epsilon_mode not in EPSILON_MODES:
        raise ValueError(f"epsilon_mode must be one of {EPSILON_MODES}")
    if min(num_predicates, rank, max_len, embed_dim, hidden_dim) < 1:
        raise ValueError("all model dimensions must be positive")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")
    if predicates is not None and len(predicates) != num_predicates:
        raise ValueError(f"{len(predicates)} predicate names for {num_predicates} predicates")
    dh, de = hidden_dim, embed_dim
    cell = {"Wx": (de, 4 * dh), "Wh": (dh, 4 * dh), "b": (4 * dh,)}
    reads_from = {"Wx": 1, "Wh": 2, "b": 1}  # the steps a cell runs before reading it
    shapes = {"query_emb": (num_predicates, de)}
    for direction, steps in (("fwd", max_len), ("bwd", max_len - 1)):
        for name, shape in cell.items():
            if steps >= reads_from[name]:
                shapes[f"{direction}_{name}"] = (rank, *shape)
    shapes["proj_W"] = (2 * dh, num_predicates + 1)
    shapes["proj_b"] = (num_predicates + 1,)
    return shapes


class ModelParams:
    """All trainable state: query embeddings, R bidirectional cells, shared projection.

    `vector` holds every parameter, and `tensors` is an ordered dict of
    views of it by name (`packed`); a gradient is a vector of the same
    layout, and Adam steps the one vector. Each cell tensor is stacked over
    the R ranks: `fwd_Wx` has shape (R, embed, 4 * hidden), and its slice r
    is rank r's forward Wx. A direction holds only the tensors some step of
    its unroll reads: the forward cells run L steps and the backward ones
    L - 1 (`_attention_forward`), and a cell reads Wx and b from one step on
    and Wh from two, as step 0 starts from the zero state. So the forward
    cells have Wx and b at every L and Wh from L = 2; the backward cells
    have Wx and b from L = 2 and Wh from L = 3. Gate weights are fused
    (input, forget, candidate, output); forget biases start at 1.0,
    everything else from symmetric uniform ranges scaled by fan-in, all
    drawn from the seed in the order query_emb, then per rank the forward
    Wx and Wh and the backward Wx and Wh, then proj_W. Each kept tensor is
    drawn straight into its slice; the generator is advanced past the draws
    of each dropped one, so a seed gives a tensor the same values at every L.
    `predicates` optionally names the predicate vocabulary, in index order;
    checkpoints record it so a model is only ever applied to the vocabulary
    it was trained on.
    """

    def __init__(self, num_predicates, rank=3, max_len=2, embed_dim=128, hidden_dim=128,
                 seed=0, normalize="l2", epsilon_mode=CORRECTED, predicates=None):
        settings = dict(zip(SETTINGS, (
            num_predicates, rank, max_len, embed_dim, hidden_dim, seed, normalize,
            epsilon_mode, None if predicates is None else list(predicates))))
        shapes = _tensor_shapes(**settings)
        vars(self).update(settings)  # each setting is an attribute of its name

        rng = np.random.default_rng(seed)

        def uniform(out, fan_in):
            # rng.uniform(-bound, bound) computes low + (high - low) * u
            bound = 1.0 / np.sqrt(fan_in)
            rng.random(out=out)
            out *= bound - -bound
            out += -bound

        self.vector = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
        t = self.tensors = packed(shapes, self.vector)
        dh, de = hidden_dim, embed_dim
        uniform(t["query_emb"], de)
        for r in range(rank):
            for direction in ("fwd", "bwd"):
                for name, fan_in in (("Wx", de), ("Wh", dh)):
                    key = f"{direction}_{name}"
                    if key in t:
                        uniform(t[key][r], fan_in)
                    else:  # the (fan_in, 4 * hidden) draws of a dropped tensor
                        rng.bit_generator.advance(fan_in * 4 * dh)
        for key in ("fwd_b", "bwd_b"):
            if key in t:
                t[key][:, dh : 2 * dh] = 1.0
        uniform(t["proj_W"], 2 * dh)

    @property
    def num_operators(self):
        return self.num_predicates + 1

    def shapes(self):
        return {k: v.shape for k, v in self.tensors.items()}

    def copy(self):
        dup = ModelParams.__new__(ModelParams)
        dup.__dict__.update(self.__dict__)
        dup.vector = self.vector.copy()
        dup.tensors = packed(self.shapes(), dup.vector)
        return dup

    def meta(self):
        return {key: getattr(self, key) for key in SETTINGS} | {"gate_order": GATE_ORDER}


def _members(shapes, rank):
    """(member, tensor name, index) of every checkpoint member in the file's
    order, one at a time: the member is tensors[name][index], and rank r's
    slice of a cell tensor is the member cell{r}_{direction}_{name}."""
    cells = [key for key in shapes if key[:4] in ("fwd_", "bwd_")]
    yield "query_emb", "query_emb", ()
    for r in range(rank):
        for key in cells:
            yield f"cell{r}_{key}", key, (r,)
    for key in ("proj_W", "proj_b"):
        yield key, key, ()


def save_checkpoint(params: ModelParams, path) -> None:
    """Self-describing container: hyperparameters plus every tensor, bit-exact."""
    meta = json.dumps(params.meta()).encode()
    members = _members(params.shapes(), params.rank)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(meta, dtype=np.uint8),
                 **{member: params.tensors[key][index] for member, key, index in members})


def load_checkpoint(path) -> ModelParams:
    """The model a checkpoint records. Only the members its settings build
    are read, so a file holding more (the cell tensors no step reads, which
    older checkpoints kept) loads too."""
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an mplr checkpoint: not an npz archive")
    with data:
        if "__meta__" not in data.files:
            raise ValueError("not an mplr checkpoint: missing '__meta__'")
        try:
            meta = json.loads(bytes(data["__meta__"].tobytes()))
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ValueError(f"not an mplr checkpoint: '__meta__' is not JSON ({exc})") from None
        for key in (*SETTINGS, "gate_order"):
            if not isinstance(meta, dict) or key not in meta:
                raise ValueError(f"not an mplr checkpoint: missing {key!r}")
        gate_order = meta.pop("gate_order")
        if gate_order != GATE_ORDER:
            raise ValueError(f"checkpoint gate order {gate_order!r} unsupported")
        unknown = sorted(set(meta) - set(SETTINGS))
        if unknown:
            raise ValueError(f"not an mplr checkpoint: unknown setting {unknown[0]!r}")
        for key in INTEGER_SETTINGS:
            if type(meta[key]) is not int:  # a bool is an int subclass
                raise ValueError(
                    f"not an mplr checkpoint: {key!r} is {meta[key]!r}, not an integer"
                )
        names = meta["predicates"]
        if names is not None and not (isinstance(names, list)
                                      and all(isinstance(n, str) for n in names)):
            raise ValueError("not an mplr checkpoint: 'predicates' is not a list of names")
        # every member is checked against the settings before they allocate anything
        shapes, tensors = _tensor_shapes(**meta), []
        for member, key, index in _members(shapes, meta["rank"]):
            if member not in data.files:
                raise ValueError(f"not an mplr checkpoint: missing {member!r}")
            tensor, want = data[member], shapes[key][len(index):]
            if tensor.shape != want:
                raise ValueError(f"not an mplr checkpoint: {member!r} has shape "
                                 f"{tensor.shape}, expected {want}")
            tensors.append((key, index, tensor))
    params = ModelParams(**meta)
    for key, index, tensor in tensors:
        params.tensors[key][index] = tensor
    return params


@dataclass
class AttentionTensor:
    """Per-rank, per-hop distributions over the |P|+1 operators (identity at 0)."""

    weights: np.ndarray  # (R, L, |P|+1)

    def __post_init__(self):
        if self.weights.ndim != 3:
            raise ValueError("attention tensor must be rank x hops x operators")


def _gate_major(a):
    """The (4, R, n, hidden) view of a stacked (R, n, 4 * hidden) array:
    block k holds gate k of every rank."""
    R, n, fused = a.shape
    return a.reshape(R, n, 4, fused // 4).transpose(2, 0, 1, 3)


def _run_cells(params, direction, x, h, blocks, product):
    """Unroll one direction of all R cells over the (G, embed) inputs x, fed
    at every step.

    h is a (steps, R, G, hidden) view that receives the state after each
    step. The gate math runs in place in the direction's blocks,
    gate-major, so each activation is one call over a contiguous block: the
    activated gates (steps, 4, R, G, hidden), the cell states (steps + 1, R,
    G, hidden), zero state first, and their tanh (steps, R, G, hidden). The
    input term x Wx + b is kept in the last step's gates, which that step
    overwrites in place. The weight products keep the fused gate columns,
    one per rank, in `product`, an (R, G, 4 * hidden) array that the call
    overwrites: BLAS gives a column slice of a product other bits than the
    whole product when G = 1.
    Returns the step cache (h, gates, c, tc) that `_cells_backward` reads;
    with zero steps (the backward cells at L = 1, which have no tensors)
    nothing is computed, and Wh is read from step 1 on.
    """
    gates, c, tc = blocks
    if not len(h):
        return h, gates, c, tc
    key = direction + "_"
    zx = gates[-1]
    np.matmul(x, params.tensors[key + "Wx"], out=product)
    np.add(_gate_major(product), _gate_major(params.tensors[key + "b"][:, None]), out=zx)
    c[0] = 0.0
    for step in range(len(h)):
        z = gates[step]
        pre = zx  # h is the zero state at step 0
        if step:
            np.matmul(h[step - 1], params.tensors[key + "Wh"], out=product)
            pre = np.add(_gate_major(product), zx, out=z)
        i, f, g, o = z
        sigmoid(pre[:2], out=z[:2])  # i and f
        np.tanh(pre[2], out=g)
        sigmoid(pre[3], out=o)
        np.multiply(f, c[step], out=c[step + 1])
        c[step + 1] += np.multiply(i, g, out=tc[step])
        np.tanh(c[step + 1], out=tc[step])
        np.multiply(o, tc[step], out=h[step])
    return h, gates, c, tc


def _hop_views(a, dh):
    """The forward and backward per-step views of an (R, L, G, 2 * hidden)
    array of per-hop attention inputs (or their grads), each (steps, R, G,
    hidden). Hop i (1-based) reads the forward state after i steps
    concatenated with the backward state after L-i steps; "after 0 steps" is
    the zero initial state, so the deepest hop sees only the forward
    direction, and no hop reads the backward state after L steps: the
    backward cells run L-1 steps."""
    L = a.shape[1]
    return (a[:, :, :, :dh].transpose(1, 0, 2, 3),
            a[:, : L - 1, :, dh:][:, ::-1].transpose(1, 0, 2, 3))


def _attention_forward(params: ModelParams, queries, caches=None):
    """Attention weights of shape (G, R, L, K) for G distinct query predicates.

    One matrix LSTM unroll per direction covers all R ranks and all G rows;
    both directions write their states straight into the (R, L, G, 2 *
    hidden) attention inputs, and one projection and softmax turn those into
    the weights. With a `caches` list, the unroll (attention inputs and both
    directions' step caches) is appended to it for `_attention_backward`.
    The blocks are views of one buffer (`packed`). A query index that names
    no predicate of the model raises ValueError.
    """
    queries = np.asarray(queries, dtype=np.int64)
    P = params.num_predicates
    bad = queries[(queries < 0) | (queries >= P)]
    if len(bad):
        raise ValueError(f"predicate index {bad[0]} out of range: "
                         f"the model has {P} predicates, 0..{P - 1}")
    x = params.tensors["query_emb"][queries]
    W, b = params.tensors["proj_W"], params.tensors["proj_b"]
    G, R, L = len(x), params.rank, params.max_len
    dh, K = params.hidden_dim, params.num_operators
    shapes = {"att_in": (R, L, G, 2 * dh)}
    for d, steps in (("fwd", L), ("bwd", L - 1)):
        shapes[d, "gates"] = (steps, 4, R, G, dh)
        shapes[d, "c"] = (steps + 1, R, G, dh)
        shapes[d, "tc"] = (steps, R, G, dh)
    blocks = packed(shapes)
    product = np.empty((R, G, 4 * dh))
    att_in = blocks["att_in"]
    att_in[:, L - 1, :, dh:] = 0.0
    fwd, bwd = [
        _run_cells(params, d, x, h, [blocks[d, n] for n in ("gates", "c", "tc")], product)
        for d, h in zip(("fwd", "bwd"), _hop_views(att_in, dh))
    ]
    weights = np.empty((G, R, L, K))
    logits = np.matmul(att_in, W, out=weights.transpose(1, 2, 0, 3))
    logits += b
    softmax(logits)
    if caches is not None:
        caches.append((att_in, fwd, bwd))
    return weights


def attention_forward(params: ModelParams, query: int) -> AttentionTensor:
    return AttentionTensor(_attention_forward(params, [query])[0])


def _cells_backward(params, direction, x, cache, dh_steps, grads):
    """BPTT through one direction of all R cells over all G rows, from the
    step cache `_run_cells` returned; dh_steps[i] is the external grad on
    step i's h, (R, G, hidden). Adds the cells' weight grads to `grads`,
    returns dL/dx per rank, (R, G, embed), or None for cells that ran no
    steps.

    The input x is the same at every step, so its weight and input grads come
    from the summed gate grads: gWx = x^T sum_steps dZ. Step 0 reads the zero
    state, so it adds nothing to gWh and passes nothing further back; Wh and
    its grad are read from step 1 on. Each step writes its four gate grads in
    place, gate-major, and copies them once into the fused (R, G, 4 * hidden)
    dZ that the products read.
    """
    h, gates, c, tc = cache
    if not len(h):
        return None
    R, G, dh = h.shape[1:]
    key = direction + "_"
    dzg = np.empty((4, R, G, dh))
    dz_i, dz_f, dz_g, dz_o = dzg
    dz = np.empty((R, G, 4 * dh))
    dz_sum = np.zeros((R, G, 4 * dh))
    dh_total = np.zeros((R, G, dh))  # holds the grad carried back from the step after
    dc_carry = np.zeros((R, G, dh))
    dc = np.empty((R, G, dh))
    tmp = np.empty((R, G, dh))
    for step in reversed(range(len(h))):
        i, f, g, o = gates[step]
        dh_total += dh_steps[step]
        # dz_o = do * o * (1 - o), with do = dh_total * tanh(c)
        np.multiply(dh_total, tc[step], out=dz_o)
        dz_o *= o
        dz_o *= np.subtract(1.0, o, out=tmp)
        # dc = dh_total * o * (1 - tanh(c)^2) + dc_carry
        np.multiply(dh_total, o, out=dc)
        np.multiply(tc[step], tc[step], out=tmp)
        dc *= np.subtract(1.0, tmp, out=tmp)
        dc += dc_carry
        np.multiply(dc, g, out=dz_i)
        dz_i *= i
        dz_i *= np.subtract(1.0, i, out=tmp)
        np.multiply(dc, c[step], out=dz_f)
        dz_f *= f
        dz_f *= np.subtract(1.0, f, out=tmp)
        np.multiply(dc, i, out=dz_g)
        np.multiply(g, g, out=tmp)
        dz_g *= np.subtract(1.0, tmp, out=tmp)
        dz.reshape(R, G, 4, dh)[...] = dzg.transpose(1, 2, 0, 3)
        dz_sum += dz
        if step == 0:
            break
        for r in range(R):  # one rank's product at a time bounds the temporaries
            grads[key + "Wh"][r] += h[step - 1, r].T @ dz[r]
        np.multiply(dc, f, out=dc_carry)
        np.matmul(dz, params.tensors[key + "Wh"].transpose(0, 2, 1), out=dh_total)
    for r in range(R):
        grads[key + "Wx"][r] += x.T @ dz_sum[r]
    grads[key + "b"] += dz_sum.sum(axis=1)
    return np.matmul(dz_sum, params.tensors[key + "Wx"].transpose(0, 2, 1))


def _projection_backward(params, att_in, weights, dA, grads):
    """Add the projection's grads to `grads`, rank by rank, given the (R, L,
    G, 2 * hidden) attention inputs, the (G, R, L, K) attention weights and
    dL/d(weights); returns dL/d(att_in)."""
    W = params.tensors["proj_W"]
    _, R, _, K = weights.shape
    dlogits = weights * (dA - np.sum(dA * weights, axis=3, keepdims=True))
    # the bias grad sums each rank's (G, L) rows predicate by predicate, the
    # weight grad and dL/d(att_in) read them hop-major
    hop_major = np.ascontiguousarray(dlogits.transpose(1, 2, 0, 3))
    for r in range(R):
        grads["proj_W"] += att_in[r].reshape(-1, W.shape[0]).T @ hop_major[r].reshape(-1, K)
        grads["proj_b"] += dlogits[:, r].sum(axis=(0, 1))
    return np.matmul(hop_major, W.T)


def _attention_backward(params, queries, weights, caches, dA, grads):
    """Accumulate parameter grads given the (G, R, L, K) attention weights of
    `queries`, the unroll `_attention_forward` kept in `caches`, and
    dL/d(weights).

    One pass per direction covers all R ranks and all G predicates. The
    projection's grads and the input grads are added rank by rank.
    """
    queries = np.asarray(queries, dtype=np.int64)
    x = params.tensors["query_emb"][queries]
    ((att_in, fwd, bwd),) = caches
    datt_in = _projection_backward(params, att_in, weights, dA, grads)
    dfwd, dbwd = _hop_views(datt_in, params.hidden_dim)
    dx_fwd = _cells_backward(params, "fwd", x, fwd, dfwd, grads)
    dx_bwd = _cells_backward(params, "bwd", x, bwd, dbwd, grads)
    dx = np.zeros_like(x)
    for r in range(params.rank):
        dx += dx_fwd[r]
        if dx_bwd is not None:
            dx += dx_bwd[r]
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
    return _logit_loss_sum(s, v)


def _logit_loss_sum(s, v):
    """`logit_loss` of float arrays, unchecked: inf or nan in, inf or nan out."""
    return float(np.sum(np.maximum(s, 0.0) - v * s + np.log1p(np.exp(-np.abs(s)))))


def logit_loss_grad(s, v):
    return sigmoid(np.asarray(s, dtype=np.float64)) - v


def _bincount_rows(index, weights, size):
    """bincount(index, weights[r], minlength=size) of each row r, as one array."""
    return np.array([np.bincount(index, weights=w, minlength=size) for w in weights])


def _rank_sum(x):
    """The rows of an (R, n) array added in rank order; numpy would sum a
    single column pairwise from 8 rows on, so that one is doubled first."""
    n = x.shape[1]
    return np.add.reduce(x if n > 1 else np.repeat(x, 2, axis=1), axis=0)[:n]


def _norm_divisors(u, row, num_rows, normalize):
    """Norms of the (R, n) values u per rank and row (row[i] owns u[:, i]), and divisors."""
    if normalize is None:
        return None, np.ones((len(u), num_rows))
    if normalize == "l2":
        n = np.sqrt(_bincount_rows(row, u * u, num_rows))
    elif normalize == "l1":
        n = _bincount_rows(row, np.abs(u), num_rows)
    else:
        raise ValueError(f"unknown normalize mode {normalize!r}")
    return n, np.where(n > 0, n, 1.0)


def _check_entities(num_entities, *indices):
    """Refuse the first index, of any array, outside 0..num_entities - 1."""
    for index in indices:
        bad = index[(index < 0) | (index >= num_entities)]
        if len(bad):
            raise ValueError(f"entity index {bad[0]} out of range: the graph has "
                             f"{num_entities} entities, 0..{num_entities - 1}")


def _lookup(keys, wanted):
    """Positions of `wanted` in the sorted `keys`, and whether each is there."""
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return pos, keys[pos] == wanted


class _Propagation:
    """Rows pushed through hops 1..L of the attention-weighted operators.

    Row b starts as e_{starts[b]} and is weighted by weights[groups[b]], a
    (R, L, K) slice of the (G, R, L, K) attention. Every operator, the identity
    included, has a weight at every hop, so the entities a row reaches do not
    depend on the rank or on the attention values. The support of each level
    is built once, as sorted keys row * |E| + entity, together with the edges
    that enter it: source position at the level before, destination position,
    a (group, operator) slot and the (R, n) per-rank edge weights, gathered
    by one flat index into the C-ordered attention. `U` holds each level's
    (R, n) values, 1 at each row's start and then row r bincount(dst, u[r,
    src] * w[r]); nothing is pruned, so exact zeros stay stored. `extra_keys`
    are added to the last level; `excluded` = (operator, tail) per row drops
    the edge (start, operator, tail) wherever it occurs (operator -1: none).
    """

    def __init__(self, ops, weights, groups, starts, *, extra_keys=None, excluded=None):
        G, R, L, K = weights.shape
        if K != len(ops):
            raise ValueError(f"attention over {K} operators does not match graph "
                             f"with {ops.num_predicates} predicates")
        E = ops.num_entities
        starts = np.asarray(starts, dtype=np.int64)
        groups = np.asarray(groups, dtype=np.int64)
        self.num_slots = G * K
        keys = np.arange(len(starts)) * E + starts
        self.keys = [keys]
        self.U = [np.ones((R, len(starts)))]
        self.edges = []  # per hop: (src, dst, slot, (R, n) weights)
        flat = weights.reshape(-1)  # C order: (g, r, l, k) at ((g*R + r)*L + l)*K + k
        rank_offsets = (np.arange(R) * (L * K))[:, None]
        for hop in range(1, L + 1):
            row = keys // E
            drop = None if excluded is None else (starts[row], *(x[row] for x in excluded))
            src, ent, op = ops.out_edges(keys % E, drop)
            row = row[src]
            new = row * E + ent
            if hop == L and extra_keys is not None:
                new = np.concatenate([new, extra_keys])
            keys, inv = np.unique(new, return_inverse=True)
            g = groups[row]
            self.keys.append(keys)
            at = g * (R * L * K) + (hop - 1) * K + op
            dst, w = inv[: len(src)], np.take(flat, rank_offsets + at)
            self.edges.append((src, dst, g * K + op, w))
            self.U.append(_bincount_rows(dst, self.U[-1].take(src, axis=1) * w, len(keys)))

    def backward(self, dU, dA, inject=None):
        """Reverse mode from dU, the (R, n) gradient at the last level.

        Adds hop i's operator gradients, bincount(slot, U[i][r, src] * dU[r,
        dst]) for each rank r, to dA[:, :, i] of shape (G, R, K). inject[i] =
        (index, values) is added to level i's gradient on the way down.
        """
        G, R = dA.shape[:2]
        for i in reversed(range(len(self.edges))):
            src, dst, slot, w = self.edges[i]
            g = dU.take(dst, axis=1)
            grad = _bincount_rows(slot, self.U[i].take(src, axis=1) * g, self.num_slots)
            dA[:, :, i] += grad.reshape(R, G, -1).transpose(1, 0, 2)
            if i == 0:
                break
            dU = _bincount_rows(src, w * g, len(self.keys[i]))
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
    log 2 for each of the others. Everything reverse mode needs is kept, rank
    first: the propagations (with their values U), pred (R, n); D, base, corr
    (R, targets); norms and divisors (R, B). s adds the ranks' normalized
    predictions in rank order.
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
        _check_entities(E, heads, t_ent)
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
            _Propagation(ops, weights[:, :, l:], c_key // E, c_ent)
            for l in range(1, L)
        ]
        self.c_read = [
            np.searchsorted(ch.keys[-1], np.arange(len(c_key)) * E + c_ent)
            for ch in self.chains
        ]
        # a_q(l) per rank and target: (R, L, n_targets)
        self.a_q = weights[np.arange(G), :, :, self.q_op][self.t_grp].transpose(1, 2, 0)
        self.U = U = self.prop.U
        self.D = [ch.U[-1].take(read[self.c_slot], axis=1)
                  for ch, read in zip(self.chains, self.c_read)]
        self.D.append(np.ones((R, len(t_key))))
        self.base = [np.where(found, u.take(pos, axis=1), 0.0)
                     for u, (pos, found) in zip(U, self.base_at)]
        self.corr = sum(self.a_q[:, l] * self.base[l] * self.D[l] for l in range(L))
        self.pred = U[L].copy()
        self.pred[:, self.t_pos] -= self.corr
        self.norms, self.divisors = _norm_divisors(U[L], self.row, B, normalize)
        self.s = _rank_sum(self.pred / self.divisors.take(self.row, axis=1))

    def loss(self):
        stored = _logit_loss_sum(self.s, self.v)
        return stored + (self.num_cells - len(self.s)) * np.log(2.0)

    def backward(self, ds):
        """dL/d(attention weights), shape (G, R, L, K), given dL/ds on the support."""
        G, R, L, K = self.weights.shape
        row, d = self.row, self.divisors
        dA = np.zeros((G, R, L, K))
        dPred = ds / d.take(row, axis=1)
        dU = dPred.copy()
        if self.normalize is not None:
            dn = -_bincount_rows(row, ds * self.pred, d.shape[1]) / (d * d)
            dn = np.where(self.norms > 0, dn, 0.0)
            if self.normalize == "l2":
                dU += (dn / d).take(row, axis=1) * self.U[L]
            else:  # l1, states are non-negative
                dU += dn.take(row, axis=1)
        dCorr = -dPred.take(self.t_pos, axis=1)
        inject = [None] * L
        for l in range(L):
            base, D, a_q = self.base[l], self.D[l], self.a_q[:, l]
            dq = _bincount_rows(self.t_grp, dCorr * base * D, G)
            dA[np.arange(G), :, l, self.q_op] += dq.T
            if l > 0:
                pos, found = self.base_at[l]
                inject[l] = (np.s_[:, pos[found]], (dCorr * a_q * D)[:, found])
            if l < L - 1:
                chain, read = self.chains[l], self.c_read[l]
                dY = np.zeros((R, len(chain.keys[-1])))
                dY[:, read] = _bincount_rows(self.c_slot, dCorr * a_q * base, len(read))
                chain.backward(dY, dA[:, :, l + 1:])
        self.prop.backward(dU, dA, inject)
        return dA


def support_scores(ops, weights, groups, heads, *, excluded=None, normalize=None):
    """Correction-free scores of each row on its support: (keys, scores).

    Row b starts at heads[b] with attention weights[groups[b]]; keys are
    row * |E| + entity, and every entity not in them scores 0. `excluded` is
    an (operator, tail) pair per row: the edge (heads[b], operator, tails[b])
    is removed from every hop (operator -1: nothing removed). The ranks'
    normalized (R, n) last levels are added in rank order.
    """
    prop = _Propagation(ops, weights, groups, heads, excluded=excluded)
    keys = prop.keys[-1]
    row = keys // ops.num_entities
    u = prop.U[-1]
    _, d = _norm_divisors(u, row, len(heads), normalize)
    return keys, _rank_sum(u / d.take(row, axis=1))


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

def first_appearance(values):
    """The distinct values in order of first appearance, and the position of
    each value among them: the predicate groups of a batch or a split."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


def loss_and_gradients(ops: OperatorSet, params: ModelParams, queries, *, out=None):
    """Summed loss and parameter gradients over a batch of queries.

    One matrix LSTM unroll gives the attention of the batch's G distinct
    predicates; one support-restricted forward/backward covers every query,
    and the (G, R, L, K) attention grads go back through the LSTM's kept
    unroll in one pass. The gradient, a plain sum that callers rescale for
    mean reduction, fills `out` (a vector laid out like `params.vector`,
    zero-filled first) or a fresh vector; its views by tensor name are
    returned with the loss, which may be non-finite, for the caller to report.
    A head or target that names no entity of `ops` raises ValueError.
    """
    preds, groups = first_appearance([q.query for q in queries])
    caches = []
    # parameters blown up by a huge step overflow to inf and nan here, with
    # no warnings; the caller's finite check of the loss reports them
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _attention_forward(params, preds, caches)
        fwd = _BatchForward(
            ops, weights, preds, groups,
            [q.head for q in queries], [q.targets for q in queries],
            epsilon_mode=params.epsilon_mode, normalize=params.normalize,
        )
        grad = np.empty_like(params.vector) if out is None else out
        grads = packed(params.shapes(), grad)
        grad.fill(0.0)
        dA = fwd.backward(logit_loss_grad(fwd.s, fwd.v))
        _attention_backward(params, preds, weights, caches, dA, grads)
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
    is computed for all |P|^m rules and all R ranks at once: per subset, an
    outer product of the predicate weights on S, times the identity weight
    on the other hops, multiplied in hop order, then summed over the ranks
    in rank order. The subsets run in reversed `itertools.combinations`
    order: a sequence with its identity hops earlier sorts first, so this is
    the lexicographic order of the sequences, and the sums add up bit for
    bit as a walk over all (|P|+1)^L sequences would.
    Rules of confidence 0 are dropped (attention weights are non-negative,
    so those are the rules no sequence reaches); ties go to the
    lexicographically smaller hop tuple. A top_n below 1 gives no rules.
    """
    if top_n < 1:
        return []
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
            v = np.ones(R)  # per rank, the sequences S stands for
            for j in range(L):
                w = weights[:, j].reshape(R, *(1,) * (v.ndim - 1), K)
                v = v[..., None] * w[..., 1:] if j in S else v * w[..., 0]
            total += v.sum(axis=0)
        conf.append(total.ravel())
    conf = np.concatenate(conf)
    kept = np.flatnonzero(conf)
    if top_n < len(kept):  # the rules reaching the top_n-th confidence; all if it is NaN
        cut = np.partition(-conf[kept], top_n - 1)[top_n - 1]
        kept = kept if np.isnan(cut) else kept[-conf[kept] <= cut]
    hops = pattern_rows(P, 1, L, kept)  # only the rows that can make the cut
    return [
        ExtractedRule(RulePattern(tuple(int(p) for p in hops[i] if p >= 0)),
                      float(conf[kept[i]]), query)
        for i in top_patterns(hops, (conf[kept],), top_n)
    ]


def rules_tsv(rules, kg) -> str:
    return tsv(["rule", "predicate", "confidence"],
               ([",".join(r.hops.names(kg)), kg.predicates[r.predicate], r.confidence]
                for r in rules))


def rules_table(rules, kg) -> str:
    if not rules:
        return "(no rules)\n"
    bodies = [r.hops.label(kg) for r in rules]
    width = max(map(len, bodies))
    lines = [f"{body:<{width}} => {kg.predicates[r.predicate]:<16} {r.confidence:.4f}"
             for body, r in zip(bodies, rules)]
    return "\n".join(lines) + "\n"
