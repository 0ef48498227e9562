"""Relational operators stored as one edge list, by row and by column.

Predicate p is the |E| x |E| 0/1 adjacency operator M_p at operator index
p + 1, (i, j) = 1 iff (e_i, p, e_j) is in the graph; index 0 is the identity.
The j-th entry of v_h^T M_p1 ... M_pl counts the paths h -> ... -> j whose
i-th edge carries p_i, which is how a rule body is applied. Only nonzeros are
stored: one edge list (row, col, operator), built with numpy from the
graph's triple array, and kept both in row order and in column order. The
reasoner and the saturation scan propagate over it, forward from an entity's
out-edges or backward from its in-edges, with an optional excluded edge per
entity. Each graph has one such set, `KnowledgeGraph.operators`, built on
first use, read-only and shared by the reasoner, the scan and the path
counts. CSR views, built on call, serve reference code and are the only use
of scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph

IDENTITY_OP = 0


@dataclass(frozen=True)
class RulePattern:
    """Ordered predicate hops of a candidate rule body."""

    hops: tuple[int, ...]

    def __post_init__(self):
        if not self.hops:
            raise ValueError("empty rule pattern")

    def __len__(self):
        return len(self.hops)

    def names(self, kg: KnowledgeGraph) -> tuple[str, ...]:
        return tuple(kg.predicates[p] for p in self.hops)

    def label(self, kg: KnowledgeGraph) -> str:
        """The hops' names joined by " & ", as the text reports print a body."""
        return " & ".join(self.names(kg))


def pattern_rows(num_predicates: int, min_len: int, max_len: int, rows) -> np.ndarray:
    """Rows `rows` of the pattern table: every hop tuple of length
    min_len..max_len, one row each, padded with -1, shorter tuples first,
    then lexicographic, so the tuples of length m are the C-order ravel of a
    (num_predicates,) * m array. Decoded within each length block without
    building the table."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.full((len(rows), max_len), -1, dtype=np.int64)
    start = 0
    for m in range(min_len, max_len + 1):
        size = num_predicates**m
        block = (rows >= start) & (rows < start + size)
        hops = np.unravel_index(rows[block] - start, (num_predicates,) * m)
        out[block, :m] = np.column_stack(hops)
        start += size
    return out


def top_patterns(table: np.ndarray, scores, top_n: int) -> np.ndarray:
    """Rows of a pattern table ranked by `scores`, best first, cut at top_n.

    `scores` holds one value per row for each rank key, most significant key
    first; every key ranks higher values first. Ties go to the
    lexicographically smaller hop tuple, and the -1 padding puts a prefix
    before its extensions. Every row is sorted: a caller that ranks many
    rows passes only those that reach the top_n-th value of the primary key.
    Rules rank by confidence; saturation candidates by minus their predicate
    slot first, so that each predicate's patterns come out as one block.
    """
    keys = tuple(table[:, j] for j in reversed(range(table.shape[1])))
    keys += tuple(-np.asarray(s) for s in reversed(scores))
    return np.lexsort(keys)[:top_n]


class OperatorSet:
    """Identity plus one adjacency operator per predicate, as one edge list.

    `edges` = (rows, cols, ops): every operator's nonzeros, identity loops
    included, by row, operator, then column. Row e is indptr[e]:indptr[e + 1].
    The same edges are also kept by column, operator, then row, so that
    `out_edges` and `in_edges` each cost the number of edges they return.
    Every array is read-only: a graph builds its one set on first use
    (`KnowledgeGraph.operators`, `build_operators`) and every caller shares
    it.
    """

    def __init__(self, kg: KnowledgeGraph):
        n, K = kg.num_entities, kg.num_predicates + 1
        self.num_entities, self.num_predicates = n, kg.num_predicates
        h, p, t = kg.triple_array.T
        loops = np.arange(n, dtype=np.int64) * (K * n + 1)

        def ordered_by(own, other):
            # each entity owns its edges in the triples plus its identity loop
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(own, minlength=n) + 1, out=indptr[1:])
            # one key per edge, (own * K + operator) * |E| + other; triples are distinct
            keys = np.sort(np.concatenate([loops, (own * K + p + 1) * n + other]))
            own_op, other = np.divmod(keys, n)
            own, ops = np.divmod(own_op, K)
            for a in (own, other, ops, indptr):
                a.flags.writeable = False
            return own, other, ops, indptr

        rows, cols, ops, self.indptr = ordered_by(h, t)
        self.edges = (rows, cols, ops)
        _, in_rows, in_ops, self._in_indptr = ordered_by(t, h)
        self._in_edges = (in_rows, in_ops)

    def __len__(self):
        return self.num_predicates + 1

    def _csr(self, data, keep=slice(None)):
        """The edges selected by `keep`, valued `data`, as one |E| x |E| CSR."""
        from scipy import sparse

        rows, cols, _ = self.edges
        n = self.num_entities
        return sparse.csr_array((data, (rows[keep], cols[keep])), shape=(n, n))

    def predicate_matrix(self, predicate: int):
        """M_p as a 0/1 CSR view, built on call."""
        keep = self.edges[2] == predicate + 1
        return self._csr(np.ones(np.count_nonzero(keep)), keep)

    def out_edges(self, entities, excluded=None, identity=True):
        """Every edge leaving `entities`, over all operators.

        Returns (owner, cols, ops): edge n runs from entities[owner[n]] to
        cols[n] in operator ops[n]. `excluded` = (heads, ops, tails), one entry
        per entity, drops the edge (heads[i], ops[i], tails[i]) from the edges
        of entities[i] (operator -1: nothing dropped). `identity=False` leaves
        out the identity loops. The edge list is row-ordered, so the cost is
        the number of edges returned, not the size of the graph.
        """
        _, cols, ops = self.edges
        return _gather(self.indptr, cols, ops, entities, excluded, identity)

    def in_edges(self, entities, excluded=None, identity=True):
        """Every edge entering `entities`, over all operators.

        Returns (owner, rows, ops): edge n runs from rows[n] to
        entities[owner[n]] in operator ops[n]. `excluded` and `identity` are
        as in `out_edges`: (heads, ops, tails), one entry per entity, drops
        that edge from the edges of entities[i]. The column order makes the
        cost the number of edges returned.
        """
        rows, ops = self._in_edges
        flipped = None if excluded is None else excluded[::-1]
        return _gather(self._in_indptr, rows, ops, entities, flipped, identity)

    def combine(self, weights: np.ndarray):
        """Weighted sum over all operators, sum_k weights[k] * M_k, as one CSR
        view built on call."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(self),):
            raise ValueError(
                f"expected {len(self)} operator weights, got {weights.shape}"
            )
        return self._csr(weights[self.edges[2]])

    def combine_t(self, weights: np.ndarray):
        """Transpose of combine(weights)."""
        return self.combine(weights).T.tocsr()


def concat_ranges(starts, counts):
    """(owner, index) over the ranges starts[i]:starts[i] + counts[i], concatenated:
    position n holds index[n] of range owner[n]."""
    owner = np.repeat(np.arange(len(starts)), counts)
    # output position of each range's first index, shifted to the range start
    shift = starts - (np.cumsum(counts) - counts)
    return owner, np.arange(counts.sum()) + np.repeat(shift, counts)


def _gather(indptr, others, ops, entities, excluded, identity):
    """The edges of `entities` in an edge list ordered by its own end: entity e
    owns others[indptr[e]:indptr[e + 1]]. Returns (owner, others, ops);
    `excluded` = (own ends, ops, other ends), one entry per entity."""
    entities = np.asarray(entities, dtype=np.int64)
    # operator 0 sorts first, so each entity's identity loop opens its edges
    starts = indptr[entities] + (0 if identity else 1)
    owner, edge = concat_ranges(starts, indptr[entities + 1] - starts)
    others, ops = others[edge], ops[edge]
    if excluded is not None:
        x_own, x_op, x_other = (np.asarray(x)[owner] for x in excluded)
        keep = ~((entities[owner] == x_own) & (ops == x_op) & (others == x_other))
        owner, others, ops = owner[keep], others[keep], ops[keep]
    return owner, others, ops


def build_operators(kg: KnowledgeGraph) -> OperatorSet:
    """One operator per predicate plus the identity at operator index 0: the
    graph's one read-only set, built on its first use and then shared."""
    return kg.operators


def count_paths(ops, h: int, pattern: RulePattern, t: int, excluded_edge=None) -> int:
    """Number of distinct entity sequences h -> ... -> t realizing `pattern`.

    The per-triplet reference: a dense walk over the edge list, one bincount
    per hop. `excluded_edge` is an (h, q, t) triple whose exact labeled edge
    paths may not traverse (used for the direct-edge convention and filtered
    evaluation); an edge absent from the graph excludes nothing. Accepts a
    KnowledgeGraph, whose one operator set it reads, or an OperatorSet.
    """
    if isinstance(ops, KnowledgeGraph):
        ops = ops.operators
    rows, cols, op = ops.edges
    live = np.ones(len(op), dtype=bool)
    if excluded_edge is not None:
        eh, eq, et = excluded_edge
        live = ~((rows == eh) & (op == eq + 1) & (cols == et))
    u = np.zeros(ops.num_entities)
    u[h] = 1.0
    for hop in pattern.hops:
        keep = (op == hop + 1) & live
        u = np.bincount(cols[keep], weights=u[rows[keep]], minlength=len(u))
    return int(round(u[t]))
