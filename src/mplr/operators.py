"""Sparse operator algebra: per-predicate 0/1 adjacency matrices and chain products.

Every predicate p gets a |E| x |E| CSR matrix M_p with entry (i, j) = 1 iff the
triple (e_i, p, e_j) is in the graph, plus a reserved identity operator at
operator index 0 (predicate p therefore sits at operator index p + 1). Left
vector-matrix products over these operators simulate rule application: the j-th
entry of v_h^T M_p1 ... M_pl counts the distinct paths h -> ... -> j whose i-th
edge carries predicate p_i. State vectors are plain dense float arrays. The
nonzeros of all operators also form one row-ordered edge list (row, col,
operator), over which the reasoner and the saturation scan propagate, with an
optional excluded edge per entity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .kg import KnowledgeGraph

IDENTITY_OP = 0
# marker for an identity hop inside a model-side hop sequence
IDENTITY_HOP = -1


@dataclass(frozen=True)
class RulePattern:
    """Ordered predicate hops of a candidate rule body.

    Indicator patterns never contain identity hops; model-side sequences may
    use IDENTITY_HOP (-1), which propagation treats as a no-op.
    """

    hops: tuple[int, ...]

    def __post_init__(self):
        if not self.hops:
            raise ValueError("empty rule pattern")

    def __len__(self):
        return len(self.hops)

    def names(self, kg: KnowledgeGraph) -> tuple[str, ...]:
        return tuple(
            "<identity>" if p == IDENTITY_HOP else kg.predicates[p] for p in self.hops
        )


def pattern_table(num_predicates: int, min_len: int, max_len: int) -> np.ndarray:
    """Every hop tuple of length min_len..max_len, one row each, padded with -1.

    Shorter tuples come first, then lexicographic order, so the tuples of
    length m are the C-order ravel of a (num_predicates,) * m array.
    """
    blocks = []
    for m in range(min_len, max_len + 1):
        block = np.full((num_predicates**m, max_len), -1, dtype=np.int64)
        block[:, :m] = np.indices((num_predicates,) * m).reshape(m, -1).T
        blocks.append(block)
    return np.concatenate(blocks)


def top_patterns(table: np.ndarray, scores, top_n: int) -> np.ndarray:
    """Rows of a pattern table ranked by `scores`, best first, cut at top_n.

    `scores` holds one value per row for each rank key, most significant key
    first; every key ranks higher values first. Ties go to the
    lexicographically smaller hop tuple, and the -1 padding puts a prefix
    before its extensions. Only the rows that reach the top_n-th value of
    the primary key, ties included, are sorted.
    """
    keep = np.arange(len(table))
    first = -np.asarray(scores[0])
    if top_n < len(keep):
        cut = np.partition(first, top_n - 1)[top_n - 1]
        keep = keep if np.isnan(cut) else np.flatnonzero(first <= cut)
    keys = tuple(table[keep, j] for j in reversed(range(table.shape[1])))
    keys += tuple(-np.asarray(s)[keep] for s in reversed(scores))
    return keep[np.lexsort(keys)[:top_n]]


class OperatorSet:
    """Identity plus one adjacency operator per predicate, with combination helpers."""

    def __init__(self, kg: KnowledgeGraph):
        n = kg.num_entities
        self.num_entities = n
        self.num_predicates = kg.num_predicates
        mats = [sparse.eye_array(n, dtype=np.float64, format="csr")]
        for p in range(kg.num_predicates):
            edges = kg.per_predicate[p]
            if edges:
                rows = np.fromiter((h for h, _ in edges), dtype=np.int64)
                cols = np.fromiter((t for _, t in edges), dtype=np.int64)
                data = np.ones(len(edges), dtype=np.float64)
                m = sparse.csr_array((data, (rows, cols)), shape=(n, n))
            else:
                m = sparse.csr_array((n, n), dtype=np.float64)
            mats.append(m)
        self.matrices = mats
        self._edges = None
        self._indptr = None

    def __len__(self):
        return len(self.matrices)

    def matrix(self, op_index: int) -> sparse.csr_array:
        return self.matrices[op_index]

    def predicate_matrix(self, predicate: int) -> sparse.csr_array:
        return self.matrices[predicate + 1]

    def _edge_list(self):
        """(rows, cols, ops) of every operator's nonzeros, identity included,
        ordered by row; built on first use."""
        if self._edges is None:
            coos = [m.tocoo() for m in self.matrices]
            rows = np.concatenate([c.row for c in coos]).astype(np.int64)
            cols = np.concatenate([c.col for c in coos]).astype(np.int64)
            ops = np.repeat(np.arange(len(coos)), [c.nnz for c in coos])
            order = np.argsort(rows, kind="stable")
            self._edges = (rows[order], cols[order], ops[order])
            self._indptr = np.searchsorted(
                self._edges[0], np.arange(self.num_entities + 1)
            )
        return self._edges

    def out_edges(self, entities, excluded=None):
        """Every edge leaving `entities`, over all operators (identity included).

        Returns (owner, cols, ops): edge n runs from entities[owner[n]] to
        cols[n] in operator ops[n]. `excluded` = (heads, ops, tails), one entry
        per entity, drops the edge (heads[i], ops[i], tails[i]) from the edges
        of entities[i] (operator -1: nothing dropped). The edge list is
        row-ordered, so the cost is the number of edges returned, not the size
        of the graph.
        """
        _, cols, ops = self._edge_list()
        entities = np.asarray(entities, dtype=np.int64)
        starts = self._indptr[entities]
        counts = self._indptr[entities + 1] - starts
        owner = np.repeat(np.arange(len(entities)), counts)
        # output position of each entity's first edge, shifted to its edge-list start
        shift = starts - (np.cumsum(counts) - counts)
        edge = np.arange(counts.sum()) + np.repeat(shift, counts)
        cols, ops = cols[edge], ops[edge]
        if excluded is not None:
            x_head, x_op, x_tail = (np.asarray(x)[owner] for x in excluded)
            keep = ~((entities[owner] == x_head) & (ops == x_op) & (cols == x_tail))
            owner, cols, ops = owner[keep], cols[keep], ops[keep]
        return owner, cols, ops

    def combine(self, weights: np.ndarray) -> sparse.csr_array:
        """Weighted sum over all operators, sum_k weights[k] * M_k, as one CSR."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(self.matrices),):
            raise ValueError(
                f"expected {len(self.matrices)} operator weights, got {weights.shape}"
            )
        return sum(w * m for w, m in zip(weights, self.matrices)).tocsr()

    def combine_t(self, weights: np.ndarray) -> sparse.csr_array:
        """Transpose of combine(weights)."""
        return self.combine(weights).T.tocsr()


def build_operators(kg: KnowledgeGraph) -> OperatorSet:
    """One operator per predicate plus the identity at operator index 0."""
    return OperatorSet(kg)


def count_paths(ops, h: int, pattern: RulePattern, t: int, excluded_edge=None) -> int:
    """Number of distinct entity sequences h -> ... -> t realizing `pattern`.

    `excluded_edge` is an (h, q, t) triple whose exact labeled edge paths may
    not traverse (used for the direct-edge convention and filtered evaluation);
    an edge absent from the graph excludes nothing. Accepts a KnowledgeGraph or
    a prebuilt OperatorSet.
    """
    if isinstance(ops, KnowledgeGraph):
        ops = OperatorSet(ops)
    excl = None
    if excluded_edge is not None:
        eh, eq, et = excluded_edge
        if ops.predicate_matrix(eq)[eh, et] != 0:
            excl = (eh, eq, et)
    u = np.zeros(ops.num_entities)
    u[h] = 1.0
    for hop in pattern.hops:
        if hop == IDENTITY_HOP:
            continue
        nxt = u @ ops.predicate_matrix(hop)
        if excl is not None and hop == excl[1]:
            nxt[excl[2]] -= u[excl[0]]
        u = nxt
    return int(round(u[t]))

