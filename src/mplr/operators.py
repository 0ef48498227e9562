"""Relational operators stored as one row-ordered edge list.

Predicate p is the |E| x |E| 0/1 adjacency operator M_p at operator index
p + 1, (i, j) = 1 iff (e_i, p, e_j) is in the graph; index 0 is the identity.
The j-th entry of v_h^T M_p1 ... M_pl counts the paths h -> ... -> j whose
i-th edge carries p_i, which is how a rule body is applied. Only nonzeros are
stored: one edge list (row, col, operator), built with numpy from the
graph's triple array. The reasoner and the saturation scan propagate over it,
with an optional excluded edge per entity. CSR views, built on call, serve
reference code and are the only use of scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Identity plus one adjacency operator per predicate, as one edge list.

    `edges` = (rows, cols, ops): every operator's nonzeros, identity loops
    included, by row, operator, then column. Row e is indptr[e]:indptr[e + 1].
    """

    def __init__(self, kg: KnowledgeGraph):
        n, K = kg.num_entities, kg.num_predicates + 1
        self.num_entities, self.num_predicates = n, kg.num_predicates
        h, p, t = kg.triple_array.T
        loops = np.arange(n, dtype=np.int64)
        # one key per edge, (row * K + operator) * |E| + col; triples are distinct
        keys = np.sort(np.concatenate([loops * K * n + loops, (h * K + p + 1) * n + t]))
        row_op, cols = np.divmod(keys, n)
        rows, ops = np.divmod(row_op, K)
        self.edges = (rows, cols, ops)
        self.indptr = np.searchsorted(rows, np.arange(n + 1))

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

    def out_edges(self, entities, excluded=None):
        """Every edge leaving `entities`, over all operators (identity included).

        Returns (owner, cols, ops): edge n runs from entities[owner[n]] to
        cols[n] in operator ops[n]. `excluded` = (heads, ops, tails), one entry
        per entity, drops the edge (heads[i], ops[i], tails[i]) from the edges
        of entities[i] (operator -1: nothing dropped). The edge list is
        row-ordered, so the cost is the number of edges returned, not the size
        of the graph.
        """
        _, cols, ops = self.edges
        entities = np.asarray(entities, dtype=np.int64)
        starts = self.indptr[entities]
        counts = self.indptr[entities + 1] - starts
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


def build_operators(kg: KnowledgeGraph) -> OperatorSet:
    """One operator per predicate plus the identity at operator index 0."""
    return OperatorSet(kg)


def count_paths(ops, h: int, pattern: RulePattern, t: int, excluded_edge=None) -> int:
    """Number of distinct entity sequences h -> ... -> t realizing `pattern`.

    The per-triplet reference: a dense walk over the edge list, one bincount
    per hop. `excluded_edge` is an (h, q, t) triple whose exact labeled edge
    paths may not traverse (used for the direct-edge convention and filtered
    evaluation); an edge absent from the graph excludes nothing. Accepts a
    KnowledgeGraph or a prebuilt OperatorSet.
    """
    if isinstance(ops, KnowledgeGraph):
        ops = OperatorSet(ops)
    rows, cols, op = ops.edges
    live = np.ones(len(op), dtype=bool)
    if excluded_edge is not None:
        eh, eq, et = excluded_edge
        live = ~((rows == eh) & (op == eq + 1) & (cols == et))
    u = np.zeros(ops.num_entities)
    u[h] = 1.0
    for hop in pattern.hops:
        if hop != IDENTITY_HOP:
            keep = (op == hop + 1) & live
            u = np.bincount(cols[keep], weights=u[rows[keep]], minlength=len(u))
    return int(round(u[t]))
