"""Structural indicators: reasoning saturation and bifurcation.

Saturation asks how well a candidate rule pattern explains the edges of a
query predicate: the macro fraction counts triplets reachable through at least
one path of the pattern, the micro fraction averages each triplet's share of
pattern paths among all connecting paths up to the length cap, and the
comprehensive value is their product. Bifurcation profiles the multi-target
pressure of a predicate: the fraction of heads (or tails) with at least
lambda neighbors.

By default, path search for a triplet (h, q, t) excludes the triplet's own
edge from traversal so a pattern containing q cannot explain the edge with
itself; pass exclude_direct_edge=False for literal inclusion. Both conventions
are exact, not sampled, and vectorised at every pattern length: one pass of
sparse chain products (`_saturation_scan`) yields every pattern's counts, with
the exclusion applied in closed form by inclusion-exclusion over the pattern's
q-hops. `operators.count_paths` stays the per-triplet reference.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .kg import KnowledgeGraph, fw_degree, bw_degree
from .operators import OperatorSet, RulePattern
# the per-triplet reference count; bench/tracing.py hooks it under this name
from .operators import count_paths  # noqa: F401

log = logging.getLogger(__name__)

# complexity guardrail for full saturation scans, in |P|^(L+1) * |G| units
DEFAULT_COST_BUDGET = 2e9

FORWARD = "forward"
BACKWARD = "backward"


class EmptySubgraphError(ValueError):
    """The predicate has no edges, so the indicator is undefined."""


class CostBudgetError(RuntimeError):
    """A full saturation scan would exceed the configured cost budget."""


@dataclass(frozen=True)
class SaturationRecord:
    pattern: RulePattern
    predicate: int
    gamma: float
    delta: float
    eta: float


@dataclass(frozen=True)
class BifurcationRecord:
    predicate: int
    direction: str
    proportions: dict[int, float]


def estimate_cost(kg: KnowledgeGraph, max_len: int) -> float:
    return float(kg.num_predicates) ** (max_len + 1) * len(kg.triples)


def _triplet_arrays(kg, predicates):
    """Heads, predicates and tails of the triples of `predicates`, in graph order."""
    wanted = set(predicates)
    triples = [tri for tri in kg.triples if tri[1] in wanted]
    hs = np.fromiter((h for h, _, _ in triples), dtype=np.int64, count=len(triples))
    qs = np.fromiter((p for _, p, _ in triples), dtype=np.int64, count=len(triples))
    ts = np.fromiter((t for _, _, t in triples), dtype=np.int64, count=len(triples))
    return hs, qs, ts


def _chain_index(chain, base):
    """Position of `chain` among the chains of its length, lexicographically."""
    index = 0
    for p in chain:
        index = index * base + p
    return index


def _gather(mat, rows, cols):
    mat.sort_indices()  # sorted rows let the lookup bisect instead of scanning
    return mat[rows, cols]


def _split_blocks(mat, num_blocks, width):
    """Cut the column blocks of `mat` (R, num_blocks * width) into R-row matrices."""
    coo = mat.tocoo()
    block, col = np.divmod(coo.col, width)
    r = mat.shape[0]
    stacked = sparse.csr_array(
        (coo.data, (block * r + coo.row, col)), shape=(num_blocks * r, width)
    )
    return [stacked[b * r:(b + 1) * r] for b in range(num_blocks)]


def _saturation_scan(kg, ops, max_len, active, exclude):
    """Exact gamma and delta of every pattern of length 2..max_len per active predicate.

    Returns (hops, gamma, delta): `hops` is (num_patterns, max_len), padded
    with -1, in enumerate_patterns order (shorter first, then lexicographic);
    gamma and delta are (num_patterns, len(active)).

    Level k extends every chain of length k-1 by all predicates at once, as
    one product with the side-by-side operators [M_0 ... M_{P-1}]. Chains keep
    only the rows of the scanned triplets' endpoints, and each level's
    products are gathered at the triplets' (h, t) for the pattern counts,
    which stay sparse (nonzeros only) until the totals are known.

    With the direct edge of (h, q, t) excluded, a pattern p counts
    e_h^T prod_i (M_{p_i} - [p_i = q] e_h e_t^T) e_t paths. Expanding over the
    set S = {i_1 < ... < i_k} of q-hops that take the removed edge gives the
    signed terms (-1)^k chain(p_1..p_{i_1-1})[h, h]
    * prod_j chain(p_{i_j+1}..p_{i_{j+1}-1})[t, h] * chain(p_{i_k+1}..p_L)[t, t],
    where the empty chain is the identity. Every factor is a chain shorter
    than the pattern, so each level keeps its chains' diagonals over the
    endpoint rows ([h, h] and [t, t]) and their [t, h] entries for the next.
    """
    num_preds = ops.num_predicates
    hs, qs, ts = _triplet_arrays(kg, active)
    n = len(hs)
    slot = np.full(num_preds, -1, dtype=np.int64)
    slot[active] = np.arange(len(active))
    rows, ends = np.unique(np.concatenate([hs, ts]), return_inverse=True)
    rh, rt = ends[:n], ends[n:]
    num_rows, num_ents = len(rows), ops.num_entities
    side = sparse.hstack(
        [ops.predicate_matrix(p) for p in range(num_preds)], format="csr"
    )
    # gather positions in a (rows, P * |E|) product, block b first
    shift = np.arange(num_preds)[:, None] * num_ents
    at_pairs = (np.tile(rh, num_preds), (shift + ts).ravel())
    at_diag = (np.tile(np.arange(num_rows), num_preds), (shift + rows).ravel())
    at_back = (np.tile(rt, num_preds), (shift + hs).ravel())
    # return entries of the chains of each length: diag[m] is (P^m, rows) and
    # back[m] is (P^m, n); the empty chain is the identity
    diag = [np.ones((1, num_rows))]
    back = [(hs == ts).astype(np.float64)[None, :]]
    by_pred = {q: np.flatnonzero(qs == q) for q in active}
    columns = np.arange(n)

    def exclude_direct_edge(block, chain, index):
        # S = {last hop}: the rest of the path is `chain` returning to h
        block[qs, columns] -= diag[len(chain)][index][rh]
        for q in sorted(set(chain) & by_pred.keys()):
            idx = by_pred[q]
            at = [j for j, p in enumerate(chain) if p == q]
            for size in range(1, len(at) + 1):
                for hops in itertools.combinations(at, size):
                    w = (-1.0) ** size * diag[hops[0]][
                        _chain_index(chain[:hops[0]], num_preds)][rh[idx]]
                    for a, b in zip(hops, hops[1:]):
                        mid = chain[a + 1:b]
                        w = w * back[len(mid)][_chain_index(mid, num_preds)][idx]
                    tail = chain[hops[-1] + 1:]
                    ti = _chain_index(tail, num_preds)
                    # S = hops: the last hop is free, the suffix is tail + (b,)
                    suffix = diag[len(tail) + 1][ti * num_preds:(ti + 1) * num_preds]
                    block[:, idx] += w * suffix[:, rt[idx]]
                    # S = hops + {last hop}: tail returns from t to h in between
                    block[q, idx] -= w * back[len(tail)][ti][idx]

    pattern_ids, triplet_ids, counts = [], [], []
    offset = 0  # id of the first pattern of the current length
    frontier = [sparse.csr_array(
        (np.ones(num_rows), (np.arange(num_rows), rows)), shape=(num_rows, num_ents)
    )]
    for k in range(1, max_len + 1):
        keep_diag = exclude and k < max_len
        keep_back = exclude and k < max_len - 1
        if keep_diag:
            diag.append(np.zeros((num_preds**k, num_rows)))
        if keep_back:
            back.append(np.zeros((num_preds**k, n)))
        children = []
        for index, mat in enumerate(frontier):
            if mat is None or mat.nnz == 0:  # an empty chain only has empty extensions
                if k < max_len:
                    children.extend([None] * num_preds)
                continue
            prod = mat @ side
            lo, hi = index * num_preds, (index + 1) * num_preds
            if keep_diag:
                diag[k][lo:hi] = _gather(prod, *at_diag).reshape(num_preds, num_rows)
            if keep_back:
                back[k][lo:hi] = _gather(prod, *at_back).reshape(num_preds, n)
            if k >= 2:
                block = _gather(prod, *at_pairs).reshape(num_preds, n)
                if exclude and block.any():
                    chain = np.unravel_index(index, (num_preds,) * (k - 1))
                    exclude_direct_edge(block, tuple(int(p) for p in chain), index)
                b, i = np.nonzero(block)
                pattern_ids.append(offset + lo + b)
                triplet_ids.append(i)
                counts.append(block[b, i])
            if k < max_len:
                children.extend(_split_blocks(prod, num_preds, num_ents))
        frontier = children
        if k >= 2:
            offset += num_preds**k

    hops = np.full((offset, max_len), -1, dtype=np.int64)
    start = 0
    for k in range(2, max_len + 1):
        size = num_preds**k
        hops[start:start + size, :k] = np.indices((num_preds,) * k).reshape(k, -1).T
        start += size

    pid = np.concatenate(pattern_ids) if pattern_ids else np.zeros(0, dtype=np.int64)
    trip = np.concatenate(triplet_ids) if triplet_ids else np.zeros(0, dtype=np.int64)
    cnt = np.concatenate(counts) if counts else np.zeros(0)
    totals = np.bincount(trip, weights=cnt, minlength=n)
    shares = cnt / totals[trip]  # every stored count is positive
    width = len(active)
    key = pid * width + slot[qs[trip]]
    nq = np.bincount(slot[qs], minlength=width).astype(np.float64)
    gamma = np.bincount(key, minlength=offset * width).reshape(offset, width) / nq
    delta = np.bincount(key, weights=shares, minlength=offset * width).reshape(
        offset, width
    ) / nq
    return hops, gamma, delta


def _pattern_saturation(kg, pattern, predicate, max_len, exclude, ops):
    """(gamma, delta) of one pattern, read off the scan of `predicate`."""
    if len(pattern) > max_len:
        raise ValueError(f"pattern length {len(pattern)} exceeds max_len {max_len}")
    if len(pattern) < 2 or not all(0 <= p < kg.num_predicates for p in pattern.hops):
        raise ValueError(f"not a saturation pattern: {pattern.hops}")
    if kg.num_edges(predicate) == 0:
        raise EmptySubgraphError(f"empty subgraph for predicate {predicate}")
    _, gamma, delta = _saturation_scan(
        kg, ops or OperatorSet(kg), max_len, [predicate], exclude
    )
    row = sum(kg.num_predicates**m for m in range(2, len(pattern))) + _chain_index(
        pattern.hops, kg.num_predicates
    )
    return float(gamma[row, 0]), float(delta[row, 0])


def macro_saturation(
    kg: KnowledgeGraph,
    pattern: RulePattern,
    predicate: int,
    *,
    exclude_direct_edge: bool = True,
    ops: OperatorSet | None = None,
) -> float:
    """Fraction of (h, predicate, t) triplets connected by at least one pattern path."""
    return _pattern_saturation(
        kg, pattern, predicate, len(pattern), exclude_direct_edge, ops
    )[0]


def micro_saturation(
    kg: KnowledgeGraph,
    pattern: RulePattern,
    predicate: int,
    max_len: int,
    *,
    exclude_direct_edge: bool = True,
    ops: OperatorSet | None = None,
) -> float:
    """Mean per-triplet share of pattern paths among all paths of length <= max_len.

    Triplets with no connecting path at all contribute share 0 (the average
    still divides by the full subgraph edge count).
    """
    return _pattern_saturation(
        kg, pattern, predicate, max_len, exclude_direct_edge, ops
    )[1]


def comprehensive_saturation(gamma: float, delta: float) -> float:
    if not (0.0 <= gamma <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValueError("saturations must lie in [0, 1]")
    return gamma * delta


def bifurcation(
    kg: KnowledgeGraph, predicate: int, direction: str = FORWARD, lambda_max: int = 7
) -> BifurcationRecord:
    """Proportion of heads (forward) or tails (backward) with >= lambda q-neighbors."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    if kg.num_edges(predicate) == 0:
        raise EmptySubgraphError(f"empty subgraph for predicate {predicate}")
    if direction == FORWARD:
        degs = [fw_degree(kg, predicate, v) for v in kg.heads(predicate)]
    else:
        degs = [bw_degree(kg, predicate, v) for v in kg.tails(predicate)]
    degs = np.asarray(degs)
    proportions = {
        lam: float(np.count_nonzero(degs >= lam)) / len(degs)
        for lam in range(1, lambda_max + 1)
    }
    return BifurcationRecord(predicate, direction, proportions)


def sample_subgraph(
    kg: KnowledgeGraph, seed: int, target_triple_count: int
) -> KnowledgeGraph:
    """Uniform triple sample without replacement; keeps the parent vocabularies."""
    n = len(kg.triples)
    if target_triple_count > n:
        raise ValueError(f"cannot sample {target_triple_count} of {n} triples")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=target_triple_count, replace=False))
    triples = [kg.triples[i] for i in idx]
    return KnowledgeGraph(kg.entities, kg.predicates, triples)


def saturation_report(
    kg: KnowledgeGraph,
    max_len: int = 2,
    top_n: int = 5,
    *,
    exclude_direct_edge: bool = True,
    budget: float | None = DEFAULT_COST_BUDGET,
    predicates=None,
    ops: OperatorSet | None = None,
) -> list[SaturationRecord]:
    """Top rule patterns per predicate, ranked by comprehensive saturation.

    Covers every pattern of length 2..max_len against every predicate (or the
    given subset), skipping empty subgraphs with a warning. Guarded by the
    |P|^(L+1) * |G| cost estimate; sample the graph or raise the budget for
    large inputs.
    """
    if budget is not None and estimate_cost(kg, max_len) > budget:
        raise CostBudgetError(
            f"saturation scan cost {estimate_cost(kg, max_len):.2e} exceeds budget "
            f"{budget:.2e}; sample the graph (sample_subgraph) or raise the budget"
        )
    ops = ops or OperatorSet(kg)
    wanted = list(range(kg.num_predicates)) if predicates is None else list(predicates)
    active = []
    for q in wanted:
        if kg.num_edges(q) == 0:
            log.warning("skipping predicate %s: empty subgraph", kg.predicates[q])
        else:
            active.append(q)
    if not active:
        return []

    scanned = list(dict.fromkeys(active))
    hops, gamma, delta = _saturation_scan(
        kg, ops, max_len, scanned, exclude_direct_edge
    )
    eta = gamma * delta
    # ties go to the lexicographically smaller hop tuple (a prefix sorts first)
    tie_keys = tuple(hops[:, j] for j in reversed(range(max_len)))
    out: list[SaturationRecord] = []
    for q in active:
        s = scanned.index(q)
        for i in np.lexsort(tie_keys + (-gamma[:, s], -eta[:, s]))[:top_n]:
            pattern = RulePattern(tuple(int(p) for p in hops[i] if p >= 0))
            out.append(
                SaturationRecord(pattern, q, gamma[i, s], delta[i, s], eta[i, s])
            )
    return out


# ---------------------------------------------------------------------------
# report rendering

def pattern_label(pattern: RulePattern, kg: KnowledgeGraph) -> str:
    return " & ".join(pattern.names(kg))


def saturation_tsv(records, kg) -> str:
    lines = ["pattern\tpredicate\tgamma\tdelta\teta"]
    for r in records:
        lines.append(
            f"{','.join(r.pattern.names(kg))}\t"
            f"{kg.predicates[r.predicate]}\t{r.gamma!r}\t{r.delta!r}\t{r.eta!r}"
        )
    return "\n".join(lines) + "\n"


def saturation_table(records, kg) -> str:
    """Aligned text table, one block per predicate, eta-descending rows."""
    if not records:
        return "(no saturation records)\n"
    width = max(len(pattern_label(r.pattern, kg)) for r in records)
    lines = []
    current = None
    for r in records:
        if r.predicate != current:
            if current is not None:
                lines.append("")
            lines.append(f"=> {kg.predicates[r.predicate]}")
            current = r.predicate
        lines.append(
            f"  {pattern_label(r.pattern, kg):<{width}}  "
            f"gamma={r.gamma:.2f}  delta={r.delta:.2f}  eta={r.eta:.2f}"
        )
    return "\n".join(lines) + "\n"


def bifurcation_tsv(records, kg) -> str:
    lines = ["predicate\tdirection\tlambda\tproportion"]
    for r in records:
        for lam in sorted(r.proportions):
            lines.append(
                f"{kg.predicates[r.predicate]}\t{r.direction}\t{lam}\t{r.proportions[lam]!r}"
            )
    return "\n".join(lines) + "\n"


def bifurcation_table(records, kg) -> str:
    """Percentages (rounded) per predicate row, one column per lambda."""
    if not records:
        return "(no bifurcation records)\n"
    lams = sorted({lam for r in records for lam in r.proportions})
    width = max(len(kg.predicates[r.predicate]) for r in records)
    header = " " * (width + 2) + "".join(f"{'l=' + str(lam):>8}" for lam in lams)
    lines = [header]
    for r in records:
        cells = "".join(
            f"{round(100 * r.proportions[lam]):>8}" if lam in r.proportions else f"{'-':>8}"
            for lam in lams
        )
        lines.append(f"{kg.predicates[r.predicate]:<{width}} ({r.direction[0]})" + cells)
    return "\n".join(lines) + "\n"
