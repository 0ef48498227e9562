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
are exact, not sampled, and share one path: `_saturation_scan` walks every
scanned triplet's paths over the operator edge list (`OperatorSet.out_edges`,
the edge list the reasoner propagates over), each triplet dropping its own
edge under the exclusion. `operators.count_paths` stays the per-triplet
reference.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph
from .operators import OperatorSet, RulePattern, pattern_table, top_patterns
# the per-triplet reference count; bench/tracing.py hooks it under this name
from .operators import count_paths  # noqa: F401

log = logging.getLogger(__name__)

# complexity guardrail for saturation scans, in estimate_cost units
DEFAULT_COST_BUDGET = 2e9
# triplets per saturation walk; bounds the path counts held at once
SCAN_CHUNK = 1024

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


def estimate_cost(kg: KnowledgeGraph, max_len: int, predicates=None) -> float:
    """Upper bound on the (pattern, triplet) counts the scan can store:
    sum_{k=2..L} |P|^k * scanned triples.

    `_saturation_scan` stores at most one count per (pattern of length k,
    triple of a scanned predicate), and only the nonzero ones; `predicates`
    None scans all of them.
    """
    wanted = range(kg.num_predicates) if predicates is None else set(predicates)
    scanned = sum(kg.num_edges(q) for q in wanted)
    patterns = sum(float(kg.num_predicates) ** k for k in range(2, max_len + 1))
    return patterns * scanned


def _saturation_scan(kg, ops, max_len, active, exclude):
    """Exact gamma and delta of every pattern of length 2..max_len per active predicate.

    Returns (hops, gamma, delta): `hops` is `pattern_table(|P|, 2, max_len)`
    and gamma and delta are (num_patterns, len(active)), row for row.

    One walk over `OperatorSet.out_edges` counts every pattern's paths: row n
    starts at the head of triplet n, and level k holds the nonzero path counts
    of the chains of length k under sorted keys (chain * rows + row) * |E| +
    entity, chains in `pattern_table` order. Each level expands the one before
    along the predicate edges; the pattern counts of a level are its entries
    at the rows' tails, and the last hop only takes edges into the row's tail.
    With `exclude`, row n never takes the edge (h_n, q_n, t_n). The walk runs
    SCAN_CHUNK triplets at a time, in graph order, so each (pattern,
    predicate) still sums its shares in triplet order.
    """
    num_preds, num_ents = ops.num_predicates, ops.num_entities
    width = len(active)
    slot = np.full(num_preds, -1, dtype=np.int64)  # column of each active predicate
    slot[active] = np.arange(width)
    hs, qs, ts = kg.triple_array[slot[kg.triple_array[:, 1]] >= 0].T
    pattern_ids, triplet_ids, counts = [], [], []
    for lo in range(0, len(hs), SCAN_CHUNK):
        h, q, t = (a[lo:lo + SCAN_CHUNK] for a in (hs, qs, ts))
        n = len(h)
        chain, row, ent, cnt = np.zeros(n, dtype=np.int64), np.arange(n), h, np.ones(n)
        offset = 0  # id of the first pattern of length k
        for k in range(1, max_len + 1):
            excluded = (h[row], q[row] + 1, t[row]) if exclude else None
            src, nxt, op = ops.out_edges(ent, excluded)
            keep = op > 0  # predicate edges; operator 0 is the identity
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

    hops = pattern_table(num_preds, 2, max_len)
    num_patterns = len(hops)
    pid, trip, cnt = (np.concatenate(a) for a in (pattern_ids, triplet_ids, counts))
    totals = np.bincount(trip, weights=cnt, minlength=len(hs))
    shares = cnt / totals[trip]  # every stored count is positive
    key = pid * width + slot[qs[trip]]
    nq = np.bincount(slot[qs], minlength=width).astype(np.float64)
    size = num_patterns * width
    gamma = np.bincount(key, minlength=size).reshape(num_patterns, width) / nq
    delta = np.bincount(key, weights=shares, minlength=size).reshape(
        num_patterns, width
    ) / nq
    return hops, gamma, delta


def bifurcation(
    kg: KnowledgeGraph, predicate: int, direction: str = FORWARD, lambda_max: int = 7
) -> BifurcationRecord:
    """Proportion of heads (forward) or tails (backward) with >= lambda q-neighbors."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    if kg.num_edges(predicate) == 0:
        raise EmptySubgraphError(f"empty subgraph for predicate {predicate}")
    ends = kg.per_predicate[predicate][:, 0 if direction == FORWARD else 1]
    _, degs = np.unique(ends, return_counts=True)
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
    return KnowledgeGraph(kg.entities, kg.predicates, kg.triple_array[idx])


def saturation_report(
    kg: KnowledgeGraph,
    max_len: int = 2,
    top_n: int = 5,
    *,
    exclude_direct_edge: bool = True,
    budget: float | None = DEFAULT_COST_BUDGET,
    predicates=None,
) -> list[SaturationRecord]:
    """Top rule patterns per predicate, ranked by comprehensive saturation.

    Covers every pattern of length 2..max_len against every predicate (or the
    given subset, repeats dropped), skipping empty subgraphs with a warning. Guarded by
    `estimate_cost` over the scanned predicates; sample the graph or raise
    the budget for large inputs.
    """
    cost = estimate_cost(kg, max_len, predicates)
    if budget is not None and cost > budget:
        raise CostBudgetError(
            f"saturation scan cost {cost:.2e} exceeds budget "
            f"{budget:.2e}; sample the graph (sample_subgraph) or raise the budget"
        )
    wanted = range(kg.num_predicates) if predicates is None else dict.fromkeys(predicates)
    active = []
    for q in wanted:
        if kg.num_edges(q) == 0:
            log.warning("skipping predicate %s: empty subgraph", kg.predicates[q])
        else:
            active.append(q)
    if not active:
        return []

    hops, gamma, delta = _saturation_scan(
        kg, OperatorSet(kg), max_len, active, exclude_direct_edge
    )
    eta = gamma * delta
    out: list[SaturationRecord] = []
    for s, q in enumerate(active):
        for i in top_patterns(hops, (eta[:, s], gamma[:, s]), top_n):
            pattern = RulePattern(tuple(int(p) for p in hops[i] if p >= 0))
            out.append(SaturationRecord(
                pattern, q, float(gamma[i, s]), float(delta[i, s]), float(eta[i, s])
            ))
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
