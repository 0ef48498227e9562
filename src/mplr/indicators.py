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
are exact, not sampled, and share one path: `_saturation_scan` meets in the
middle. It walks the first half of every pattern forward from each scanned
triplet's head (`OperatorSet.out_edges`, the edge list the reasoner
propagates over) and the second half backward from its tail
(`OperatorSet.in_edges`), and joins the two walks on the entity where they
meet. Under the exclusion, both walks drop the triplet's own edge. The
scan keeps only the (predicate, pattern) pairs it finds, and the report
ranks every predicate's candidates at once, decoding hop tuples only for
the patterns that can make the cut. The scan walks the graph's one
operator set (`KnowledgeGraph.operators`), built on first use. Bifurcation
reads a predicate's degree profile from one count of its end degrees.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph
from .operators import RulePattern, build_operators, concat_ranges, pattern_rows
# the per-triplet path count, which the scan does not call; bench/tracing.py
# hooks it under this name
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
    """Exact gamma and delta of the patterns of length 2..max_len that link
    some triplet of an active predicate.

    Returns (slot, row, gamma, delta), one entry per (active predicate,
    pattern) pair of nonzero gamma, sorted by slot (the position in
    `active`), then row (the pattern's row in `pattern_rows` order); every
    pair left out has gamma and delta 0.

    The scan meets in the middle. Row n is triplet n. A pattern of length k
    is ceil(k/2) hops walked forward from the row's head over
    `OperatorSet.out_edges`, then floor(k/2) hops walked backward from the
    row's tail over `OperatorSet.in_edges` (`_chain_levels`). Joining the two
    walks on (row, middle entity) counts the pattern's paths from head to
    tail (`_join`), so no walk expands every out-edge of a last level. With
    `exclude`, neither walk takes the row's own edge (h_n, q_n, t_n). The
    scan runs SCAN_CHUNK triplets at a time, in graph order, and each chunk
    lists its counts by pattern, then row, so each (pattern, predicate) sums
    its shares in triplet order. The sums run over the patterns found only,
    so the scan's memory follows its counts, not the number of patterns.
    """
    num_preds = ops.num_predicates
    width = len(active)
    slot = np.full(num_preds, -1, dtype=np.int64)  # position of each active predicate
    slot[active] = np.arange(width)
    hs, qs, ts = kg.triple_array[slot[kg.triple_array[:, 1]] >= 0].T
    pattern_ids, triplet_ids, counts = [], [], []
    for lo in range(0, len(hs), SCAN_CHUNK):
        h, q, t = (a[lo:lo + SCAN_CHUNK] for a in (hs, qs, ts))
        excluded = (h, q + 1, t) if exclude else None
        forward = _chain_levels(ops, h, excluded, (max_len + 1) // 2, True)
        backward = _chain_levels(ops, t, excluded, max_len // 2, False)
        pid, row, cnt = _join(forward, backward, num_preds, len(h), ops.num_entities)
        pattern_ids.append(pid)
        triplet_ids.append(lo + row)
        counts.append(cnt)

    pid, trip, cnt = (np.concatenate(a) for a in (pattern_ids, triplet_ids, counts))
    totals = np.bincount(trip, weights=cnt, minlength=len(hs))
    shares = cnt / totals[trip]  # every stored count is positive
    # each chunk lists a pattern's counts in one run, so the patterns found
    # are the runs' patterns and each count's column is its run's
    run = _run_starts(pid)
    found = np.sort(pid[run], kind="stable")  # merges the chunks' sorted runs
    found = found[_run_starts(found)]
    key = slot[qs][trip]
    key *= len(found)
    key += np.repeat(np.searchsorted(found, pid[run]), np.diff(run, append=len(pid)))
    size = width * len(found)
    hits = np.bincount(key, minlength=size)
    sums = np.bincount(key, weights=shares, minlength=size)
    cells = np.flatnonzero(hits)
    slots, column = np.divmod(cells, len(found))
    nq = np.bincount(slot[qs], minlength=width).astype(np.float64)[slots]
    return slots, found[column], hits[cells] / nq, sums[cells] / nq


def _run_starts(a):
    """Positions where a value of `a` differs from the one before, 0 included."""
    opens = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=opens[1:])
    return np.flatnonzero(opens)


def _chain_levels(ops, start, excluded, depth, forward):
    """Levels 1..depth of the predicate chains walked from start[n], row n.

    Level j holds (row, entity, chain, count), in no set order: one entry
    per chain of length j that links the row's start and the entity, and
    the number of such paths. Chains are numbered in forward hop order both
    ways: walking backward from a tail, a level's chain runs entity -> ...
    -> tail. `excluded` is passed to every hop's edge gather.
    """
    num_preds, num_ents = ops.num_predicates, ops.num_entities
    edges_of = ops.out_edges if forward else ops.in_edges
    row, ent = np.arange(len(start)), start
    chain, cnt = np.zeros(len(start), dtype=np.int64), np.ones(len(start))
    levels = []
    for j in range(depth):
        x = None if excluded is None else tuple(a[row] for a in excluded)
        src, ent, op = edges_of(ent, x, identity=False)
        op = op - 1
        row, cnt = row[src], cnt[src]
        chain = chain[src] * num_preds + op if forward else op * num_preds**j + chain[src]
        if j:  # a one-hop chain is one edge; longer ones can meet again
            size = num_preds ** (j + 1)
            keys, inv = np.unique((row * num_ents + ent) * size + chain,
                                  return_inverse=True)
            cnt = np.bincount(inv, weights=cnt, minlength=len(keys))
            row_ent, chain = np.divmod(keys, size)
            row, ent = np.divmod(row_ent, num_ents)
        levels.append((row, ent, chain, cnt))
    return levels


def _join(forward, backward, num_preds, num_rows, num_ents):
    """(pattern, row, count) of every pattern with a path from head to tail.

    The pattern of length k joins forward level ceil(k/2) to backward level
    floor(k/2): every forward chain that reaches (row, x) meets every
    backward chain that leaves (row, x), and the pattern's count sums their
    products over x. All lengths go through one join, keyed by (k, row, x);
    pattern ids follow `pattern_rows`, and the nonzero counts come out by
    pattern, then row.
    """
    lefts, rights = [], []
    offset = 0  # id of the first pattern of length k
    for k in range(2, len(forward) + len(backward) + 1):
        back = k // 2  # hops walked backward
        f_row, f_ent, f_chain, f_cnt = forward[k - back - 1]
        b_row, b_ent, b_chain, b_cnt = backward[back - 1]
        lefts.append(((k * num_rows + f_row) * num_ents + f_ent,
                      offset + f_chain * num_preds**back, f_row, f_cnt))
        rights.append(((k * num_rows + b_row) * num_ents + b_ent, b_chain, b_cnt))
        offset += num_preds**k
    l_key, l_base, l_row, l_cnt = (np.concatenate(a) for a in zip(*lefts))
    r_key, r_chain, r_cnt = (np.concatenate(a) for a in zip(*rights))
    order = np.argsort(r_key)
    r_key, r_chain, r_cnt = r_key[order], r_chain[order], r_cnt[order]
    lo = np.searchsorted(r_key, l_key)
    f, b = concat_ranges(lo, np.searchsorted(r_key, l_key, side="right") - lo)
    keys, inv = np.unique((l_base[f] + r_chain[b]) * num_rows + l_row[f],
                          return_inverse=True)
    cnt = np.bincount(inv, weights=l_cnt[f] * r_cnt[b], minlength=len(keys))
    pid, row = np.divmod(keys, num_rows)
    return pid, row, cnt


def bifurcation(
    kg: KnowledgeGraph, predicate: int, direction: str = FORWARD, lambda_max: int = 7
) -> BifurcationRecord:
    """Proportion of heads (forward) or tails (backward) with >= lambda q-neighbors."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    if kg.num_edges(predicate) == 0:
        raise EmptySubgraphError(f"empty subgraph for predicate {predicate}")
    ends = kg.per_predicate[predicate][:, 0 if direction == FORWARD else 1]
    # at_least[d]: the ends of degree d or more, from one count of the degrees
    at_least = np.cumsum(np.bincount(np.bincount(ends))[::-1])[::-1].tolist()
    at_least += [0] * (lambda_max + 1 - len(at_least))
    proportions = {
        lam: float(at_least[lam]) / at_least[1] for lam in range(1, lambda_max + 1)
    }
    return BifurcationRecord(predicate, direction, proportions)


def sample_subgraph(
    kg: KnowledgeGraph, seed: int, target_triple_count: int
) -> KnowledgeGraph:
    """Uniform triple sample without replacement; keeps the parent vocabularies."""
    n = len(kg.triple_array)
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
    the budget for large inputs. `budget` None or inf lifts the guard; NaN is
    refused.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2 (patterns have 2 or more hops), "
                         f"not {max_len}")
    if budget is not None and math.isnan(budget):
        # cost > nan is false, so a NaN budget would pass every scan
        raise ValueError("budget must be a number or inf, not nan")
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
    if not active or top_n < 1:
        return []

    slots, rows, gamma, delta = _saturation_scan(
        kg, build_operators(kg), max_len, active, exclude_direct_edge
    )
    # a pattern of gamma 0 has eta 0 as well, so it ranks below every stored
    # one and then by hop tuple, which within one length is row order: the
    # candidates are the stored patterns and the first top_n of each length
    sizes = [kg.num_predicates**k for k in range(2, max_len + 1)]
    firsts = np.concatenate([start + np.arange(min(size, top_n))
                             for start, size in zip(np.cumsum([0, *sizes]), sizes)])
    num_patterns = sum(sizes)
    stored = slots * num_patterns + rows  # sorted
    extra = (np.arange(len(active))[:, None] * num_patterns + firsts).ravel()
    # the first rows that are not stored already; -1 matches no key
    extra = extra[np.append(stored, -1)[np.searchsorted(stored, extra)] != extra]
    slots = np.concatenate([slots, extra // num_patterns])
    rows = np.concatenate([rows, extra % num_patterns])
    gamma, delta = (np.concatenate([a, np.zeros(len(extra))]) for a in (gamma, delta))
    eta = gamma * delta

    # one ranking by slot, then eta: the candidates that reach their slot's
    # top_n-th eta, ties included, are the only ones that can make the cut
    order = np.lexsort((-eta, slots))
    counts = np.bincount(slots, minlength=len(active))
    ends = np.cumsum(counts)
    cut = eta[order[np.minimum(ends - counts + top_n, ends) - 1]]
    kept = np.flatnonzero(eta >= cut[slots])
    hops = pattern_rows(kg.num_predicates, 2, max_len, rows[kept])
    keys = tuple(hops[:, j] for j in reversed(range(max_len)))
    ranked = np.lexsort(keys + (-gamma[kept], -eta[kept], slots[kept]))
    ranked_slots = slots[kept[ranked]]
    rank = np.arange(len(ranked)) - np.searchsorted(ranked_slots, ranked_slots)
    out: list[SaturationRecord] = []
    for j in ranked[rank < top_n].tolist():
        i = kept[j]
        pattern = RulePattern(tuple(p for p in hops[j].tolist() if p >= 0))
        out.append(SaturationRecord(pattern, active[slots[i]], float(gamma[i]),
                                    float(delta[i]), float(eta[i])))
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
