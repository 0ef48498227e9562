"""Independent checks of every benchmark stage.

Each check recomputes a stage's output without the program's own kernels:
counts come from the generator's triple lists, saturation from plain-Python
path enumeration, bifurcation from raw degree counts, gradients from central
finite differences, scores from a dense-matrix scorer over each query's
neighbourhood with the queried edge removed, and rule confidences from the
attention weights. A check returns a list of problems; empty means it passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict

import numpy as np

from mplr import attention_forward, evaluate, score_entities
from mplr.model import loss_and_gradients

TOL = 1e-9


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# set-up

def check_setup(ds, kg, splits, queries, ops):
    """Loader, grouping and operators against the generator's own counts."""
    problems = []
    if kg.num_entities != len(ds.entities):
        problems.append(f"entities {kg.num_entities} != generated {len(ds.entities)}")
    if sorted(kg.predicates) != sorted(ds.per_relation):
        problems.append("predicate vocabulary differs from the generated relations")
    if len(kg.triples) != ds.num_triples:
        problems.append(f"graph triples {len(kg.triples)} != generated {ds.num_triples}")
    for name in ("train", "valid", "test"):
        got, want = len(splits.split(name)), len(ds.splits[name])
        if got != want:
            problems.append(f"{name} split holds {got} triples, generated {want}")
    for p, name in enumerate(kg.predicates):
        nnz = ops.predicate_matrix(p).nnz
        if nnz != ds.per_relation[name]:
            problems.append(f"operator {name} has {nnz} nonzeros, generated {ds.per_relation[name]}")
    if queries is not None:
        keys = Counter((h, r) for h, r, _ in ds.splits["train"])
        if len(queries) != len(keys):
            problems.append(f"{len(queries)} grouped queries, generated {len(keys)} (head, relation) pairs")
        if sum(len(q.targets) for q in queries) != sum(keys.values()):
            problems.append("grouped targets do not add up to the train triples")
    return problems


# ---------------------------------------------------------------------------
# saturation and bifurcation

def _path_patterns(out, ends, h, q, t, max_len):
    """Counter of predicate patterns (length 2..max_len) over paths h -> t.

    `out[v]` lists (predicate, successor) pairs and `ends[v][t]` the
    predicates of edges v -> t. A path may not traverse the labeled edge
    (h, q, t) itself; every other edge may repeat.
    """
    counts = Counter()
    banned = (h, q, t)

    def walk(node, hops):
        if hops:
            for p in ends[node].get(t, ()):
                if (node, p, t) != banned:
                    counts[hops + (p,)] += 1
        if len(hops) + 1 < max_len:
            for p, nxt in out[node]:
                if (node, p, nxt) != banned:
                    walk(nxt, hops + (p,))

    walk(h, ())
    return counts


def check_saturation(kg, records, predicates, max_len, top_n):
    """gamma/delta of the reported records against DFS path enumeration."""
    problems = []
    out = defaultdict(list)
    ends = defaultdict(lambda: defaultdict(list))
    for h, p, t in kg.triples:
        out[h].append((p, t))
        ends[h][t].append(p)
    by_pred = defaultdict(list)
    for r in records:
        by_pred[r.predicate].append(r)
    if sorted(by_pred) != sorted(predicates):
        problems.append(f"records cover predicates {sorted(by_pred)}, expected {sorted(predicates)}")
    for q in predicates:
        per_triplet = [
            _path_patterns(out, ends, h, q, t, max_len) for h, t in kg.per_predicate[q]
        ]
        n_q = len(per_triplet)
        gamma, delta = Counter(), Counter()
        for counts in per_triplet:
            total = sum(counts.values())
            for pat, c in counts.items():
                gamma[pat] += 1
                delta[pat] += c / total
        eta = {pat: (gamma[pat] / n_q) * (delta[pat] / n_q) for pat in gamma}
        recs = by_pred[q]
        if len(recs) != top_n:
            problems.append(f"predicate {q}: {len(recs)} records, expected {top_n}")
        for a, b in zip(recs, recs[1:]):
            if b.eta > a.eta:
                problems.append(f"predicate {q}: records not sorted by eta")
        for r in recs:
            pat = r.pattern.hops
            g, d = gamma[pat] / n_q, delta[pat] / n_q
            if not (_close(r.gamma, g) and _close(r.delta, d)):
                problems.append(
                    f"predicate {q} pattern {pat}: gamma/delta {r.gamma}/{r.delta}, oracle {g}/{d}"
                )
            if not all(0.0 <= v <= 1.0 for v in (r.gamma, r.delta, r.eta)):
                problems.append(f"predicate {q} pattern {pat}: value outside [0, 1]")
            if not _close(r.eta, r.gamma * r.delta, 1e-12):
                problems.append(f"predicate {q} pattern {pat}: eta != gamma * delta")
        best = sorted(eta.values(), reverse=True)[:top_n]
        best += [0.0] * (top_n - len(best))
        if not all(_close(r.eta, e) for r, e in zip(recs, best)):
            problems.append(f"predicate {q}: reported etas are not the top {top_n}")
    return problems


def check_bifurcation(ds, kg, records, lambda_max):
    """Proportions against degree counts taken from the generator's triples."""
    problems = []
    fw, bw = defaultdict(Counter), defaultdict(Counter)
    for split in ds.splits.values():
        for h, r, t in split:
            fw[r][h] += 1
            bw[r][t] += 1
    for rec in records:
        name = kg.predicates[rec.predicate]
        degs = list((fw if rec.direction == "forward" else bw)[name].values())
        for lam in range(1, lambda_max + 1):
            want = sum(d >= lam for d in degs) / len(degs)
            if not _close(rec.proportions.get(lam, -1.0), want):
                problems.append(f"bifurcation {name} {rec.direction} lambda={lam}: "
                                f"{rec.proportions.get(lam)} != {want}")
    return problems


# ---------------------------------------------------------------------------
# training

def check_gradient(ops, params, batch, seed, step=1e-5):
    """Central finite difference of one batch loss along a random direction."""
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
    norm = math.sqrt(sum(float(np.vdot(d, d)) for d in direction.values()))
    loss, grads = loss_and_gradients(ops, params, batch)
    analytic = sum(float(np.vdot(grads[k], d)) for k, d in direction.items()) / norm

    def shifted(sign):
        moved = params.copy()
        for k, d in direction.items():
            moved.tensors[k] += sign * step / norm * d
        return loss_and_gradients(ops, moved, batch)[0]

    numeric = (shifted(1.0) - shifted(-1.0)) / (2 * step)
    problems = []
    if not math.isfinite(loss):
        problems.append(f"batch loss {loss} is not finite")
    # rounding in the two losses, plus a relative allowance for truncation
    tolerance = 1e-12 * abs(loss) / step + 1e-6 * max(1.0, abs(analytic))
    if not abs(numeric - analytic) <= tolerance:
        problems.append(f"directional derivative {analytic} vs finite difference {numeric}")
    return problems


# ---------------------------------------------------------------------------
# evaluation

def _dense_scores(kg, weights, h, q, t, normalize):
    """Scores of every entity for (h, q, ?) with the edge (h, q, t) removed.

    Propagation stays inside the L-hop out-neighbourhood of h, so the dense
    operator is built over that ball only; every other entity scores 0.
    """
    R, L, _ = weights.shape
    ball = {h}
    frontier = {h}
    for _ in range(L):
        frontier = {x for v in frontier for p in range(kg.num_predicates)
                    for x in kg.successors(p, v)}
        ball |= frontier
    nodes = sorted(ball)
    pos = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((kg.num_predicates, n, n))
    for v in nodes:
        for p in range(kg.num_predicates):
            for x in kg.successors(p, v):
                if x in pos and (v, p, x) != (h, q, t):
                    adj[p, pos[v], pos[x]] = 1.0
    local = np.zeros(n)
    for r in range(R):
        u = np.zeros(n)
        u[pos[h]] = 1.0
        for l in range(L):
            w = weights[r, l]
            dense = w[0] * np.eye(n) + np.tensordot(w[1:], adj, axes=1)
            u = u @ dense
        if normalize == "l2":
            norm = math.sqrt(float(u @ u))
        elif normalize == "l1":
            norm = float(np.abs(u).sum())
        else:
            norm = 1.0
        local += u / (norm if norm > 0 else 1.0)
    scores = np.zeros(kg.num_entities)
    scores[nodes] = local
    return scores


def _filtered_rank(scores, answer, head):
    keep = np.ones(len(scores), dtype=bool)
    if head != answer:
        keep[head] = False
    target = scores[answer]
    others = scores[keep]
    above = int(np.sum(others > target))
    ties = int(np.sum(others == target))
    return above + (ties + 1) / 2.0


def check_evaluation(kg, ops, params, test, report, sample_size, seed):
    """Re-rank a seeded sample of test queries with the dense scorer."""
    problems = []
    if not (0.0 < report.mrr <= 1.0):
        problems.append(f"test MRR {report.mrr} outside (0, 1]")
    if report.num_queries != len(test):
        problems.append(f"evaluated {report.num_queries} of {len(test)} test queries")
    rng = np.random.default_rng(seed)
    idx = sorted(rng.choice(len(test), size=min(sample_size, len(test)), replace=False))
    sample = [test[i] for i in idx]
    rr_oracle, rr_program = [], []
    for h, q, t in sample:
        attn = attention_forward(params, q)
        oracle = _dense_scores(kg, attn.weights, h, q, t, params.normalize)
        present = 1.0 if kg.has_triple(h, q, t) else 0.0
        program = score_entities(ops, attn, [h],
                                 excluded_edges=(q, [t], [present]),
                                 normalize=params.normalize)[0]
        if not np.isfinite(program).all():
            problems.append(f"non-finite score for query {(h, q, t)}")
            continue
        if not np.allclose(program, oracle, rtol=1e-9, atol=1e-12):
            problems.append(f"scores for query {(h, q, t)} differ from the dense scorer")
        rr_oracle.append(1.0 / _filtered_rank(oracle, t, h))
        rr_program.append(1.0 / _filtered_rank(program, t, h))
    sampled = evaluate(kg, params, sample, ks=(1,), ops=ops)
    if not _close(sampled.mrr, float(np.mean(rr_program))):
        problems.append(f"sample MRR {sampled.mrr} != re-ranked {np.mean(rr_program)}")
    if abs(float(np.mean(rr_oracle)) - float(np.mean(rr_program))) > 1e-6:
        problems.append(f"sample MRR from dense scores {np.mean(rr_oracle)} != {np.mean(rr_program)}")
    return problems


# ---------------------------------------------------------------------------
# rules

def check_rules(params, query, rules):
    """Confidences from the attention weights, over collapsing hop sequences."""
    problems = []
    weights = attention_forward(params, query).weights
    R, L, _ = weights.shape
    for rule in rules:
        hops = rule.hops.hops
        conf = 0.0
        for slots in itertools.combinations(range(L), len(hops)):
            seq = [0] * L
            for slot, p in zip(slots, hops):
                seq[slot] = p + 1
            for r in range(R):
                conf += math.prod(weights[r, l, seq[l]] for l in range(L))
        if not _close(rule.confidence, conf):
            problems.append(f"rule {hops} for {query}: confidence {rule.confidence} != {conf}")
    for a, b in zip(rules, rules[1:]):
        if b.confidence > a.confidence:
            problems.append(f"rules for {query} not sorted by confidence")
    return problems

