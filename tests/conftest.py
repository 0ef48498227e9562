"""Shared fixtures: the six-entity worked example, random graphs, brute-force
oracles, and a synthetic multi-family kinship dataset generator."""

import itertools
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from mplr.indicators import EmptySubgraphError, _chain_index, _saturation_scan
from mplr.kg import KnowledgeGraph, load_dataset
from mplr.model import (
    ExtractedRule,
    _BatchForward,
    logit_loss,
    loss_and_gradients,
    score_entities,
)
from mplr.operators import OperatorSet, RulePattern

# ---------------------------------------------------------------------------
# six-entity toy graph reproducing the worked adjacency/product matrices

TOY_ENTITIES = ["x1", "x2", "z1", "z2", "z3", "z4"]
TOY_PREDICATES = ["daughterOf", "sisterOf", "auntOf"]
TOY_TRIPLES = [
    ("z1", "daughterOf", "x1"),
    ("z2", "daughterOf", "x1"),
    ("z4", "daughterOf", "x2"),
    ("z1", "sisterOf", "z2"),
    ("z1", "sisterOf", "z4"),
    ("z2", "sisterOf", "z1"),
    ("z2", "sisterOf", "z4"),
    ("z4", "sisterOf", "z1"),
    ("z4", "sisterOf", "z4"),
    ("x2", "auntOf", "z2"),
    ("x2", "auntOf", "z3"),
]

TOY_LINES = [f"{h}\t{p}\t{t}" for h, p, t in TOY_TRIPLES]


def build_toy_kg():
    ents = {e: i for i, e in enumerate(TOY_ENTITIES)}
    preds = {p: i for i, p in enumerate(TOY_PREDICATES)}
    triples = [(ents[h], preds[p], ents[t]) for h, p, t in TOY_TRIPLES]
    return KnowledgeGraph(TOY_ENTITIES, TOY_PREDICATES, triples)


@pytest.fixture
def toy_kg():
    return build_toy_kg()


@pytest.fixture
def toy_dataset_dir(tmp_path):
    """Toy triples as an on-disk dataset (all triples in train, empty valid/test)."""
    d = tmp_path / "toy"
    d.mkdir()
    (d / "train.txt").write_text("".join(line + "\n" for line in TOY_LINES))
    (d / "valid.txt").write_text("")
    (d / "test.txt").write_text("")
    return d


# ---------------------------------------------------------------------------
# random graphs

def random_kg(seed, num_entities=8, num_predicates=4, edge_prob=0.18):
    """Seeded random multigraph over anonymous entities, no duplicate triples."""
    rng = np.random.default_rng(seed)
    triples = []
    for p in range(num_predicates):
        mask = rng.random((num_entities, num_entities)) < edge_prob
        for h, t in zip(*np.nonzero(mask)):
            triples.append((int(h), p, int(t)))
    if not triples:
        triples = [(0, 0, min(1, num_entities - 1))]
    entities = [f"e{i}" for i in range(num_entities)]
    predicates = [f"p{i}" for i in range(num_predicates)]
    return KnowledgeGraph(entities, predicates, triples)


# ---------------------------------------------------------------------------
# brute-force oracles (kept independent of the library's propagation code)

def dfs_count_paths(kg, head, hops, tail, excluded_edge=None):
    """Exhaustive path enumeration; hops are predicate indices, -1 = stay put."""

    def rec(node, i):
        if i == len(hops):
            return 1 if node == tail else 0
        p = hops[i]
        if p == -1:
            return rec(node, i + 1)
        total = 0
        for nxt in kg.successors(p, node):
            if excluded_edge is not None and (node, p, nxt) == tuple(excluded_edge):
                continue
            total += rec(nxt, i + 1)
        return total

    return rec(head, 0)


def oracle_scores(kg, weights, query):
    """Exhaustive weighted-path score with direct-edge multiplicity accounting.

    For every operator sequence (identity = stay) and every concrete entity
    path, the path's weight is the product of per-hop attention entries; a
    path ending at a target t is additionally weighted by (1 - u) where u is
    the number of times it traversed the direct edge (head, q, t).
    """
    R, L, K = weights.shape
    E = kg.num_entities
    targets = set(query.targets)
    s = np.zeros(E)
    for r in range(R):
        for seq in itertools.product(range(K), repeat=L):
            w = 1.0
            for l in range(L):
                w *= weights[r, l, seq[l]]
            if w == 0.0:
                continue

            def walk(node, i, direct_uses):
                if i == L:
                    end = node
                    if end in targets:
                        s[end] += w * (1 - direct_uses.get(end, 0))
                    else:
                        s[end] += w
                    return
                k = seq[i]
                if k == 0:
                    walk(node, i + 1, direct_uses)
                    return
                p = k - 1
                for nxt in kg.successors(p, node):
                    du = direct_uses
                    if p == query.query and node == query.head:
                        du = dict(direct_uses)
                        du[nxt] = du.get(nxt, 0) + 1
                    walk(nxt, i + 1, du)

            walk(query.head, 0, {})
    return s


def recurrence_scores(kg, weights, query, epsilon_mode="corrected", normalize=None):
    """Scores from the per-target correction recurrence, one dense row per target.

    Per rank, the state u_l = u_{l-1} W_l with W_l = sum_k a_{l,k} M_k (M_0 is
    the identity) and, for every target t, a correction row
    eps_l = eps_{l-1} W_l + a_{l,q} * base_l * e_t. The injected base is
    u_{l-1}[head] in the corrected mode; the printed (literal) recurrence uses
    1 at the first hop and u_{l-1}[t] after it. Target t loses eps_L[t], and
    each rank's row is divided by the l1/l2 norm of its uncorrected u_L (left
    alone when that norm is 0). Returns (prediction, per-target corrections).
    Dense matrices only, independent of the library's operators.
    """
    R, L, K = weights.shape
    E = kg.num_entities
    mats = [np.eye(E)] + [np.zeros((E, E)) for _ in range(kg.num_predicates)]
    for h, p, t in kg.triples:
        mats[p + 1][h, t] = 1.0
    targets = np.asarray(query.targets)
    rows = np.arange(len(targets))
    q_op = query.query + 1
    s = np.zeros(E)
    corr_total = np.zeros(len(targets))
    for r in range(R):
        u = np.zeros(E)
        u[query.head] = 1.0
        eps = np.zeros((len(targets), E))
        for l in range(1, L + 1):
            w_l = sum(weights[r, l - 1, k] * mats[k] for k in range(K))
            if epsilon_mode == "corrected":
                base = np.full(len(targets), u[query.head])
            elif l == 1:
                base = np.ones(len(targets))
            else:
                base = u[targets]
            eps = eps @ w_l
            eps[rows, targets] += weights[r, l - 1, q_op] * base
            u = u @ w_l
        corr = eps[rows, targets]
        if normalize == "l2":
            n = np.sqrt(np.dot(u, u))
        elif normalize == "l1":
            n = np.abs(u).sum()
        else:
            n = 1.0
        d = n if n > 0 else 1.0
        pred = u.copy()
        pred[targets] -= corr
        s += pred / d
        corr_total += corr / d
    return s, dict(zip(query.targets, corr_total))


def operator_grads_reference(ops, x, g):
    """<x M_k, g> for every operator k (identity first): one sparse product
    per operator, over the transposed CSR matrices."""
    K = len(ops)
    out = np.empty(K)
    out[0] = np.vdot(x, g)
    xt = np.ascontiguousarray(x.T)
    gt = np.ascontiguousarray(g.T)
    for k in range(1, K):
        out[k] = np.vdot(ops.matrix(k).T.tocsr() @ xt, gt)
    return out


def neural_lp_score(ops, attn, head, tail, *, normalize=None):
    """Chain score of one (head, tail) pair with no direct-edge correction."""
    return float(score_entities(ops, attn, [head], normalize=normalize)[0, tail])


def backward(ops, params, query):
    """Loss and parameter gradients of one query, run as a batch of one."""
    return loss_and_gradients(ops, params, [query])


@dataclass(frozen=True)
class Operator:
    """One adjacency operator; `predicate` is the operator-axis index (0 = identity)."""

    predicate: int
    matrix: object


def operators_of(ops):
    """Every operator of an OperatorSet, identity first."""
    return [Operator(k, ops.matrix(k)) for k in range(len(ops))]


def propagate(state, op):
    """Left vector-matrix product state^T M; entry j = sum_i state[i] * M[i, j]."""
    return np.asarray(state, dtype=np.float64) @ op.matrix


def enumerate_patterns(num_predicates, min_len, max_len):
    """All predicate tuples of length min_len..max_len, shorter first, lexicographic."""
    if not 1 <= min_len <= max_len:
        raise ValueError(f"invalid length range [{min_len}, {max_len}]")
    for length in range(min_len, max_len + 1):
        for hops in itertools.product(range(num_predicates), repeat=length):
            yield RulePattern(hops)


@dataclass
class ScoreResult:
    """Joint prediction for one multi-target query.

    `prediction[t] = uncorrected[t] - per_target_corrections[t]` for every
    target; non-target coordinates carry the plain propagated score.
    """

    prediction: np.ndarray
    per_target_corrections: dict
    loss: float
    uncorrected: np.ndarray


def score_query(ops, attn, query, *, epsilon_mode="corrected", normalize=None):
    """Score every entity for one (head, predicate, targets) query.

    Runs the reasoner's forward pass on a batch of one query and scatters its
    support values to dense rows. The per-target corrections are the closed
    form sum_l a_q(l) * base_l * D_l(t) the forward pass keeps, rank by rank.
    """
    fwd = _BatchForward(
        ops,
        attn.weights[None],
        [query.query],
        [0],
        [query.head],
        [list(query.targets)],
        epsilon_mode=epsilon_mode,
        normalize=normalize,
    )
    ent = fwd.keys % ops.num_entities
    s = np.zeros(ops.num_entities)
    s[ent] = fwd.s
    uncorrected = np.zeros(ops.num_entities)
    corr_total = np.zeros(len(query.targets))
    for U, corr, d in zip(fwd.U, fwd.corr, fwd.divisors):
        uncorrected[ent] += U[-1] / d[0]
        corr_total += corr / d[0]
    v = np.zeros(ops.num_entities)
    v[list(query.targets)] = 1.0
    return ScoreResult(
        prediction=s,
        per_target_corrections={t: float(c) for t, c in zip(query.targets, corr_total)},
        loss=logit_loss(s, v),
        uncorrected=uncorrected,
    )


def rules_reference(attn, query, top_n=10):
    """Rule extraction by walking all (|P|+1)^L hop sequences.

    Each sequence gets confidence sum_r prod_l a[r][l][hop]; sequences
    collapse by dropping identity hops, and the confidences of sequences
    collapsing to the same rule add up in sequence order. The empty
    (all-identity) rule is dropped.
    """
    weights = attn.weights
    R, L, K = weights.shape
    conf = np.zeros(K**L)
    for r in range(R):
        v = np.ones(1)
        for l in range(L):
            v = (v[:, None] * weights[r, l][None, :]).ravel()
        conf += v
    merged = {}
    for idx, seq in enumerate(itertools.product(range(K), repeat=L)):
        hops = tuple(k - 1 for k in seq if k != 0)
        if not hops or conf[idx] == 0.0:
            continue
        merged[hops] = merged.get(hops, 0.0) + conf[idx]
    ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        ExtractedRule(RulePattern(hops), float(c), query)
        for hops, c in ranked[:top_n]
    ]


def pattern_saturation(kg, pattern, predicate, max_len, exclude):
    """(gamma, delta) of one pattern, read off the scan of `predicate`."""
    if len(pattern) > max_len:
        raise ValueError(f"pattern length {len(pattern)} exceeds max_len {max_len}")
    if len(pattern) < 2 or not all(0 <= p < kg.num_predicates for p in pattern.hops):
        raise ValueError(f"not a saturation pattern: {pattern.hops}")
    if kg.num_edges(predicate) == 0:
        raise EmptySubgraphError(f"empty subgraph for predicate {predicate}")
    _, gamma, delta = _saturation_scan(kg, OperatorSet(kg), max_len, [predicate], exclude)
    row = sum(kg.num_predicates**m for m in range(2, len(pattern))) + _chain_index(
        pattern.hops, kg.num_predicates
    )
    return float(gamma[row, 0]), float(delta[row, 0])


def macro_saturation(kg, pattern, predicate, *, exclude_direct_edge=True):
    """Fraction of (h, predicate, t) triplets connected by at least one pattern path."""
    return pattern_saturation(
        kg, pattern, predicate, len(pattern), exclude_direct_edge
    )[0]


def micro_saturation(kg, pattern, predicate, max_len, *, exclude_direct_edge=True):
    """Mean per-triplet share of pattern paths among all paths of length <= max_len.

    Triplets with no connecting path at all contribute share 0 (the average
    still divides by the full subgraph edge count).
    """
    return pattern_saturation(kg, pattern, predicate, max_len, exclude_direct_edge)[1]


def comprehensive_saturation(gamma, delta):
    if not (0.0 <= gamma <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValueError("saturations must lie in [0, 1]")
    return gamma * delta


def naive_bernoulli_loss(s, v):
    """Direct -sum v log sigma(s) + (1-v) log sigma(-s); fine for |s| <= 20."""
    s = np.asarray(s, dtype=np.float64)

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    return float(-np.sum(v * np.log(sig(s)) + (1 - v) * np.log(sig(-s))))


# ---------------------------------------------------------------------------
# synthetic multi-family kinship data

KIN_PREDICATES = [
    "brotherOf", "sisterOf", "fatherOf", "motherOf", "husbandOf", "wifeOf",
    "sonOf", "daughterOf", "uncleOf", "auntOf", "nephewOf", "nieceOf",
]


def make_family_triples(num_clans=3, seed=0):
    """Two-generation family trees with the twelve kinship relations closed
    over each tree (blood uncles/aunts only)."""
    rng = random.Random(seed)
    triples = set()

    def marry(m, f):
        triples.add((m, "husbandOf", f))
        triples.add((f, "wifeOf", m))

    def child_of(kid, gender, father, mother):
        triples.add((father, "fatherOf", kid))
        triples.add((mother, "motherOf", kid))
        rel = "sonOf" if gender == "m" else "daughterOf"
        triples.add((kid, rel, father))
        triples.add((kid, rel, mother))

    def siblings(kids):
        for (a, ga), (b, _) in itertools.permutations(kids, 2):
            triples.add((a, "brotherOf" if ga == "m" else "sisterOf", b))

    for c in range(num_clans):
        fresh = itertools.count()

        def person(gender):
            return f"c{c}_{gender}{next(fresh)}"

        gpa, gma = person("m"), person("f")
        marry(gpa, gma)
        parents = []
        for _ in range(rng.randint(2, 3)):
            g = rng.choice("mf")
            kid = person(g)
            child_of(kid, g, gpa, gma)
            parents.append((kid, g))
        siblings(parents)
        for kid, g in parents:
            spouse = person("f" if g == "m" else "m")
            if g == "m":
                marry(kid, spouse)
                father, mother = kid, spouse
            else:
                marry(spouse, kid)
                father, mother = spouse, kid
            grandkids = []
            for _ in range(rng.randint(1, 3)):
                gg = rng.choice("mf")
                gk = person(gg)
                child_of(gk, gg, father, mother)
                grandkids.append((gk, gg))
            siblings(grandkids)
            for u, ug in parents:
                if u == kid:
                    continue
                for gk, gg in grandkids:
                    triples.add((u, "uncleOf" if ug == "m" else "auntOf", gk))
                    triples.add((gk, "nephewOf" if gg == "m" else "nieceOf", u))
    return sorted(triples)


def write_family_dataset(root, num_clans=3, seed=0, fractions=(0.84, 0.08, 0.08),
                         groups=1):
    """Kinship splits on disk; with groups > 1 each relation r becomes the
    copies r_g0 .. r_g{groups-1}, clan c using copy c % groups."""
    triples = make_family_triples(num_clans, seed)
    if groups > 1:
        triples = [
            (h, f"{r}_g{int(h.split('_')[0][1:]) % groups}", t) for h, r, t in triples
        ]
    rng = random.Random(seed + 1)
    rng.shuffle(triples)
    n = len(triples)
    n_train = int(fractions[0] * n)
    n_valid = int(fractions[1] * n)
    parts = {
        "train.txt": triples[:n_train],
        "valid.txt": triples[n_train : n_train + n_valid],
        "test.txt": triples[n_train + n_valid :],
    }
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, rows in parts.items():
        (root / name).write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows)
        )
    return root


@pytest.fixture(scope="session")
def family_dataset_dir(tmp_path_factory):
    return write_family_dataset(tmp_path_factory.mktemp("kin") / "families")


@pytest.fixture(scope="session")
def family_data(family_dataset_dir):
    d = family_dataset_dir
    return load_dataset(d / "train.txt", d / "valid.txt", d / "test.txt")


# ---------------------------------------------------------------------------
# benchmark dataset discovery (used by the acceptance suite)

def benchmark_dir(name):
    """Path to a real benchmark dataset if present, else None.

    Looks under $MPLR_DATA_DIR (default ./data) for <name>/{train,valid,test}.txt.
    """
    root = Path(os.environ.get("MPLR_DATA_DIR", "data"))
    d = root / name
    if all((d / f).is_file() for f in ("train.txt", "valid.txt", "test.txt")):
        return d
    return None


def require_benchmark(name):
    d = benchmark_dir(name)
    if d is None:
        pytest.skip(
            f"benchmark dataset {name!r} not available: place train.txt/valid.txt/"
            f"test.txt under $MPLR_DATA_DIR/{name} (default ./data/{name}); "
            "this sandbox has no network access to fetch it"
        )
    return d
