"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Criteria that need the real benchmark datasets (Family/Kinship/UMLS) look for
them under $MPLR_DATA_DIR (default ./data) and skip with an explicit reason
when absent; everything else runs self-contained. Run with `pytest -v` to see
one line per criterion, `-s` to also see the PASS details.
"""

import itertools
import time

import numpy as np
import pytest

from mplr.kg import KnowledgeGraph, MultiTargetQuery, group_queries, load_dataset
from mplr.operators import build_operators, RulePattern
from mplr.indicators import (
    BACKWARD,
    FORWARD,
    BifurcationRecord,
    bifurcation,
    saturation_report,
)
from mplr.model import (
    AttentionTensor,
    ModelParams,
    extract_rules,
    logit_loss,
)
from mplr.training import TrainConfig, evaluate, hit_upper_bound, train

from conftest import (
    adjacency_reference,
    build_toy_kg,
    dfs_count_paths,
    naive_bernoulli_loss,
    neural_lp_score,
    oracle_scores,
    random_kg,
    require_benchmark,
    score_query,
    write_family_dataset,
)
from test_gradients import check_all_tensors, four_entity_kg


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def resolve_predicate(kg, printed):
    """Map a predicate name as printed in the tables onto the dataset vocabulary."""
    stem = printed[:-2] if printed.endswith("Of") else printed
    snake = "".join(("_" + c.lower()) if c.isupper() else c for c in printed)
    candidates = [
        printed, printed.lower(), stem, stem.lower(), snake,
        snake + "_of" if not snake.endswith("of") else snake,
        "isa" if printed == "isA" else printed,
        "interacts_with" if printed == "interactWith" else printed,
        "precedes" if printed == "precede" else printed,
    ]
    for name in candidates:
        if name in kg.predicate_index:
            return kg.predicate_index[name]
    raise AssertionError(
        f"predicate {printed!r} not found in dataset vocabulary "
        f"(tried {sorted(set(candidates))}; have {kg.predicates})"
    )


def load_benchmark(name):
    d = require_benchmark(name)
    return load_dataset(d / "train.txt", d / "valid.txt", d / "test.txt")


# (pattern, predicate) -> (gamma, delta, eta); gamma None where the printed
# value is a known typo and excluded from acceptance
FAMILY_SATURATIONS = [
    (("motherOf", "sonOf"), "wifeOf", (0.47, 0.35, 0.17)),
    (("motherOf", "daughterOf"), "wifeOf", (0.36, 0.24, 0.09)),
    (("fatherOf", "sonOf"), "husbandOf", (0.47, 0.35, 0.17)),
    (("fatherOf", "daughterOf"), "husbandOf", (0.36, 0.24, 0.09)),
    (("wifeOf", "fatherOf"), "motherOf", (1.0, 0.34, 0.34)),
    (("motherOf", "brotherOf"), "motherOf", (0.70, 0.27, 0.19)),
    (("motherOf", "sisterOf"), "motherOf", (0.62, 0.22, 0.14)),
    (("sisterOf", "sonOf"), "daughterOf", (0.68, 0.25, 0.17)),
    (("sisterOf", "daughterOf"), "daughterOf", (0.61, 0.20, 0.12)),
    (("daughterOf", "husbandOf"), "daughterOf", (0.46, 0.15, 0.07)),
    (("daughterOf", "wifeOf"), "daughterOf", (0.46, 0.14, 0.06)),
    (("brotherOf", "brotherOf"), "brotherOf", (0.86, 0.14, 0.12)),
    (("nephewOf", "uncleOf"), "brotherOf", (0.77, 0.13, 0.10)),
    (("brotherOf", "sisterOf"), "brotherOf", (0.81, 0.13, 0.10)),
    (("sonOf", "fatherOf"), "brotherOf", (None, 0.08, 0.08)),
    (("nephewOf", "auntOf"), "brotherOf", (0.68, 0.11, 0.08)),
    (("brotherOf", "uncleOf"), "uncleOf", (0.85, 0.23, 0.20)),
    (("uncleOf", "brotherOf"), "uncleOf", (0.82, 0.22, 0.18)),
    (("brotherOf", "auntOf"), "uncleOf", (0.78, 0.22, 0.17)),
    (("uncleOf", "sisterOf"), "uncleOf", (0.74, 0.18, 0.13)),
    (("brotherOf", "fatherOf"), "uncleOf", (0.62, 0.09, 0.06)),
    (("brotherOf", "motherOf"), "uncleOf", (0.38, 0.05, 0.02)),
    (("nephewOf", "brotherOf"), "nephewOf", (0.86, 0.25, 0.21)),
    (("nephewOf", "sisterOf"), "nephewOf", (0.79, 0.22, 0.17)),
    (("brotherOf", "nephewOf"), "nephewOf", (0.79, 0.21, 0.16)),
    (("brotherOf", "nieceOf"), "nephewOf", (0.72, 0.17, 0.12)),
    (("sonOf", "brotherOf"), "nephewOf", (0.64, 0.10, 0.06)),
    (("sonOf", "sisterOf"), "nephewOf", (0.36, 0.05, 0.02)),
]

UMLS_SATURATIONS = [
    (("manifestationOf", "resultOf"), "manifestationOf", (1.0, 0.05, 0.05)),
    (("manifestationOf", "affects"), "manifestationOf", (0.91, 0.04, 0.04)),
    (("manifestationOf", "processOf"), "manifestationOf", (0.91, 0.04, 0.04)),
    (("resultOf", "resultOf"), "manifestationOf", (0.71, 0.05, 0.04)),
    (("resultOf", "affects"), "manifestationOf", (0.75, 0.04, 0.03)),
    (("interactWith", "performs"), "performs", (0.83, 0.31, 0.26)),
    (("isA", "performs"), "performs", (0.83, 0.13, 0.11)),
    (("performs", "isA"), "performs", (0.33, 0.16, 0.05)),
    (("interactWith", "ingredientOf"), "ingredientOf", (0.96, 0.61, 0.52)),
    (("isA", "ingredientOf"), "ingredientOf", (0.86, 0.32, 0.31)),
    (("interactWith", "exhibits"), "exhibits", (0.87, 0.29, 0.25)),
    (("exhibits", "affects"), "exhibits", (1.0, 0.21, 0.21)),
    (("isA", "exhibits"), "exhibits", (0.87, 0.15, 0.13)),
    (("performs", "affects"), "exhibits", (0.40, 0.07, 0.03)),
]

# forward bifurcation percentages, lambda = 2..7
FAMILY_BIFURCATION = {
    "husbandOf": (14, 2, 1, 0, 0, 0),
    "wifeOf": (8, 1, 0, 0, 0, 0),
    "sonOf": (85, 0, 0, 0, 0, 0),
    "daughterOf": (84, 0, 0, 0, 0, 0),
    "brotherOf": (77, 57, 42, 30, 23, 18),
    "uncleOf": (84, 74, 64, 52, 44, 39),
}

# test-split forward bifurcation percentages, lambda = 2..4
FAMILY_TEST_BIFURCATION = {
    "husbandOf": (2, 0, 0),
    "wifeOf": (1, 0, 0),
    "sonOf": (3, 0, 0),
    "daughterOf": (5, 0, 0),
    "brotherOf": (23, 4, 1),
    "uncleOf": (40, 11, 2),
}

# top mined-rule blocks; criterion 11 needs a 2-rule intersection per block
FAMILY_TOP_RULES = {
    "wifeOf": {("motherOf", "daughterOf"), ("motherOf", "sonOf")},
    "motherOf": {
        ("wifeOf", "fatherOf"), ("motherOf", "sisterOf"),
        ("wifeOf", "wifeOf"), ("motherOf", "brotherOf"),
    },
    "uncleOf": {
        ("brotherOf", "fatherOf"), ("uncleOf", "brotherOf"),
        ("brotherOf", "motherOf"), ("motherOf", "brotherOf"),
        ("sisterOf", "brotherOf"), ("uncleOf", "sisterOf"),
    },
}

PAPER_TRAIN_CONFIG = dict(
    max_len=2, rank=3, embed_dim=128, hidden_dim=128,
    batch_size=128, learning_rate=0.001, max_epochs=10, patience=3,
)

_trained_cache = {}


def train_benchmark_best(name, seeds=(0, 1, 2)):
    """Best-of-seeds run with the published hyperparameters; cached per session."""
    if name in _trained_cache:
        return _trained_cache[name]
    kg, splits, _ = load_benchmark(name)
    best = None
    for seed in seeds:
        start = time.perf_counter()
        params, _ = train(kg, splits, TrainConfig(seed=seed, **PAPER_TRAIN_CONFIG))
        elapsed = time.perf_counter() - start
        assert elapsed < 1800, f"{name} seed {seed} run took {elapsed:.0f}s (> 30 min)"
        rep = evaluate(kg, params, splits.test, ks=(1, 3, 10))
        if best is None or rep.mrr > best[2].mrr:
            best = (kg, params, rep)
    _trained_cache[name] = best
    return best


class TestCriterion01TensorlogWorkedExample:
    def test_product_matrix_and_path_feature(self):
        start = time.perf_counter()
        kg = build_toy_kg()
        ops = build_operators(kg)
        e, p = kg.entity_index, kg.predicate_index
        prod = (
            ops.predicate_matrix(p["sisterOf"]) @ ops.predicate_matrix(p["daughterOf"])
        ).toarray()
        expected = np.zeros((6, 6))
        for h in ("z1", "z2", "z4"):
            expected[e[h], e["x1"]] = 1.0
            expected[e[h], e["x2"]] = 1.0
        assert np.array_equal(prod, expected)
        s = np.zeros(6)
        s[e["z1"]] = 1.0
        s = s @ prod
        assert s[e["x1"]] == 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(1, f"product matrix exact, s.v_x1 = 1 ({elapsed:.3f}s)")


class TestCriterion02ToyBifurcation:
    def test_worked_values(self):
        start = time.perf_counter()
        kg = build_toy_kg()
        q = kg.predicate_index["daughterOf"]
        bw = bifurcation(kg, q, BACKWARD, lambda_max=2).proportions[2]
        fw = bifurcation(kg, q, FORWARD, lambda_max=2).proportions[2]
        assert bw == 0.5
        assert fw == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(2, f"bw-bifur(2) = 0.5, fw-bifur(2) = 0.0 ({elapsed:.3f}s)")


def saturation_rows(kg, table, exclude):
    preds = sorted({resolve_predicate(kg, row[1]) for row in table})
    records = saturation_report(
        kg, max_len=2, top_n=10**9, exclude_direct_edge=exclude,
        budget=None, predicates=preds,
    )
    index = {(r.pattern.hops, r.predicate): r for r in records}
    rows = []
    for pattern_names, pred_name, values in table:
        hops = tuple(resolve_predicate(kg, n) for n in pattern_names)
        rows.append((index[(hops, resolve_predicate(kg, pred_name))], values))
    return rows


def saturation_mismatches(rows, tol=0.02):
    bad = []
    for rec, (gamma, delta, eta) in rows:
        for got, want, tag in (
            (rec.gamma, gamma, "gamma"),
            (rec.delta, delta, "delta"),
            (rec.eta, eta, "eta"),
        ):
            if want is None:
                continue
            if abs(got - want) > tol + 1e-12:
                bad.append((rec.pattern.hops, rec.predicate, tag, got, want))
    return bad


class TestCriterion03FamilySaturations:
    def test_table_rows_within_tolerance(self):
        kg, _, _ = load_benchmark("family")
        start = time.perf_counter()
        outcomes = {}
        for exclude in (True, False):
            rows = saturation_rows(kg, FAMILY_SATURATIONS, exclude)
            outcomes[exclude] = saturation_mismatches(rows)
            if not outcomes[exclude]:
                break
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"saturation scan took {elapsed:.0f}s (> 10 min)"
        ok = [conv for conv, bad in outcomes.items() if not bad]
        assert ok, f"no convention matches all 28 rows; mismatches: {outcomes}"
        report(3, f"28 rows within ±0.02 (exclude={ok[0]}, {elapsed:.1f}s)")


class TestCriterion04FamilyBifurcation:
    def test_full_graph_and_test_split(self):
        kg, splits, _ = load_benchmark("family")
        start = time.perf_counter()
        for name, expected in FAMILY_BIFURCATION.items():
            q = resolve_predicate(kg, name)
            rec = bifurcation(kg, q, FORWARD, lambda_max=7)
            for lam, want in zip(range(2, 8), expected):
                got = 100.0 * rec.proportions[lam]
                assert abs(got - want) <= 1.0 + 1e-9, (name, lam, got, want)
        test_kg = KnowledgeGraph(kg.entities, kg.predicates, splits.test)
        for name, expected in FAMILY_TEST_BIFURCATION.items():
            q = resolve_predicate(kg, name)
            rec = bifurcation(test_kg, q, FORWARD, lambda_max=4)
            for lam, want in zip(range(2, 5), expected):
                got = 100.0 * rec.proportions[lam]
                assert abs(got - want) <= 1.0 + 1e-9, ("test", name, lam, got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        report(4, f"6 predicates x (full graph + test split) within ±1pt ({elapsed:.1f}s)")


class TestCriterion05UmlsSaturations:
    def test_table_rows_within_tolerance(self):
        kg, _, _ = load_benchmark("umls")
        start = time.perf_counter()
        outcomes = {}
        for exclude in (True, False):
            rows = saturation_rows(kg, UMLS_SATURATIONS, exclude)
            outcomes[exclude] = saturation_mismatches(rows)
            if not outcomes[exclude]:
                break
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"saturation scan took {elapsed:.0f}s (> 5 min)"
        ok = [conv for conv, bad in outcomes.items() if not bad]
        assert ok, f"no convention matches all rows; mismatches: {outcomes}"
        report(5, f"{len(UMLS_SATURATIONS)} rows within ±0.02 (exclude={ok[0]}, {elapsed:.1f}s)")


class TestCriterion06HitUpperBound:
    def test_published_argument(self):
        rec = BifurcationRecord(0, FORWARD, {1: 1.0, 2: 0.84, 3: 0.0})
        assert hit_upper_bound(rec, 1) == pytest.approx(0.58, abs=1e-12)
        rec2 = BifurcationRecord(0, FORWARD, {1: 1.0, 2: 1.0, 3: 0.0})
        assert hit_upper_bound(rec2, 1) == pytest.approx(0.50, abs=1e-12)
        report(6, "0.16/0.84 -> 0.58 and p2 = 1 -> 0.50, exact")


class TestCriterion07OracleEquivalence:
    def test_fifty_random_graphs(self):
        start = time.perf_counter()
        checked_scores = checked_deletions = 0
        for seed in range(50):
            rng = np.random.default_rng(10_000 + seed)
            kg = random_kg(
                seed,
                num_entities=int(rng.integers(4, 9)),
                num_predicates=int(rng.integers(2, 5)),
                edge_prob=float(rng.uniform(0.12, 0.3)),
            )
            ops = build_operators(kg)
            weights = rng.dirichlet(np.ones(kg.num_predicates + 1), size=(1, 2))
            attn = AttentionTensor(weights)
            for query in group_queries(kg.triples)[:5]:
                res = score_query(ops, attn, query)
                np.testing.assert_allclose(
                    res.prediction, oracle_scores(kg, weights, query), atol=1e-9
                )
                checked_scores += 1
                for t in query.targets:
                    if max_direct_edge_uses(kg, query.head, query.query, t) > 1:
                        continue
                    pruned = KnowledgeGraph(
                        kg.entities,
                        kg.predicates,
                        [x for x in kg.triples if x != (query.head, query.query, t)],
                    )
                    deleted = neural_lp_score(
                        build_operators(pruned), attn, query.head, t
                    )
                    assert abs(res.prediction[t] - deleted) < 1e-9
                    checked_deletions += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        report(
            7,
            f"{checked_scores} queries equal the path oracle; "
            f"{checked_deletions} subtract==delete checks ({elapsed:.1f}s)",
        )


def max_direct_edge_uses(kg, head, query, target, max_len=2):
    """Most times any <= max_len hop path can traverse the edge (head, q, target)."""
    best = 0
    out, _ = adjacency_reference(kg)
    for length in range(1, max_len + 1):
        for hops in itertools.product(range(kg.num_predicates), repeat=length):

            def walk(node, i, uses):
                nonlocal best
                if i == length:
                    best = max(best, uses)
                    return
                p = hops[i]
                for nxt in out[p].get(node, []):
                    walk(
                        nxt,
                        i + 1,
                        uses + (1 if (node, p, nxt) == (head, query, target) else 0),
                    )

            walk(head, 0, 0)
    return best


class TestCriterion08GradientCheck:
    def test_every_parameter_class(self):
        start = time.perf_counter()
        kg = four_entity_kg()
        ops = build_operators(kg)
        params = ModelParams(
            kg.num_predicates, rank=2, max_len=2, embed_dim=8, hidden_dim=6,
            seed=0, normalize="l2",
        )
        queries = [MultiTargetQuery(0, 2, (2, 3)), MultiTargetQuery(2, 2, (0,))]
        worst = check_all_tensors(params, ops, queries, coords_per_tensor=8)
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        report(8, f"worst relative error {worst:.2e} < 1e-4 ({elapsed:.1f}s)")


class TestCriterion09LossStability:
    def test_naive_equivalence_and_extreme_finiteness(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.uniform(-20, 20, size=50)
            v = (rng.random(50) < 0.3).astype(float)
            assert logit_loss(s, v) == pytest.approx(
                naive_bernoulli_loss(s, v), abs=1e-9
            )
        huge = np.array([1e4, -1e4, 1e4])
        v = np.array([1.0, 0.0, 0.0])
        val = logit_loss(huge, v)
        assert np.isfinite(val)
        report(9, "stabilized == naive within 1e-9 on |s|<=20; finite at |s|=1e4")


class TestCriterion10TrainingResults:
    def test_family(self):
        _, _, rep = train_benchmark_best("family")
        assert rep.mrr >= 0.55, f"family MRR {rep.mrr:.3f} < 0.55"
        assert rep.hit_at[3] >= 0.60, f"family Hit@3 {rep.hit_at[3]:.3f} < 0.60"
        report(10, f"family best MRR {rep.mrr:.3f}, Hit@3 {rep.hit_at[3]:.3f}")

    def test_kinship(self):
        _, _, rep = train_benchmark_best("kinship")
        assert rep.mrr >= 0.26, f"kinship MRR {rep.mrr:.3f} < 0.26"
        report(10, f"kinship best MRR {rep.mrr:.3f}")

    def test_umls(self):
        _, _, rep = train_benchmark_best("umls")
        assert rep.mrr >= 0.30, f"umls MRR {rep.mrr:.3f} < 0.30"
        report(10, f"umls best MRR {rep.mrr:.3f}")


class TestCriterion11RuleQuality:
    def test_family_rule_blocks(self):
        kg, params, _ = train_benchmark_best("family")
        for pred_name, block in FAMILY_TOP_RULES.items():
            q = resolve_predicate(kg, pred_name)
            top = extract_rules(params, q, 4)
            got = {
                tuple(r.hops.names(kg)): None for r in top
            }.keys()
            block_resolved = {
                tuple(kg.predicates[resolve_predicate(kg, n)] for n in rule)
                for rule in block
            }
            overlap = set(got) & block_resolved
            assert len(overlap) >= 2, (
                f"{pred_name}: top-4 {list(got)} overlaps published block in "
                f"{len(overlap)} rules (< 2)"
            )
        report(11, "wifeOf/motherOf/uncleOf top-4 each intersect the published block >= 2")


class TestCriterion12Determinism:
    def test_identical_runs_reproduce_reports_and_rules(self, tmp_path):
        root = write_family_dataset(tmp_path / "families", num_clans=2, seed=5)
        kg, splits, _ = load_dataset(
            root / "train.txt", root / "valid.txt", root / "test.txt"
        )
        outputs = []
        for _ in range(2):
            cfg = TrainConfig(
                max_len=2, rank=2, embed_dim=16, hidden_dim=16, batch_size=64,
                learning_rate=0.01, max_epochs=5, patience=5, seed=11,
            )
            params, _ = train(kg, splits, cfg)
            rep = evaluate(kg, params, splits.test, ks=(1, 3, 10))
            rules = []
            for q in range(kg.num_predicates):
                rules.extend(extract_rules(params, q, 3))
            rule_rows = [(r.predicate, r.hops.hops, r.confidence) for r in rules]
            outputs.append((rep.as_tsv(), rule_rows))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        report(12, "two identical runs: byte-identical eval report, identical rules")
