"""End-to-end runs on the synthetic multi-family kinship data."""

import numpy as np
import pytest

from mplr.indicators import FORWARD, BifurcationRecord, bifurcation, saturation_report
from mplr.kg import KnowledgeGraph, group_queries
from mplr.model import (attention_forward, extract_rules, load_checkpoint, save_checkpoint,
                        score_entities)
from mplr.operators import build_operators
from mplr.training import TrainConfig, evaluate, hit_upper_bound, rank_among, train

CONFIG = TrainConfig(
    max_len=2, rank=2, embed_dim=32, hidden_dim=32, batch_size=64,
    learning_rate=0.01, max_epochs=80, patience=20, seed=0,
)


@pytest.fixture(scope="module")
def trained_family(family_data):
    kg, splits, _ = family_data
    params, stats = train(kg, splits, CONFIG)
    return kg, splits, params, stats


def test_training_beats_chance_by_a_wide_margin(trained_family):
    kg, splits, params, stats = trained_family
    assert max(s.valid_mrr for s in stats) > 0.5
    report = evaluate(kg, params, splits.test, ks=(1, 3, 10))
    assert report.mrr > 0.5
    assert report.hit_at[10] > 0.9


def test_extracted_rules_are_well_formed(trained_family):
    kg, _, params, _ = trained_family
    for name in ("wifeOf", "uncleOf", "daughterOf"):
        rules = extract_rules(params, kg.predicate_index[name], 4)
        assert rules
        confs = [r.confidence for r in rules]
        assert confs == sorted(confs, reverse=True)
        assert all(c > 0 for c in confs)
        for r in rules:
            assert 1 <= len(r.hops.hops) <= 2
            assert all(0 <= h < kg.num_predicates for h in r.hops.hops)


def test_measured_hits_respect_bifurcation_bound(trained_family):
    # the bound holds where all of a head's answers are ranked on one score
    # vector: each test (h, q) is scored once, on the graph without the test
    # split's edges, and each of its answers is ranked on that vector
    kg, splits, params, _ = trained_family
    ops = build_operators(KnowledgeGraph(kg.entities, kg.predicates,
                                         splits.train + splits.valid))
    by_pred = {}
    for query in group_queries(splits.test):
        by_pred.setdefault(query.query, []).append(query)
    for q, queries in by_pred.items():
        scores = score_entities(ops, attention_forward(params, q),
                                [x.head for x in queries], normalize=params.normalize)
        ranks = np.array([rank_among(row, t, exclude=x.head)
                          for row, x in zip(scores, queries) for t in x.targets])
        # bound computed from the test split's own multiplicities
        degrees = [len(x.targets) for x in queries]
        props = {lam: sum(d >= lam for d in degrees) / len(degrees)
                 for lam in range(1, max(*degrees, 3) + 2)}
        rec = BifurcationRecord(q, FORWARD, props)
        for k in (1, 3):
            assert np.mean(ranks <= k) <= hit_upper_bound(rec, k) + 1e-9


def test_checkpoint_round_trip_preserves_evaluation(trained_family, tmp_path):
    kg, splits, params, _ = trained_family
    path = tmp_path / "ck.npz"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    a = evaluate(kg, loaded, splits.test, ks=(1, 3))
    b = evaluate(kg, params, splits.test, ks=(1, 3))
    assert a.as_tsv() == b.as_tsv()


def test_checkpoint_with_unread_cell_tensors_loads(trained_family, tmp_path):
    # checkpoints once also held each backward cell's Wh, which no step
    # reads at L = 2; loading reads only the tensors the settings build
    kg, splits, params, _ = trained_family
    assert params.max_len == 2
    path = tmp_path / "ck.npz"
    save_checkpoint(params, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    rng = np.random.default_rng(0)
    dh = params.hidden_dim
    for r in range(params.rank):
        key = f"cell{r}_bwd_Wh"
        assert key not in arrays
        arrays[key] = rng.uniform(-1.0, 1.0, size=(dh, 4 * dh))
    np.savez(path, **arrays)
    loaded = load_checkpoint(path)
    assert loaded.tensors.keys() == params.tensors.keys()
    a = evaluate(kg, loaded, splits.test, ks=(1, 3))
    b = evaluate(kg, params, splits.test, ks=(1, 3))
    assert a.as_tsv() == b.as_tsv()


def test_saturation_agrees_with_kinship_structure(family_data):
    kg, _, _ = family_data
    records = saturation_report(kg, max_len=2, top_n=2)
    q = kg.predicate_index["motherOf"]
    top = [r for r in records if r.predicate == q][0]
    # a mother of someone's child is (nearly always) explained through the
    # spouse: wifeOf & fatherOf is the canonical top pattern
    assert top.pattern.names(kg) == ("wifeOf", "fatherOf")
    assert top.gamma > 0.9


def test_forward_bifurcation_of_parenthood(family_data):
    kg, _, _ = family_data
    rec = bifurcation(kg, kg.predicate_index["sonOf"], FORWARD, lambda_max=3)
    # every son has exactly two parents in the generated trees
    assert rec.proportions[2] == pytest.approx(1.0)
    assert rec.proportions[3] == pytest.approx(0.0)
