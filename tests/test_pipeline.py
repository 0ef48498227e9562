"""End-to-end runs on the synthetic multi-family kinship data."""

import numpy as np
import pytest

from mplr.indicators import FORWARD, bifurcation, saturation_report
from mplr.model import extract_rules, load_checkpoint, save_checkpoint
from mplr.training import TrainConfig, evaluate, hit_upper_bound, train

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
    kg, splits, params, _ = trained_family
    report = evaluate(kg, params, splits.test, ks=(1, 3))
    # bound computed per predicate from the test split's own multiplicities
    by_pred = {}
    for h, q, t in splits.test:
        by_pred.setdefault(q, []).append((h, t))
    for q, pairs in by_pred.items():
        heads = {}
        for h, _ in pairs:
            heads[h] = heads.get(h, 0) + 1
        max_deg = max(heads.values())
        props = {
            lam: sum(1 for d in heads.values() if d >= lam) / len(heads)
            for lam in range(1, max_deg + 2)
        }
        from mplr.indicators import BifurcationRecord

        rec = BifurcationRecord(q, FORWARD, props)
        for k in (1, 3):
            if max_deg + 1 < k + 1:
                continue
            bound = hit_upper_bound(rec, k)
            measured = report.per_predicate[kg.predicates[q]].hit_at[k]
            # the mean-rank tie rule can only lose hits, never gain
            assert measured <= bound + 1e-9


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
