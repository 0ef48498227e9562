"""The benchmark tracer's hooks must name attributes the program still has.

`bench/tracing.py` replaces functions at the names their callers look up. A
refactor that deletes or renames one of them would make `--trace 1` fail at
install time, and one that moves an argument the tracer reads would make it
fail or count nothing, so these tests install the tracer, run training
through it and uninstall it. They only read `bench/`.
"""

from pathlib import Path

import pytest

from mplr.kg import DatasetSplits, group_queries
from mplr.training import TrainConfig, train

from conftest import random_kg

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_install_hooks_every_traced_name_and_uninstall_restores_it(tracing):
    originals = [
        (owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.TRACED
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original


def test_one_training_batch_is_counted_through_the_hooked_names(tracing):
    kg = random_kg(2, num_entities=8, num_predicates=3, edge_prob=0.3)
    splits = DatasetSplits(kg.triples, [], [], ("train",))
    queries = group_queries(kg.triples)
    config = TrainConfig(max_epochs=1, batch_size=len(queries), rank=1,
                         embed_dim=4, hidden_dim=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        train(kg, splits, config)
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert counts["model.loss_and_gradients_calls"] == 1
    assert counts["model.target_pairs"] == len(kg.triples)
    assert counts["model.predicate_groups"] == len({q.query for q in queries})
    assert counts["training.adam_step_calls"] == 1
