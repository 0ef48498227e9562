"""The benchmark tracer's hooks must name attributes the program still has.

`bench/tracing.py` replaces functions at the names their callers look up. A
refactor that deletes or renames one of them would make `--trace 1` fail at
install time, so this test installs and uninstalls the tracer. It only reads
`bench/`.
"""

from pathlib import Path

import pytest

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
