"""The program surface the benchmark in ``bench/`` calls and patches by name,
so that renaming any of it fails here rather than in a traced benchmark run."""

import inspect
from pathlib import Path

import pytest

from quest import engine

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_every_traced_target_is_callable(tracing):
    assert tracing.TARGETS
    missing = [
        f"{owner.__name__}.{attribute}"
        for owner, attribute, *_ in tracing.TARGETS
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []


def test_self_consistency_takes_the_workload_arguments():
    # bench/workloads.py calls self_consistency(session, query, n, temperature)
    inspect.signature(engine.self_consistency).bind("session", "query", 8, 0.8)
