"""The package API that the benchmark in ``bench/`` calls.

``bench/`` is not collected by the test suite, so a change that drops a name
the traced benchmark reads would otherwise pass here and fail only there.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_every_traced_target_resolves(tracing):
    targets = tracing.targets()
    assert len(targets) == 13
    missing = [attr for _, module, attr, _ in targets if not callable(getattr(module, attr, None))]
    assert missing == []


def test_micro_metrics_run_once_per_entry(tracing, monkeypatch, tmp_path):
    calls = []

    def once(fn, budget=None):
        calls.append(fn())
        return 1e-6

    monkeypatch.setattr(tracing, "per_call_s", once)
    metrics = tracing.micro_metrics(tmp_path)
    assert len(metrics) == len(calls) == 31
    assert all(name.startswith("micro.") for name in metrics)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["micro_k10.csv", "micro_k12.csv",
                                                          "micro_k14.csv"]
