"""The package API that the benchmark in ``bench/`` calls.

``bench/`` is not collected by the test suite, so a change that drops a name
the traced benchmark reads would otherwise pass here and fail only there.
"""

from pathlib import Path

import pytest
from test_write_csv import oracle_csv

import roughwave as rw
from roughwave.cli import run

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
    # the micro table is plain row tuples: the row path of write_csv, against the oracle
    grid = rw.make_grid(0.0, 1.0, 1 << 10)
    rows = [("fbm", 0.5, 0, 10, float(x), float(u))
            for x, u in zip(grid.cell_midpoints(), rw.fbm_initial_field(0.5, grid, 2024).values)]
    assert (tmp_path / "micro_k10.csv").read_bytes() == oracle_csv(
        ("study", "hurst", "sample", "k", "x", "u"), rows)


def test_csv_counters_read_a_cell_table(tracing, tmp_path):
    cfg = tmp_path / "fbm.cfg"
    cfg.write_text("equation = burgers\nnumflux = godunov\nhurst = 0.25,0.75\n"
                   "resolutions = 3,6\nreference_exponent = 7\nsamples = 2\nbase_seed = 5\n")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert run(["fbm", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        restore()
    csv = (tmp_path / "fbm.csv").read_bytes()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.write_csv.calls"] == 1
    assert metrics["cli.csv_rows"] == len(csv.splitlines()) - 1 == 2 * 2 * (8 + 64)
    assert metrics["cli.csv_bytes"] == len(csv)
