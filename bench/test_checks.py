"""The output checks must reject corrupted CSVs.

Each study's real output is written once through ``roughwave.cli.run`` with
the workload configs; every case then changes one cell (or drops a row) and
asserts that the checker reports a problem.

    python3 -m pytest -q bench/test_checks.py
"""

import io
import math
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from workload import CONFIGS, WORKLOADS  # noqa: E402

SEED = 2024
STUDIES = {study: cfg for ops in WORKLOADS.values() for study, cfg, _ in ops}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from roughwave.cli import run

    out = tmp_path_factory.mktemp("outputs")
    for study, cfg in STUDIES.items():
        argv = [study, "--config", str(CONFIGS / cfg), "--out", str(out),
                "--seed", str(SEED), "--workers", "1"]
        assert run(argv, out=io.StringIO()) == 0
    return out


def problems(study, out_dir):
    cfg = checks.read_config(CONFIGS / STUDIES[study], SEED)
    return checks.check_output(study, out_dir, cfg, SEED, 1)


def corrupt(src, dst, study, match, column, change):
    """Copy the study's outputs, changing ``column`` of the first row ``match`` accepts."""
    shutil.copy(src / f"{study}_manifest.json", dst)
    lines = (src / f"{study}.csv").read_text().splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        row = dict(zip(header, map(checks._cell, line.split(","))))
        if match(row):
            cells = line.split(",")
            if column is None:
                del lines[i]
            else:
                cells[header.index(column)] = repr(change(row[column]))
                lines[i] = ",".join(cells)
            break
    else:
        raise AssertionError(f"no {study} row to corrupt")
    (dst / f"{study}.csv").write_text("\n".join(lines) + "\n")


def per_sample(h, k=None, sample=None):
    return lambda r: (r["hurst"] == h and isinstance(r["sample"], int)
                      and (k is None or r["k"] == k) and sample in (None, r["sample"]))


CASES = [
    # converge: recomputed error, monotone mean error, mean rate, a lost row
    ("converge", per_sample(0.75, 5), "l1_error", lambda v: v * (1 + 1e-6)),
    ("converge", lambda r: r["sample"] == "MEAN" and r["k"] == 9, "l1_error", lambda v: v * 10),
    ("converge", lambda r: r["sample"] == "MEAN" and r["k"] == "RATE", "rate_regression",
     lambda v: 0.2),
    ("converge", per_sample(0.25, 7), None, None),
    # scaling: mean TV slope band, Lip+ monotone in k, recomputed TV
    ("tvscale", lambda r: r["hurst"] == 0.5 and r["sample"] == "MEAN", "slope",
     lambda v: -0.4),
    ("lipscale", per_sample(0.25, 16), "lip_plus", lambda v: v * 0.5),
    ("tvscale", per_sample(0.75, 12, SEED % 16), "tv", lambda v: v * (1 - 1e-8)),
    # tvtime: bound ratio, TVD in time, inv_tv, recomputed TV-integral
    ("sharpness", per_sample(0.25, 6), "ratio", lambda v: 0.99),
    ("sharpness", per_sample(0.5, 8), "tv_time_integral", lambda v: v * (1 + 1e-6)),
    ("tvdecay", lambda r: r["hurst"] == 0.25 and r["time"] == 1.0, "tv", lambda v: v * 2),
    ("tvdecay", per_sample(0.5), "inv_tv", lambda v: math.nextafter(v, math.inf)),
    # fields: |u| <= 1, midpoints, maximum principle, recomputed field
    ("fbm", per_sample(0.25, 9), "u", lambda v: 1.0000001),
    ("fbm", per_sample(0.5, 8), "x", lambda v: v + 2.0**-12),
    ("fbm", lambda r: per_sample(0.75, 10)(r) and r["u"] != 0.0, "u", lambda v: v * (1 - 1e-6)),
    ("solve", lambda r: r["time"] == 1.0, "u", lambda v: 1.5),
    ("solve", lambda r: r["time"] == 0.5, "u", lambda v: v + 1e-6),
]


def test_outputs_pass(outputs):
    for study in STUDIES:
        assert problems(study, outputs) == [], study


@pytest.mark.parametrize("case", range(len(CASES)))
def test_corrupted_csv_fails(outputs, tmp_path, case):
    study, match, column, change = CASES[case]
    corrupt(outputs, tmp_path, study, match, column, change)
    assert problems(study, tmp_path)


def test_manifest_seed_mismatch_fails(outputs, tmp_path):
    for study in STUDIES:
        shutil.copy(outputs / f"{study}.csv", tmp_path)
        text = (outputs / f"{study}_manifest.json").read_text()
        (tmp_path / f"{study}_manifest.json").write_text(
            text.replace(f'"base_seed": {SEED}', '"base_seed": 1'))
        assert problems(study, tmp_path), study
