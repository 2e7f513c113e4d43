"""Output checks for the studies the benchmark drives.

Each checker reads one CSV written by ``roughwave.cli`` and returns a list of
problems (empty when the output is correct).  It tests two things:

* properties the monotone method must have (rates, TVD, the maximum
  principle, the TV-integral bound, monotonicity of TV and Lip+ under cell
  averaging), read from the CSV alone;
* agreement, within ``reference.RTOL``/``ATOL``, with an independent
  recomputation of one (H, sample) in ``reference.py``.

The known-red Lip+ slope band (acceptance criterion 2) is deliberately not a
check here.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

COLUMNS = {
    "converge": "study,hurst,sample,k,dx,l1_error,rate_pairwise,rate_regression",
    "tvscale": "study,hurst,sample,k,dx,tv,slope",
    "lipscale": "study,hurst,sample,k,dx,lip_plus,slope",
    "tvdecay": "study,hurst,sample,k,time,tv,inv_tv",
    "sharpness": "study,hurst,sample,k,dx,lip_plus_0,tv_time_integral,bound_rhs,ratio,slope",
    "solve": "study,hurst,sample,k,time,x,u",
    "fbm": "study,hurst,sample,k,x,u",
}
MIN_CONVERGENCE_RATE = 0.25
TV_SLOPE_BAND = 0.05
SHARPNESS_BETA = 0.125  # Burgers + Godunov, the only pairing the CLI accepts
ROUND = 1e-12  # relative slack for "up to rounding" comparisons


class CheckFailed(Exception):
    pass


def read_config(path, seed: int) -> dict:
    """The benchmark's own reading of a key = value study config."""
    cfg = {"t_final": 1.0, "cfl": 0.5, "boundary": "outflow", "snapshot_times": []}
    floats = lambda v: [float(x) for x in v.split(",") if x.strip()]
    parse = {
        "hurst": floats,
        "snapshot_times": floats,
        "resolutions": lambda v: [int(x) for x in v.split(",")],
        "reference_exponent": int,
        "samples": int,
        "base_seed": int,
        "t_final": float,
        "cfl": float,
    }
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            cfg[key] = parse.get(key, str)(value)
    cfg["base_seed"] = seed
    return cfg


def pick(cfg: dict, seed: int):
    """The (H, sample) that is recomputed; it moves with the seed."""
    return cfg["hurst"][seed % len(cfg["hurst"])], seed % cfg["samples"]


def _cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path, study: str):
    """Yield each data row as a dict of parsed cells, after checking the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != COLUMNS[study].split(","):
            raise CheckFailed(f"{study}: header {header}")
        for rec in reader:
            row = dict(zip(header, map(_cell, rec)))
            if len(rec) != len(header) or row["study"] != study:
                raise CheckFailed(f"{study}: malformed row {rec}")
            for name, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise CheckFailed(f"{study}: non-finite {name} in {rec}")
            yield row


class Problems(list):
    def expect(self, ok: bool, message: str):
        if not ok:
            self.append(message)

    def close(self, got, want, what: str):
        self.expect(got is not None and ref.close(got, want),
                    f"{what}: CSV {got!r}, recomputed {want!r}")


def _per_sample(rows, column):
    """{(hurst, sample): {k: value}} over the per-sample, per-resolution rows."""
    out = defaultdict(dict)
    for r in rows:
        if isinstance(r["sample"], int) and isinstance(r["k"], int):
            out[(r["hurst"], r["sample"])][r["k"]] = r[column]
    return out


def _summary(rows, sample, k, column):
    """{hurst: value} of the rows labelled (sample, k), e.g. ("MEAN", "SLOPE")."""
    return {r["hurst"]: r[column] for r in rows if r["sample"] == sample and r["k"] == k}


def _expect_grid(p, per_sample, cfg, study):
    want = {(h, s) for h in cfg["hurst"] for s in range(cfg["samples"])}
    p.expect(set(per_sample) == want, f"{study}: (hurst, sample) set {sorted(per_sample)}")
    for key, by_k in per_sample.items():
        p.expect(sorted(by_k) == cfg["resolutions"], f"{study} {key}: resolutions {sorted(by_k)}")


def _initial_field(cfg, hurst, sample):
    return ref.fbm_cells(hurst, cfg["reference_exponent"],
                         ref.sample_seed(cfg["base_seed"], sample))


def _evolve(cfg, u0, **kw):
    return ref.evolve(u0, cfg["equation"], cfg["numflux"], cfg["t_final"], cfg["cfl"],
                      cfg["boundary"] == "periodic", **kw)


def check_converge(path, cfg, seed):
    rows = list(read_rows(path, "converge"))
    p = Problems()
    errors = _per_sample(rows, "l1_error")
    _expect_grid(p, errors, cfg, "converge")
    means = defaultdict(dict)
    for r in rows:
        if r["sample"] == "MEAN" and isinstance(r["k"], int):
            means[r["hurst"]][r["k"]] = r["l1_error"]
    rates = _summary(rows, "MEAN", "RATE", "rate_regression")
    for h in cfg["hurst"]:
        seq = [means[h].get(k) for k in cfg["resolutions"]]
        p.expect(None not in seq and all(a > b for a, b in zip(seq, seq[1:])),
                 f"converge H={h}: mean L1 error not strictly decreasing in k: {seq}")
        for k in cfg["resolutions"]:
            ens = [errors[(h, s)].get(k) for s in range(cfg["samples"])]
            if None not in ens:
                p.close(means[h].get(k), sum(ens) / len(ens), f"converge H={h} k={k} mean error")
        p.expect((rates.get(h) or -math.inf) >= MIN_CONVERGENCE_RATE,
                 f"converge H={h}: mean rate {rates.get(h)} < {MIN_CONVERGENCE_RATE}")

    h, s = pick(cfg, seed)
    u0_ref = _initial_field(cfg, h, s)
    fine = _evolve(cfg, u0_ref)["final"]
    dxs, errs = [], []
    for k in cfg["resolutions"]:
        u0_k = ref.restrict(u0_ref, cfg["reference_exponent"], k)
        dxs.append(2.0**-k)
        errs.append(ref.l1_error(_evolve(cfg, u0_k)["final"], fine))
        p.close(errors[(h, s)].get(k), errs[-1], f"converge H={h} sample={s} k={k} l1_error")
    by_key = {(r["hurst"], r["sample"], r["k"]): r for r in rows}
    for i, k in enumerate(cfg["resolutions"][1:], start=1):
        pairwise = math.log(errs[i - 1] / errs[i]) / math.log(dxs[i - 1] / dxs[i])
        got = by_key.get((h, s, k), {}).get("rate_pairwise")
        p.close(got, pairwise, f"converge H={h} sample={s} k={k} rate_pairwise")
    got = by_key.get((h, s, "RATE"), {}).get("rate_regression")
    p.close(got, ref.slope(dxs, errs), f"converge H={h} sample={s} rate_regression")
    return p


def _check_scaling(path, cfg, seed, study, column, measure):
    rows = list(read_rows(path, study))
    p = Problems()
    values = _per_sample(rows, column)
    _expect_grid(p, values, cfg, study)
    for key, by_k in values.items():
        seq = [by_k[k] for k in sorted(by_k)]
        p.expect(all(b >= a * (1.0 - ROUND) for a, b in zip(seq, seq[1:])),
                 f"{study} {key}: decreases with k although cell averaging cannot raise it: {seq}")
    for r in rows:
        if isinstance(r["k"], int):
            p.expect(r["dx"] == 2.0 ** -r["k"], f"{study} {r}: dx is not 2^-k")

    h, s = pick(cfg, seed)
    u0_ref = _initial_field(cfg, h, s)
    dxs, want = [], []
    for k in cfg["resolutions"]:
        dxs.append(2.0**-k)
        want.append(measure(ref.restrict(u0_ref, cfg["reference_exponent"], k)))
        p.close(values[(h, s)].get(k), want[-1], f"{study} H={h} sample={s} k={k} {column}")
    slopes = {(r["hurst"], r["sample"]): r["slope"] for r in rows if r["k"] == "SLOPE"}
    p.close(slopes.get((h, s)), ref.slope(dxs, want), f"{study} H={h} sample={s} slope")
    return p, slopes


def check_tvscale(path, cfg, seed):
    p, slopes = _check_scaling(path, cfg, seed, "tvscale", "tv", ref.total_variation)
    for h in cfg["hurst"]:
        got = slopes.get((h, "MEAN"))
        p.expect(got is not None and abs(got - (h - 1.0)) <= TV_SLOPE_BAND,
                 f"tvscale H={h}: mean slope {got} not within {TV_SLOPE_BAND} of {h - 1.0}")
    return p


def check_lipscale(path, cfg, seed):
    return _check_scaling(path, cfg, seed, "lipscale", "lip_plus", ref.lip_plus)[0]


def check_sharpness(path, cfg, seed):
    rows = list(read_rows(path, "sharpness"))
    p = Problems()
    ratios = _per_sample(rows, "ratio")
    _expect_grid(p, ratios, cfg, "sharpness")
    for r in rows:
        if isinstance(r["k"], int):
            p.expect(r["ratio"] >= 1.0, f"sharpness {r}: ratio below 1 breaks the bound")
            p.close(r["ratio"], r["bound_rhs"] / r["tv_time_integral"], f"sharpness {r} ratio")

    h, s = pick(cfg, seed)
    u0_ref = _initial_field(cfg, h, s)
    by_key = {(r["hurst"], r["sample"], r["k"]): r for r in rows}
    for k in cfg["resolutions"]:
        u0_k = ref.restrict(u0_ref, cfg["reference_exponent"], k)
        run = _evolve(cfg, u0_k, record_tv=True)
        lip0 = ref.lip_plus(u0_k)
        rhs = 2.0 * 0.5 * (lip0 * run["dt"] + math.log1p(
            SHARPNESS_BETA * run["times"][-1] * lip0) / SHARPNESS_BETA)
        integral = ref.tv_time_integral(run)
        row = by_key.get((h, s, k), {})
        for column, want in (("lip_plus_0", lip0), ("tv_time_integral", integral),
                             ("bound_rhs", rhs), ("ratio", rhs / integral)):
            p.close(row.get(column), want, f"sharpness H={h} sample={s} k={k} {column}")
    return p


def check_tvdecay(path, cfg, seed):
    rows = list(read_rows(path, "tvdecay"))
    p = Problems()
    series = defaultdict(list)
    for r in rows:
        series[(r["hurst"], r["sample"], r["k"])].append((r["time"], r["tv"]))
        p.expect(r["inv_tv"] == 1.0 / r["tv"], f"tvdecay {r}: inv_tv is not 1/tv")
    want_keys = {(h, s, k) for h in cfg["hurst"] for s in range(cfg["samples"])
                 for k in cfg["resolutions"]}
    p.expect(set(series) == want_keys, f"tvdecay: row groups {sorted(series)}")
    for key, seq in series.items():
        times = [t for t, _ in seq]
        tvs = [tv for _, tv in seq]
        p.expect(len(seq) == len(cfg["snapshot_times"]) and times == sorted(times),
                 f"tvdecay {key}: times {times}")
        p.expect(all(b <= a * (1.0 + ROUND) for a, b in zip(tvs, tvs[1:])),
                 f"tvdecay {key}: TV increases in time: {tvs}")

    h, s = pick(cfg, seed)
    u0_ref = _initial_field(cfg, h, s)
    periodic = cfg["boundary"] == "periodic"
    for k in cfg["resolutions"]:
        u0_k = ref.restrict(u0_ref, cfg["reference_exponent"], k)
        run = _evolve(cfg, u0_k, snapshot_times=cfg["snapshot_times"])
        got = series.get((h, s, k), [])
        p.expect(len(got) == len(run["snapshots"]), f"tvdecay H={h} sample={s} k={k}: snapshots")
        for (t, tv), (t_ref, v_ref) in zip(got, run["snapshots"]):
            p.close(t, t_ref, f"tvdecay H={h} sample={s} k={k} time")
            p.close(tv, ref.total_variation(v_ref, periodic), f"tvdecay H={h} sample={s} k={k} t={t} tv")
    return p


def _field_blocks(path, study):
    """(key, x, u) per run of consecutive rows that share the key columns.

    Field CSVs end in the columns x,u and run to hundreds of thousands of
    rows, so they are read a line at a time into arrays, not through
    ``read_rows``.
    """
    def block(prefix, xs, us):
        study_cell, *key = prefix.split(",")
        if study_cell != study:
            raise CheckFailed(f"{study}: row of study {study_cell!r}")
        x, u = np.array(xs, dtype=float), np.array(us, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise CheckFailed(f"{study} {prefix}: non-finite x or u")
        return tuple(map(_cell, key)), x, u

    with open(path) as fh:
        if fh.readline().rstrip("\n") != COLUMNS[study]:
            raise CheckFailed(f"{study}: unexpected header")
        prefix, xs, us = None, [], []
        for line in fh:
            head, x, u = line.rstrip("\n").rsplit(",", 2)
            if head != prefix and xs:
                yield block(prefix, xs, us)
                xs, us = [], []
            prefix = head
            xs.append(x)
            us.append(u)
        if xs:
            yield block(prefix, xs, us)


def _midpoints_ok(x, k):
    n = 1 << k
    return x.size == n and np.array_equal(x, (np.arange(n) + 0.5) / n)


def check_fbm(path, cfg, seed):
    p = Problems()
    h, s = pick(cfg, seed)
    want = ref.fbm_cells_all_levels(h, cfg["resolutions"],
                                    ref.sample_seed(cfg["base_seed"], s))
    seen = []
    for (hurst, sample, k), x, u in _field_blocks(path, "fbm"):
        seen.append((hurst, sample, k))
        p.expect(_midpoints_ok(x, k), f"fbm H={hurst} sample={sample} k={k}: "
                 "x is not the cell midpoint or the cell count is not 2^k")
        p.expect(np.abs(u).max() <= 1.0, f"fbm H={hurst} sample={sample} k={k}: |u| > 1")
        if (hurst, sample) == (h, s) and u.size == want[k].size:
            bad = np.flatnonzero(~ref.close_all(u, want[k]))
            p.expect(bad.size == 0, f"fbm H={h} sample={s} k={k}: {bad.size} cells differ "
                     f"from the recomputation, first at {bad[:1]}")
    expected = [(hh, ss, k) for hh in cfg["hurst"] for ss in range(cfg["samples"])
                for k in cfg["resolutions"]]
    p.expect(seen == expected, f"fbm: groups {seen}")
    return p


def check_solve(path, cfg, seed):
    p = Problems()
    h, k = cfg["hurst"][0], cfg["resolutions"][0]
    u0 = ref.fbm_cells(h, k, ref.sample_seed(cfg["base_seed"], 0))
    run = _evolve(cfg, u0, snapshot_times=cfg["snapshot_times"])
    want = [(0.0, u0)] + run["snapshots"] + [(run["times"][-1], run["final"])]
    want = [(t, v) for i, (t, v) in enumerate(want) if t not in [w[0] for w in want[:i]]]

    periodic = cfg["boundary"] == "periodic"
    blocks = list(_field_blocks(path, "solve"))
    p.expect([key[:3] for key, _, _ in blocks] == [(h, 0, k)] * len(blocks),
             f"solve: rows for {sorted({key[:3] for key, _, _ in blocks})}")
    p.expect(len(blocks) == len(want), f"solve: {len(blocks)} emitted times, want {len(want)}")
    lo = hi = None
    prev_tv = math.inf
    for (key, x, u), (t_ref, v_ref) in zip(blocks, want):
        t = key[3]
        p.expect(_midpoints_ok(x, k), f"solve t={t}: x is not the cell midpoint")
        if lo is None:
            lo, hi = u.min(), u.max()
        slack = ROUND * max(abs(lo), abs(hi))
        p.expect(lo - slack <= u.min() and u.max() <= hi + slack,
                 f"solve t={t}: state leaves the initial range [{lo}, {hi}]")
        tv = ref.total_variation(u, periodic)
        p.expect(tv <= prev_tv * (1.0 + ROUND), f"solve t={t}: TV rose from {prev_tv} to {tv}")
        prev_tv = tv
        p.close(t, t_ref, "solve time")
        if u.size == v_ref.size:
            bad = np.flatnonzero(~ref.close_all(u, v_ref))
            p.expect(bad.size == 0, f"solve t={t}: {bad.size} cells differ from the recomputation")
    return p


CHECKERS = {
    "converge": check_converge,
    "tvscale": check_tvscale,
    "lipscale": check_lipscale,
    "sharpness": check_sharpness,
    "tvdecay": check_tvdecay,
    "fbm": check_fbm,
    "solve": check_solve,
}


def check_manifest(path, study: str, seed: int, workers: int) -> list:
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return [f"{study}: manifest unreadable: {exc}"]
    want = {"command": study, "outputs": [f"{study}.csv"], "base_seed": seed, "workers": workers}
    return [f"{study}: manifest {key} = {manifest.get(key)!r}, want {value!r}"
            for key, value in want.items() if manifest.get(key) != value]


def check_output(study: str, out_dir, cfg: dict, seed: int, workers: int) -> list:
    """Every problem found in one study's CSV and manifest."""
    out_dir = Path(out_dir)
    try:
        problems = list(CHECKERS[study](out_dir / f"{study}.csv", cfg, seed))
    except (OSError, CheckFailed, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"{study}: {type(exc).__name__}: {exc}"]
    return problems + check_manifest(out_dir / f"{study}_manifest.json", study, seed, workers)
