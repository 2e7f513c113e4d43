import json

import numpy as np
import pytest

from roughwave import (
    Boundary,
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    StudyConfig,
    config_from_dict,
    lip_plus,
    restrict,
    run_samples_parallel,
    sample_seed,
    total_variation,
)
from roughwave import experiments
from roughwave.experiments import _slope_or_none

GODUNOV = NumericalFluxSpec(NumFluxKind.GODUNOV)


def burgers_cfg(**kw):
    kw.setdefault("equation", FluxSpec.BURGERS)
    kw.setdefault("numflux", GODUNOV)
    kw.setdefault("hurst_list", (0.5,))
    kw.setdefault("resolutions", (5, 6, 7))
    kw.setdefault("reference_exponent", 9)
    kw.setdefault("n_samples", 2)
    kw.setdefault("base_seed", 2024)
    return StudyConfig(**kw)


def data_rows(result):
    return [r for r in result.rows if isinstance(r[3], int)]


def test_study_config_validation():
    with pytest.raises(ValueError):
        burgers_cfg(hurst_list=())
    with pytest.raises(ValueError):
        burgers_cfg(hurst_list=(1.2,))
    with pytest.raises(ValueError):
        burgers_cfg(hurst_list=(0.5, 0.5))
    with pytest.raises(ValueError):
        burgers_cfg(resolutions=())
    with pytest.raises(ValueError):
        burgers_cfg(resolutions=(7, 6, 5))
    with pytest.raises(ValueError):
        burgers_cfg(resolutions=(5, 5, 6))
    with pytest.raises(ValueError):
        burgers_cfg(reference_exponent=7)
    with pytest.raises(ValueError, match="at most 26"):
        burgers_cfg(reference_exponent=27)
    with pytest.raises(ValueError):
        burgers_cfg(n_samples=0)
    for beta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta"):
            burgers_cfg(beta=beta)
    with pytest.raises(ValueError):
        burgers_cfg(cfl=2.0)
    with pytest.raises(ValueError, match="upwind"):
        burgers_cfg(numflux=NumericalFluxSpec(NumFluxKind.UPWIND))
    for times in ((float("nan"),), (0.5, 0.25), (1.5,), (-0.1,)):
        with pytest.raises(ValueError, match="snapshot_times"):
            burgers_cfg(snapshot_times=times)


def test_study_config_takes_whole_numbers_as_plain_ints():
    # a float count or seed would fail inside a sample or run with a truncated seed,
    # and numpy integers would make the manifest's json.dumps raise
    for name in ("reference_exponent", "n_samples", "base_seed"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 9.0$"):
            burgers_cfg(**{name: 9.0})
    with pytest.raises(ValueError, match="base_seed must be an integer, got 1.5"):
        burgers_cfg(base_seed=1.5)
    cfg = burgers_cfg(reference_exponent=np.int64(9), n_samples=np.int32(2),
                      base_seed=np.uint64(2**64 - 1))
    for name, value in [("reference_exponent", 9), ("n_samples", 2),
                        ("base_seed", 2**64 - 1)]:
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == value
    assert json.loads(json.dumps(experiments.config_to_dict(cfg)))["base_seed"] == 2**64 - 1


def test_unknown_study_rejected():
    with pytest.raises(ValueError):
        run_samples_parallel("nope", burgers_cfg())


def test_converge_single_sample_two_resolutions():
    cfg = burgers_cfg(resolutions=(5, 6), n_samples=1, t_final=0.25)
    res = run_samples_parallel("converge", cfg)
    rate_rows = [r for r in res.rows if r[3] == "RATE" and isinstance(r[2], int)]
    assert len(rate_rows) == 1
    assert rate_rows[0][-1] is not None
    errs = [r[5] for r in data_rows(res)]
    assert all(e >= 0 for e in errs)


def test_converge_rows_are_canonically_ordered():
    cfg = burgers_cfg(hurst_list=(0.25, 0.75), n_samples=2, resolutions=(5, 6),
                      t_final=0.125)
    res = run_samples_parallel("converge", cfg)
    keys = [(r[1], r[2], r[3]) for r in res.rows]
    want = []
    for h in (0.25, 0.75):
        for s in (0, 1):
            want += [(h, s, 5), (h, s, 6), (h, s, "RATE")]
        want += [(h, "MEAN", 5), (h, "MEAN", 6), (h, "MEAN", "RATE"), (h, "STD", "RATE")]
    assert keys == want


def test_converge_mean_rate_lies_between_extremes():
    cfg = burgers_cfg(n_samples=4, t_final=0.25)
    res = run_samples_parallel("converge", cfg)
    rates = [r[-1] for r in res.rows if r[3] == "RATE" and isinstance(r[2], int)]
    mean = [r[-1] for r in res.rows if r[3] == "RATE" and r[2] == "MEAN"][0]
    assert min(rates) <= mean <= max(rates)


def test_converge_exact_advection_gives_zero_errors():
    # periodic unit-CFL transport over a full period is the identity at every
    # resolution, so restricted comparisons see no error at all
    cfg = StudyConfig(
        equation=FluxSpec.LINEAR,
        numflux=NumericalFluxSpec(NumFluxKind.UPWIND),
        hurst_list=(0.5,),
        resolutions=(5, 6, 7),
        reference_exponent=9,
        n_samples=2,
        base_seed=7,
        t_final=1.0,
        cfl=1.0,
        boundary=Boundary.PERIODIC,
    )
    res = run_samples_parallel("converge", cfg)
    assert all(r[5] <= 1e-12 for r in data_rows(res))


def test_study_rows_identical_across_worker_counts():
    cfg = burgers_cfg(n_samples=3, t_final=0.25)
    serial = run_samples_parallel("converge", cfg, workers=1)
    parallel = run_samples_parallel("converge", cfg, workers=2)
    assert serial.rows == parallel.rows
    assert serial.columns == parallel.columns


def test_pool_is_sized_by_the_task_count(monkeypatch):
    started = []

    class RecordingPool(experiments.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            started.append((self._max_workers, len(self._threads)))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    cfg = burgers_cfg(n_samples=2, t_final=0.125)
    assert len(experiments.STUDIES["tvscale"].tasks(cfg)) == 2
    run_samples_parallel("tvscale", cfg, workers=4)
    assert len(started) == 1
    assert started[0][0] == 2 and started[0][1] <= 2
    run_samples_parallel("solve", cfg, workers=4)  # one task runs in this thread
    assert len(started) == 1


def test_study_rows_reproducible_from_metadata():
    cfg = burgers_cfg(n_samples=2, t_final=0.25)
    first = run_samples_parallel("tvscale", cfg)
    rebuilt_cfg = config_from_dict(first.metadata["config"])
    second = run_samples_parallel("tvscale", rebuilt_cfg)
    assert first.rows == second.rows
    assert first.metadata["sample_seeds"] == [
        sample_seed(cfg.base_seed, i) for i in range(cfg.n_samples)
    ]


def test_tvscale_measures_restricted_fields():
    cfg = burgers_cfg(n_samples=1, resolutions=(5, 6))
    res = run_samples_parallel("tvscale", cfg)
    rows = data_rows(res)
    from roughwave import fbm_initial_field, make_grid

    ref = fbm_initial_field(0.5, make_grid(0, 1, 1 << 9), sample_seed(2024, 0))
    for row in rows:
        k = row[3]
        want = total_variation(restrict(ref, 1 << (9 - k)))
        assert row[5] == pytest.approx(want, rel=1e-15)


def test_tvscale_mean_stable_under_doubling_samples():
    base = burgers_cfg(hurst_list=(0.5,), resolutions=(5, 6, 7, 8), reference_exponent=10)
    small = run_samples_parallel("tvscale", StudyConfig(**{**_as_kwargs(base), "n_samples": 16}))
    big = run_samples_parallel("tvscale", StudyConfig(**{**_as_kwargs(base), "n_samples": 32}))

    def stats(res):
        mean = [r[-1] for r in res.rows if r[2] == "MEAN"][0]
        std = [r[-1] for r in res.rows if r[2] == "STD"][0]
        n = len([r for r in res.rows if r[3] == "SLOPE" and isinstance(r[2], int)])
        return mean, std, n

    m1, s1, n1 = stats(small)
    m2, _, _ = stats(big)
    assert abs(m2 - m1) <= 2.0 * s1 / np.sqrt(n1)


def _as_kwargs(cfg):
    return dict(
        equation=cfg.equation, numflux=cfg.numflux, hurst_list=cfg.hurst_list,
        resolutions=cfg.resolutions, reference_exponent=cfg.reference_exponent,
        n_samples=cfg.n_samples, base_seed=cfg.base_seed, t_final=cfg.t_final,
        cfl=cfg.cfl, boundary=cfg.boundary, snapshot_times=cfg.snapshot_times,
        beta=cfg.beta,
    )


def test_lipscale_slope_tracks_tvscale_slope():
    # both scale like dx^(H-1); the sup statistic runs systematically steeper
    # by its extreme-value correction (~0.1 at these resolutions)
    cfg = burgers_cfg(hurst_list=(0.5,), resolutions=(6, 7, 8, 9, 10),
                      reference_exponent=12, n_samples=16)
    tv_mean = [r[-1] for r in run_samples_parallel("tvscale", cfg).rows if r[2] == "MEAN"][0]
    lip_mean = [r[-1] for r in run_samples_parallel("lipscale", cfg).rows if r[2] == "MEAN"][0]
    assert abs(lip_mean - tv_mean) < 0.2


def test_lipscale_rows_match_restricted_seminorm():
    cfg = burgers_cfg(n_samples=1, resolutions=(5, 6))
    res = run_samples_parallel("lipscale", cfg)
    from roughwave import fbm_initial_field, make_grid

    ref = fbm_initial_field(0.5, make_grid(0, 1, 1 << 9), sample_seed(2024, 0))
    for row in data_rows(res):
        want = lip_plus(restrict(ref, 1 << (9 - row[3])))
        assert row[5] == pytest.approx(want, rel=1e-15)


def test_slope_fit_skips_nonpositive_values():
    assert _slope_or_none([(0.5, 1.0), (0.25, -1.0)]) is None
    assert _slope_or_none([(0.5, 0.0), (0.25, 0.0)]) is None
    assert _slope_or_none([(0.5, 1.0), (0.25, 0.5), (0.125, -3.0)]) == pytest.approx(1.0)


def test_tvdecay_requires_snapshots():
    with pytest.raises(ValueError):
        run_samples_parallel("tvdecay", burgers_cfg())


def test_tvdecay_linear_transport_keeps_tv_constant():
    cfg = StudyConfig(
        equation=FluxSpec.LINEAR,
        numflux=NumericalFluxSpec(NumFluxKind.UPWIND),
        hurst_list=(0.5,),
        resolutions=(6,),
        reference_exponent=8,
        n_samples=2,
        base_seed=3,
        t_final=1.0,
        cfl=1.0,
        boundary=Boundary.PERIODIC,
        snapshot_times=(0.25, 0.5, 0.75, 1.0),
    )
    res = run_samples_parallel("tvdecay", cfg)
    for s in range(2):
        tvs = [r[5] for r in res.rows if r[2] == s]
        assert max(tvs) - min(tvs) <= 1e-10


def test_tvdecay_row_schema():
    cfg = burgers_cfg(resolutions=(6,), reference_exponent=8, n_samples=1,
                      snapshot_times=(0.5, 1.0))
    res = run_samples_parallel("tvdecay", cfg)
    assert res.columns == ("study", "hurst", "sample", "k", "time", "tv", "inv_tv")
    assert len(res.rows) == 2
    for row in res.rows:
        assert row[6] == pytest.approx(1.0 / row[5], rel=1e-15)


def test_sharpness_requires_known_beta():
    cfg = burgers_cfg(equation=FluxSpec.CUBIC, numflux=NumericalFluxSpec(NumFluxKind.RUSANOV))
    with pytest.raises(ValueError):
        run_samples_parallel("sharpness", cfg)


def test_sharpness_accepts_explicit_beta():
    cfg = burgers_cfg(
        equation=FluxSpec.CUBIC,
        numflux=NumericalFluxSpec(NumFluxKind.RUSANOV),
        resolutions=(5, 6),
        reference_exponent=8,
        n_samples=1,
        t_final=0.25,
        beta=0.05,
    )
    res = run_samples_parallel("sharpness", cfg)
    assert len(data_rows(res)) == 2
    assert all(r[8] > 0 for r in data_rows(res))


def test_sharpness_single_step_closed_form():
    # with one full step the ratio reduces to the two-term quotient
    # 2M (L0 dt + log1p(beta dt L0)/beta) / ((TV0 + TV1) dt); for tiny dt
    # this approaches 2M L0 / TV0
    from roughwave import (
        SchemeConfig,
        evolve,
        fbm_initial_field,
        lip_bound_rhs,
        make_grid,
        tv_time_integral,
    )

    u0 = fbm_initial_field(0.5, make_grid(0, 1, 1 << 10), 77)
    dx = u0.grid.dx
    speed = max(abs(float(u0.values.min())), abs(float(u0.values.max())))
    cfl = 0.01  # tiny step: the one-step TV drop scales away with cfl
    dt = cfl * dx / speed
    scheme = SchemeConfig(flux=FluxSpec.BURGERS, numflux=GODUNOV, t_final=dt, cfl=cfl)
    traj = evolve(u0, scheme, track_tv=True)
    assert len(traj.times) == 2
    l0 = lip_plus(u0)
    ratio = lip_bound_rhs(0.125, l0, traj.dt_used, float(traj.times[-1])) / tv_time_integral(traj)
    assert ratio == pytest.approx(2 * 0.5 * l0 / total_variation(u0), rel=1e-2)


def test_worker_failure_carries_sample_identity(monkeypatch):
    def failing_evolve(*args, **kwargs):
        raise FloatingPointError("non-finite value in cell 3")

    monkeypatch.setattr(experiments, "evolve", failing_evolve)
    cfg = burgers_cfg(snapshot_times=(0.5,), t_final=1.0, resolutions=(5,),
                      reference_exponent=7, n_samples=1)
    with pytest.raises(RuntimeError, match="sample 0.*non-finite"):
        run_samples_parallel("tvdecay", cfg)


def test_converge_errors_mostly_decrease_with_resolution():
    cfg = burgers_cfg(resolutions=(5, 6, 7, 8), reference_exponent=10, n_samples=8,
                      t_final=1.0)
    res = run_samples_parallel("converge", cfg)
    rows = data_rows(res)
    good = total = 0
    for s in range(8):
        errs = [r[5] for r in rows if r[2] == s]
        for a, b in zip(errs, errs[1:]):
            total += 1
            good += a >= b
    assert good / total >= 0.9


def _cell_rows_by_hand(study, cfg):
    """The row tuples of a per-cell study, built one cell at a time from
    ``fbm_initial_field`` and ``evolve``."""
    from roughwave import SchemeConfig, evolve, fbm_initial_field, make_grid

    def cells(labels, field):
        return [(*labels, float(x), float(u))
                for x, u in zip(field.grid.cell_midpoints(), field.values)]

    rows = []
    if study == "fbm":
        for h in cfg.hurst_list:
            for s in range(cfg.n_samples):
                for k in cfg.resolutions:
                    grid, seed = make_grid(0, 1, 1 << k), sample_seed(cfg.base_seed, s)
                    rows += cells(("fbm", h, s, k), fbm_initial_field(h, grid, seed))
        return rows
    h, k = cfg.hurst_list[0], cfg.resolutions[0]
    u0 = fbm_initial_field(h, make_grid(0, 1, 1 << k), sample_seed(cfg.base_seed, 0))
    scheme = SchemeConfig(cfg.equation, cfg.numflux, t_final=cfg.t_final, cfl=cfg.cfl)
    traj = evolve(u0, scheme, snapshot_times=cfg.snapshot_times)
    frames = {0.0: u0}
    for snap in traj.snapshots:
        frames.setdefault(snap.time, snap.field)
    frames.setdefault(float(traj.times[-1]), traj.final)
    for t, field in frames.items():
        rows += cells(("solve", h, 0, k, float(t)), field)
    return rows


@pytest.mark.parametrize("study", ["fbm", "solve"])
def test_cell_rows_view_gives_the_row_tuples(study, tmp_path):
    from roughwave.cli import write_csv

    cfg = burgers_cfg(hurst_list=(0.25, 0.75), resolutions=(3, 5, 6), reference_exponent=7,
                      t_final=0.25, snapshot_times=(0.125, 0.25))
    expected = _cell_rows_by_hand(study, cfg)
    serial = run_samples_parallel(study, cfg, workers=1)
    parallel = run_samples_parallel(study, cfg, workers=2)
    assert serial.rows == parallel.rows
    assert serial == parallel
    for res in (serial, parallel):
        rows = res.rows
        assert list(rows) == expected
        assert rows == tuple(expected) and tuple(expected) == rows
        path = tmp_path / f"{study}.csv"
        write_csv(res, path)
        assert len(rows) == len(path.read_bytes().splitlines()) - 1
    assert serial.rows != expected[:-1]
    assert serial.rows != [*expected[:-1], (*expected[-1][:-1], expected[-1][-1] + 1.0)]
    assert not serial.rows.blocks[0].values.flags.writeable
    assert not parallel.rows.blocks[-1].values.flags.writeable


def test_fbm_and_csv_peak_memory_stays_with_the_arrays(tmp_path):
    """The fBm table and its CSV cost about the cells' arrays and the ``x``
    text, not a tuple per cell (about 16 MiB for these 97,536 rows)."""
    import tracemalloc

    from roughwave.cli import write_csv

    cfg = burgers_cfg(hurst_list=(0.25, 0.5, 0.75), resolutions=tuple(range(8, 15)),
                      reference_exponent=15, n_samples=1)
    run_samples_parallel("fbm", burgers_cfg(resolutions=(3,), reference_exponent=4))  # warm
    tracemalloc.start()
    try:
        write_csv(run_samples_parallel("fbm", cfg), tmp_path / "fbm.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "fbm.csv").read_bytes().splitlines()) == 1 + 3 * ((1 << 15) - (1 << 8))
    assert peak < 8 * 2**20
