"""Seeded ensemble studies: convergence rates, initial-data scaling of TV and
the one-sided Lipschitz seminorm, TV decay in time, bound sharpness, and the
raw fields (a single solver trajectory, and the fBm initial data).

Every study is one ``Study`` record in ``STUDIES``.  A study runs one task per
(hurst, sample); the ensemble studies draw the initial data once per sample
at the reference resolution and restrict it to the coarse grids, so all
resolutions see the same realization, while ``solve`` and ``fbm`` draw it
directly at each level.  Rows are assembled in a fixed (hurst, sample, k)
order and per-sample seeds are derived deterministically, which makes results
bit-identical regardless of the worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import __version__
from .diagnostics import (
    BoundInputs,
    default_beta,
    fit_rate,
    l1_distance,
    lip_bound_rhs,
    lip_plus,
    total_variation,
    tv_time_integral,
)
from .flux import FluxSpec, NumericalFluxSpec, NumFluxKind
from .initial_data import MAX_LEVEL, fbm_initial_field, sample_seed
from .mesh import CellField, make_grid, restrict
from .solver import Boundary, SchemeConfig, _check_snapshot_times, evolve


@dataclass(frozen=True)
class StudyConfig:
    equation: FluxSpec
    numflux: NumericalFluxSpec
    hurst_list: Tuple[float, ...]
    resolutions: Tuple[int, ...]
    reference_exponent: int
    n_samples: int
    base_seed: int
    t_final: float = 1.0
    cfl: float = 0.5
    boundary: Boundary = Boundary.OUTFLOW
    snapshot_times: Tuple[float, ...] = ()
    beta: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "hurst_list", tuple(float(h) for h in self.hurst_list))
        object.__setattr__(self, "resolutions", tuple(int(k) for k in self.resolutions))
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))
        if not self.hurst_list:
            raise ValueError("hurst_list must not be empty")
        if any(not 0.0 < h < 1.0 for h in self.hurst_list):
            raise ValueError(f"Hurst exponents must lie in (0, 1), got {self.hurst_list}")
        if len(set(self.hurst_list)) != len(self.hurst_list):
            raise ValueError(f"Hurst exponents must be distinct, got {self.hurst_list}")
        if not self.resolutions:
            raise ValueError("resolutions must not be empty")
        if any(k < 1 for k in self.resolutions):
            raise ValueError(f"resolution exponents must be >= 1, got {self.resolutions}")
        if list(self.resolutions) != sorted(set(self.resolutions)):
            raise ValueError("resolutions must be strictly increasing")
        if not max(self.resolutions) < self.reference_exponent <= MAX_LEVEL:
            raise ValueError(
                f"reference_exponent={self.reference_exponent} must exceed "
                f"every resolution in {self.resolutions} and be at most {MAX_LEVEL}"
            )
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.beta is not None and not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        # fail fast on scheme-level problems (cfl range, t_final, flux pairing)
        _scheme(self)
        _check_snapshot_times(self.snapshot_times, self.t_final)


@dataclass(frozen=True)
class StudyResult:
    study: str
    columns: Tuple[str, ...]
    rows: Tuple[tuple, ...]
    metadata: dict


def config_to_dict(cfg: StudyConfig) -> dict:
    """JSON-ready view of a study configuration."""
    return {
        "equation": cfg.equation.value,
        "numflux": cfg.numflux.kind.value,
        "numflux_lambda": cfg.numflux.lam,
        "hurst": list(cfg.hurst_list),
        "resolutions": list(cfg.resolutions),
        "reference_exponent": cfg.reference_exponent,
        "t_final": cfg.t_final,
        "samples": cfg.n_samples,
        "base_seed": cfg.base_seed,
        "cfl": cfg.cfl,
        "boundary": cfg.boundary.value,
        "snapshot_times": list(cfg.snapshot_times),
        "beta": cfg.beta,
    }


def config_from_dict(data: dict) -> StudyConfig:
    """Rebuild a StudyConfig from its ``config_to_dict`` form (manifests, parsed
    config files); a key left out takes StudyConfig's default."""
    renamed = {"hurst": "hurst_list", "samples": "n_samples"}
    kwargs = {renamed.get(key, key): value for key, value in data.items()}
    kwargs["equation"] = FluxSpec(data["equation"])
    kwargs["numflux"] = NumericalFluxSpec(
        NumFluxKind(data["numflux"]), kwargs.pop("numflux_lambda", None)
    )
    if "boundary" in data:
        kwargs["boundary"] = Boundary(data["boundary"])
    return StudyConfig(**kwargs)


def _scheme(cfg: StudyConfig) -> SchemeConfig:
    return SchemeConfig(
        flux=cfg.equation,
        numflux=cfg.numflux,
        t_final=cfg.t_final,
        cfl=cfg.cfl,
        boundary=cfg.boundary,
    )


def _field(cfg: StudyConfig, hurst: float, sample: int, k: int) -> CellField:
    """The sample's fBm initial data drawn directly on 2^k cells."""
    grid = make_grid(0.0, 1.0, 1 << k)
    return fbm_initial_field(hurst, grid, sample_seed(cfg.base_seed, sample))


def _reference(cfg: StudyConfig, hurst: float, sample: int):
    """The sample drawn once at ``reference_exponent``, and a generator of
    ``(k, its restriction to 2^k cells)`` over the resolutions, built one at a time."""
    u0_ref = _field(cfg, hurst, sample, cfg.reference_exponent)
    levels = ((k, restrict(u0_ref, 1 << (cfg.reference_exponent - k))) for k in cfg.resolutions)
    return u0_ref, levels


def _slope_or_none(points) -> Optional[float]:
    usable = [(h, e) for h, e in points if h > 0 and e > 0]
    if len(usable) < 2:
        return None
    return fit_rate(usable)[0]


def _mean_std(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return mean, std


def _slope_row(study, hurst, sample, slope):
    """A SLOPE row: its labels, a blank in every measured column, the slope last."""
    blanks = (None,) * (len(STUDIES[study].columns) - 5)
    return (study, hurst, sample, "SLOPE", *blanks, slope)


def _slope_ensemble(study, cfg, hurst, summaries):
    mean, std = _mean_std([s["slope"] for s in summaries])
    return [_slope_row(study, hurst, "MEAN", mean), _slope_row(study, hurst, "STD", std)]


def _solve_sample(cfg, hurst, sample):
    """One trajectory on the coarsest grid: the initial data, each snapshot
    and the final state, each distinct time once."""
    k = cfg.resolutions[0]
    u0 = _field(cfg, hurst, sample, k)
    traj = evolve(u0, _scheme(cfg), snapshot_times=cfg.snapshot_times)
    frames = {0.0: u0}
    for snap in traj.snapshots:
        frames.setdefault(snap.time, snap.field)
    frames.setdefault(float(traj.times[-1]), traj.final)
    rows = []
    for t, field in frames.items():
        rows.extend(_cell_rows(("solve", hurst, sample, k, float(t)), field))
    return rows, {}


def _fbm_sample(cfg, hurst, sample):
    rows = []
    for k in cfg.resolutions:
        field = _field(cfg, hurst, sample, k)
        rows.extend(_cell_rows(("fbm", hurst, sample, k), field))
    return rows, {}


def _cell_rows(labels, field):
    """One row per cell, built in C: the labels, the cell midpoint, the value."""
    n, mids = field.grid.n_cells, field.grid.cell_midpoints()
    return zip(*(itertools.repeat(label, n) for label in labels), mids.tolist(),
               field.values.tolist())


def _converge_sample(cfg, hurst, sample):
    scheme = _scheme(cfg)
    u0_ref, levels = _reference(cfg, hurst, sample)
    ref_final = evolve(u0_ref, scheme).final
    data = []
    for k, u0_k in levels:
        final_k = evolve(u0_k, scheme).final
        data.append((k, u0_k.grid.dx, l1_distance(final_k, ref_final)))

    rows = []
    pairwise = {}
    prev = None
    for k, dx, err in data:
        rate = None
        if prev is not None and err > 0 and prev[1] > 0:
            rate = math.log(prev[1] / err) / math.log(prev[0] / dx)
        pairwise[k] = rate
        rows.append(("converge", hurst, sample, k, float(dx), float(err),
                     None if rate is None else float(rate), None))
        prev = (dx, err)
    regression = _slope_or_none([(dx, err) for _, dx, err in data])
    rows.append(("converge", hurst, sample, "RATE", None, None, None, regression))
    summary = {
        "rate": regression,
        "errors": {k: err for k, _, err in data},
        "pairwise": pairwise,
        "dx": {k: dx for k, dx, _ in data},
    }
    return rows, summary


def _converge_ensemble(cfg, hurst, summaries):
    rows = []
    for k in cfg.resolutions:
        errs = [s["errors"][k] for s in summaries]
        mean_pw, _ = _mean_std([s["pairwise"][k] for s in summaries])
        dx = summaries[0]["dx"][k]
        rows.append(("converge", hurst, "MEAN", k, float(dx), float(np.mean(errs)), mean_pw, None))
    mean, std = _mean_std([s["rate"] for s in summaries])
    rows.append(("converge", hurst, "MEAN", "RATE", None, None, None, mean))
    rows.append(("converge", hurst, "STD", "RATE", None, None, None, std))
    return rows


def _scaling_sample(study, measure, cfg, hurst, sample):
    rows = []
    points = []
    _, levels = _reference(cfg, hurst, sample)
    for k, u0_k in levels:
        val = float(measure(u0_k))
        rows.append((study, hurst, sample, k, float(u0_k.grid.dx), val, None))
        points.append((u0_k.grid.dx, val))
    slope = _slope_or_none(points)
    rows.append(_slope_row(study, hurst, sample, slope))
    return rows, {"slope": slope}


def _tvdecay_sample(cfg, hurst, sample):
    scheme = _scheme(cfg)
    periodic = cfg.boundary is Boundary.PERIODIC
    rows = []
    _, levels = _reference(cfg, hurst, sample)
    for k, u0_k in levels:
        traj = evolve(u0_k, scheme, snapshot_times=cfg.snapshot_times)
        for snap in traj.snapshots:
            tv = float(total_variation(snap.field, periodic=periodic))
            inv = None if tv == 0.0 else 1.0 / tv
            rows.append(("tvdecay", hurst, sample, k, float(snap.time), tv, inv))
    return rows, {}


def _tvdecay_check(cfg):
    if not cfg.snapshot_times:
        raise ValueError("tvdecay requires nonempty snapshot_times")


def _sharpness_sample(cfg, hurst, sample):
    beta = cfg.beta if cfg.beta is not None else default_beta(cfg.equation, cfg.numflux.kind)
    scheme = _scheme(cfg)
    rows = []
    points = []
    _, levels = _reference(cfg, hurst, sample)
    for k, u0_k in levels:
        traj = evolve(u0_k, scheme, track_tv=True)
        bound = BoundInputs(
            beta=beta,
            lip_plus_0=lip_plus(u0_k),
            dt=traj.dt_used,
            t_n=float(traj.times[-1]),
            m_support=0.5,
        )
        rhs = lip_bound_rhs(bound)
        denom = tv_time_integral(traj)
        if denom <= 0:
            raise ValueError(f"zero time-integrated TV at k={k}")
        ratio = rhs / denom
        rows.append(("sharpness", hurst, sample, k, float(u0_k.grid.dx),
                     float(bound.lip_plus_0), float(denom), float(rhs), float(ratio), None))
        points.append((u0_k.grid.dx, ratio))
    slope = _slope_or_none(points)
    rows.append(_slope_row("sharpness", hurst, sample, slope))
    return rows, {"slope": slope}


def _sharpness_check(cfg):
    if cfg.t_final <= 0.0:  # the TV time integral in the ratio's denominator would be 0
        raise ValueError(f"sharpness needs t_final > 0, got {cfg.t_final}")
    if cfg.beta is None:
        default_beta(cfg.equation, cfg.numflux.kind)  # raises for unsupported pairs


@dataclass(frozen=True)
class Study:
    """One study of ``STUDIES``.

    ``sample(cfg, hurst, sample)`` returns the rows of one task and a summary;
    ``ensemble(cfg, hurst, summaries)`` returns the rows that close the block
    of one Hurst exponent; ``check(cfg)`` raises ValueError for a config the
    study cannot run; ``tasks(cfg)`` lists the (hurst, sample) tasks, grouped
    by Hurst exponent in config order.
    """

    columns: Tuple[str, ...]
    sample: Callable[[StudyConfig, float, int], Tuple[list, dict]]
    ensemble: Callable[[StudyConfig, float, list], list] = lambda cfg, hurst, summaries: []
    check: Callable[[StudyConfig], None] = lambda cfg: None
    tasks: Callable[[StudyConfig], list] = lambda cfg: [
        (h, s) for h in cfg.hurst_list for s in range(cfg.n_samples)]


_KEY = ("study", "hurst", "sample", "k")

# The measures are looked up at call time, so that a wrapper put on this
# module's ``total_variation`` or ``lip_plus`` (a profiler's) sees each call.
STUDIES: dict[str, Study] = {
    "solve": Study((*_KEY, "time", "x", "u"), _solve_sample,
                   tasks=lambda cfg: [(cfg.hurst_list[0], 0)]),
    "fbm": Study((*_KEY, "x", "u"), _fbm_sample),
    "converge": Study((*_KEY, "dx", "l1_error", "rate_pairwise", "rate_regression"),
                      _converge_sample, _converge_ensemble),
    "tvscale": Study((*_KEY, "dx", "tv", "slope"),
                     functools.partial(_scaling_sample, "tvscale", lambda u: total_variation(u)),
                     functools.partial(_slope_ensemble, "tvscale")),
    "lipscale": Study((*_KEY, "dx", "lip_plus", "slope"),
                      functools.partial(_scaling_sample, "lipscale", lambda u: lip_plus(u)),
                      functools.partial(_slope_ensemble, "lipscale")),
    "tvdecay": Study((*_KEY, "time", "tv", "inv_tv"), _tvdecay_sample, check=_tvdecay_check),
    "sharpness": Study((*_KEY, "dx", "lip_plus_0", "tv_time_integral", "bound_rhs", "ratio",
                        "slope"),
                       _sharpness_sample, functools.partial(_slope_ensemble, "sharpness"),
                       check=_sharpness_check),
}


def check_study(study: str, cfg: StudyConfig) -> None:
    """Raise ValueError for an unknown study or a config it cannot run."""
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}; expected one of {sorted(STUDIES)}")
    STUDIES[study].check(cfg)


def _run_one(study: str, cfg: StudyConfig, task: Tuple[float, int]):
    hurst, sample = task
    try:
        return STUDIES[study].sample(cfg, hurst, sample)
    except Exception as exc:
        seed = sample_seed(cfg.base_seed, sample)
        raise RuntimeError(
            f"{study} sample {sample} (hurst={hurst}, seed={seed}) failed: {exc}"
        ) from exc


def _assemble(spec: Study, cfg: StudyConfig, done) -> list:
    """Rows of the ``(task, (rows, summary))`` pairs in task order, each Hurst
    block closed by its ensemble rows.

    The pairs are consumed one at a time and nothing refers to them once this
    returns, so each task's row list is freed once copied.
    """
    rows = []
    for hurst, block in itertools.groupby(done, key=lambda pair: pair[0][0]):
        summaries = []
        for _, (sample_rows, summary) in block:
            rows.extend(sample_rows)
            summaries.append(summary)
        rows.extend(spec.ensemble(cfg, hurst, summaries))
    return rows


def run_samples_parallel(study: str, cfg: StudyConfig, workers: int = 1) -> StudyResult:
    """Run one study of ``STUDIES`` over its (hurst, sample) tasks.

    Rows come out in a fixed order and are bit-identical for any worker
    count; failures carry the sample identity.
    """
    check_study(study, cfg)
    spec = STUDIES[study]
    tasks = spec.tasks(cfg)
    runner = functools.partial(_run_one, study, cfg)
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = _assemble(spec, cfg, zip(tasks, pool.map(runner, tasks)))
    else:
        rows = _assemble(spec, cfg, zip(tasks, map(runner, tasks)))

    metadata = {
        "study": study,
        "version": __version__,
        "config": config_to_dict(cfg),
        "sample_seeds": [sample_seed(cfg.base_seed, s) for s in sorted({s for _, s in tasks})],
    }
    return StudyResult(study=study, columns=spec.columns, rows=tuple(rows), metadata=metadata)
