"""Seeded ensemble studies: convergence rates, initial-data scaling of TV and
the one-sided Lipschitz seminorm, TV decay in time, bound sharpness, and the
raw fields (a single solver trajectory, and the fBm initial data).  A ``StudyConfig``
settles each of its fields once, and builds once the ``SchemeConfig`` its marches run.

Every study is one ``Study`` record in ``STUDIES``.  A study runs one task per
(hurst, sample); the ensemble studies draw the initial data once per sample
at the reference resolution and restrict it to the coarse grids, so all
resolutions see the same realization, while ``solve`` and ``fbm`` draw it
directly at each level.  The two per-cell tables (``solve``, ``fbm``) stay
arrays, one ``_CellBlock`` per level or frame, and their ``StudyResult.rows`` is a
read-only ``_CellRows`` view of those blocks.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._kernels import log
from .diagnostics import (
    default_beta,
    fit_rate,
    l1_distance,
    lip_bound_rhs,
    lip_plus,
    total_variation,
    tv_time_integral,
)
from .flux import FluxSpec, NumericalFluxSpec
from .initial_data import MAX_LEVEL, _unit_path, fbm_initial_field, sample_seed
from .mesh import CellField, Grid, _cell_means, make_grid
from .solver import Boundary, SchemeConfig, _check_snapshot_times, _check_steps, evolve


def _integer(name: str, value) -> int:
    try:  # a plain int, which json writes and a seed takes whole
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    scheme: SchemeConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        settle = functools.partial(object.__setattr__, self)
        settle("hurst_list", tuple(float(h) for h in self.hurst_list))
        settle("resolutions", tuple(_integer("resolutions", k) for k in self.resolutions))
        settle("snapshot_times", tuple(float(t) for t in self.snapshot_times))
        for name in ("reference_exponent", "n_samples", "base_seed"):
            settle(name, _integer(name, getattr(self, name)))
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
        settle("beta", None if self.beta is None else float(self.beta))
        if self.beta is not None and not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        # fail fast on scheme-level problems (cfl range, t_final, flux pairing)
        scheme = SchemeConfig(self.equation, self.numflux, self.t_final, self.cfl, self.boundary)
        for name, value in zip(("scheme", "equation", "numflux", "t_final", "cfl", "boundary"),
                               (scheme, scheme.flux, scheme.numflux, scheme.t_final, scheme.cfl,
                                scheme.boundary)):
            settle(name, value)
        _check_snapshot_times(self.snapshot_times, self.t_final)


class _CellBlock(NamedTuple):
    """The rows of one level or frame of a per-cell table: ``(*labels, x, u)``
    for each cell, with ``x`` the cell midpoints of ``grid`` and ``u`` ``values``."""

    labels: tuple
    grid: Grid
    values: np.ndarray


class _CellRows:
    """The row tuples of ``blocks``, the rows a per-cell study's ``sample`` would
    have built one at a time: ``len``, iteration and ``==`` with any sequence of
    rows behave as on that tuple.  The arrays themselves are ``blocks``, which
    ``cli.write_csv`` writes a block at a time."""

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    def __len__(self):
        return sum(block.grid.n_cells for block in self.blocks)

    def __iter__(self):
        for labels, grid, values in self.blocks:
            yield from zip(*(itertools.repeat(label, grid.n_cells) for label in labels),
                           grid.cell_midpoints().tolist(), values.tolist())

    def __eq__(self, other):
        if not isinstance(other, (Sequence, _CellRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


@dataclass(frozen=True)
class StudyResult:
    """A study's table: ``rows`` is a tuple of row tuples for the ensemble studies,
    and for ``fbm`` and ``solve`` a ``_CellRows`` view, which has ``len``, iteration
    and ``==`` and keeps the arrays in ``rows.blocks``."""

    study: str
    columns: Tuple[str, ...]
    rows: Union[Tuple[tuple, ...], _CellRows]
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
    kwargs["numflux"] = NumericalFluxSpec(data["numflux"], kwargs.pop("numflux_lambda", None))
    return StudyConfig(**kwargs)


def _field(cfg: StudyConfig, hurst: float, sample: int, k: int) -> CellField:
    """The sample's fBm initial data drawn directly on 2^k cells."""
    grid = make_grid(0.0, 1.0, 1 << k)
    return fbm_initial_field(hurst, grid, sample_seed(cfg.base_seed, sample))


def _reference(cfg: StudyConfig, hurst: float, sample: int):
    """The sample drawn once at ``reference_exponent``, as the cell values of
    ``fbm_initial_field`` (a view of the path, not a CellField), and a generator of
    ``(k, its restriction to 2^k cells)`` over the resolutions, built one at a time."""
    ref = cfg.reference_exponent
    values = _unit_path(hurst, ref, sample_seed(cfg.base_seed, sample))[:-1]
    levels = ((k, CellField(make_grid(0.0, 1.0, 1 << k), _cell_means(values, 1 << (ref - k))))
              for k in cfg.resolutions)
    return values, levels


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


def _slope_row(study, hurst, sample, slope, label="SLOPE"):
    """A summary row: ``label`` as its k, a blank in every measured column, the
    slope last."""
    blanks = (None,) * (len(STUDIES[study].columns) - 5)
    return (study, hurst, sample, label, *blanks, slope)


def _slope_ensemble(study, cfg, hurst, rows, label="SLOPE"):
    mean, std = _mean_std([slope for _, _, _, k, *_, slope in rows if k == label])
    return [_slope_row(study, hurst, "MEAN", mean, label),
            _slope_row(study, hurst, "STD", std, label)]


def _solve_sample(cfg, hurst, sample):
    """One trajectory on the coarsest grid: the initial data, each snapshot
    and the final state, each distinct time once."""
    k = cfg.resolutions[0]
    u0 = _field(cfg, hurst, sample, k)
    traj = evolve(u0, cfg.scheme, snapshot_times=cfg.snapshot_times)
    frames = {0.0: u0}
    for snap in traj.snapshots:
        frames.setdefault(snap.time, snap.field)
    frames.setdefault(float(traj.times[-1]), traj.final)
    return [_CellBlock(("solve", hurst, sample, k, float(t)), field.grid, field.values)
            for t, field in frames.items()]


def _fbm_sample(cfg, hurst, sample):
    blocks = []
    for k in cfg.resolutions:
        field = _field(cfg, hurst, sample, k)
        blocks.append(_CellBlock(("fbm", hurst, sample, k), field.grid, field.values))
    return blocks


def _converge_sample(cfg, hurst, sample):
    values, levels = _reference(cfg, hurst, sample)
    u0_ref = CellField(make_grid(0.0, 1.0, values.size), values)
    ref_final = evolve(u0_ref, cfg.scheme).final
    ks, points = [], []
    for k, u0_k in levels:
        ks.append(k)
        points.append((u0_k.grid.dx, l1_distance(evolve(u0_k, cfg.scheme).final, ref_final)))
    # log(error ratio) / log(dx ratio) of each level and the one before, where both
    # errors are positive; every ratio's log in one call
    rated = [i for i in range(1, len(points)) if points[i - 1][1] > 0 and points[i][1] > 0]
    ratios = [(points[i - 1][1] / points[i][1], points[i - 1][0] / points[i][0]) for i in rated]
    logs = log(np.reshape(ratios, (-1, 2)))  # shape (0, 2) when no level is rated
    rates = {i: float(num / den) for i, (num, den) in zip(rated, logs)}
    rows = [("converge", hurst, sample, k, float(dx), float(err), rates.get(i), None)
            for i, (k, (dx, err)) in enumerate(zip(ks, points))]
    rows.append(_slope_row("converge", hurst, sample, _slope_or_none(points), "RATE"))
    return rows


def _converge_ensemble(cfg, hurst, rows):
    out = []
    for k in cfg.resolutions:
        cells = [(dx, l1_error, rate_pairwise)
                 for _, _, _, row_k, dx, l1_error, rate_pairwise, _ in rows if row_k == k]
        dx, l1_error, rate_pairwise = zip(*cells)
        mean_pw, _ = _mean_std(rate_pairwise)
        out.append(("converge", hurst, "MEAN", k, dx[0], float(np.mean(l1_error)), mean_pw, None))
    return out + _slope_ensemble("converge", cfg, hurst, rows, "RATE")


def _fit_sample(study, measure, cfg, hurst, sample):
    """One row ``(study, hurst, sample, k, dx, *measure(cfg, k, u0_k), None)`` per
    restricted level, and a SLOPE row: the last measured value fitted against dx."""
    rows, points = [], []
    _, levels = _reference(cfg, hurst, sample)
    for k, u0_k in levels:
        values = measure(cfg, k, u0_k)
        rows.append((study, hurst, sample, k, float(u0_k.grid.dx), *values, None))
        points.append((u0_k.grid.dx, values[-1]))
    rows.append(_slope_row(study, hurst, sample, _slope_or_none(points)))
    return rows


def _tvdecay_sample(cfg, hurst, sample):
    periodic = cfg.boundary is Boundary.PERIODIC
    rows = []
    _, levels = _reference(cfg, hurst, sample)
    for k, u0_k in levels:
        traj = evolve(u0_k, cfg.scheme, snapshot_times=cfg.snapshot_times)
        for snap in traj.snapshots:
            tv = float(total_variation(snap.field, periodic=periodic))
            inv = None if tv == 0.0 else 1.0 / tv
            rows.append(("tvdecay", hurst, sample, k, float(snap.time), tv, inv))
    return rows


def _tvdecay_check(cfg):
    if not cfg.snapshot_times:
        raise ValueError("tvdecay requires nonempty snapshot_times")


def _sharpness_measure(cfg, k, u0_k):
    """Lip+ of the data, the TV time integral, the bound's right side and their ratio."""
    beta = cfg.beta if cfg.beta is not None else default_beta(cfg.equation, cfg.numflux.kind)
    traj = evolve(u0_k, cfg.scheme, track_tv=True)
    l0 = lip_plus(u0_k)
    rhs = lip_bound_rhs(beta, l0, traj.dt_used, float(traj.times[-1]))
    denom = tv_time_integral(traj)
    if denom <= 0:
        raise ValueError(f"zero time-integrated TV at k={k}")
    return float(l0), float(denom), float(rhs), float(rhs / denom)


def _sharpness_check(cfg):
    if cfg.t_final <= 0.0:  # the TV time integral in the ratio's denominator would be 0
        raise ValueError(f"sharpness needs t_final > 0, got {cfg.t_final}")
    if cfg.beta is None:
        default_beta(cfg.equation, cfg.numflux.kind)  # raises for unsupported pairs


@dataclass(frozen=True)
class Study:
    """One study of ``STUDIES``.

    ``sample(cfg, hurst, sample)`` returns the rows of one task and nothing
    else, or a per-cell study's ``_CellBlock`` list; ``ensemble(cfg, hurst,
    rows)`` reads the rows of one Hurst exponent's block and returns the rows
    that close it; ``check(cfg)`` raises ValueError for a config the study
    cannot run; ``tasks(cfg)`` lists the (hurst, sample) tasks, grouped by
    Hurst exponent in config order; ``marched(cfg)``, for a study that marches, is
    the level k of the finest grid it marches on.
    """

    columns: Tuple[str, ...]
    sample: Callable[[StudyConfig, float, int], list]
    ensemble: Callable[[StudyConfig, float, list], list] = lambda cfg, hurst, rows: []
    check: Callable[[StudyConfig], None] = lambda cfg: None
    tasks: Callable[[StudyConfig], list] = lambda cfg: [
        (h, s) for h in cfg.hurst_list for s in range(cfg.n_samples)]
    marched: Optional[Callable[[StudyConfig], int]] = None


_KEY = ("study", "hurst", "sample", "k")

# The measures are looked up at call time, so that a wrapper put on this
# module's ``total_variation`` or ``lip_plus`` (a profiler's) sees each call.
STUDIES: dict[str, Study] = {
    "solve": Study((*_KEY, "time", "x", "u"), _solve_sample,
                   tasks=lambda cfg: [(cfg.hurst_list[0], 0)],
                   marched=lambda cfg: cfg.resolutions[0]),
    "fbm": Study((*_KEY, "x", "u"), _fbm_sample),
    "converge": Study((*_KEY, "dx", "l1_error", "rate_pairwise", "rate_regression"),
                      _converge_sample, _converge_ensemble,
                      marched=lambda cfg: cfg.reference_exponent),
    "tvscale": Study((*_KEY, "dx", "tv", "slope"),
                     functools.partial(_fit_sample, "tvscale",
                                       lambda cfg, k, u: (float(total_variation(u)),)),
                     functools.partial(_slope_ensemble, "tvscale")),
    "lipscale": Study((*_KEY, "dx", "lip_plus", "slope"),
                      functools.partial(_fit_sample, "lipscale",
                                        lambda cfg, k, u: (float(lip_plus(u)),)),
                      functools.partial(_slope_ensemble, "lipscale")),
    "tvdecay": Study((*_KEY, "time", "tv", "inv_tv"), _tvdecay_sample, check=_tvdecay_check,
                     marched=lambda cfg: cfg.resolutions[-1]),
    "sharpness": Study((*_KEY, "dx", "lip_plus_0", "tv_time_integral", "bound_rhs", "ratio",
                        "slope"),
                       functools.partial(_fit_sample, "sharpness", _sharpness_measure),
                       functools.partial(_slope_ensemble, "sharpness"),
                       check=_sharpness_check, marched=lambda cfg: cfg.resolutions[-1]),
}


def check_study(study: str, cfg: StudyConfig) -> None:
    """Raise ValueError for an unknown study or a config it cannot run."""
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}; expected one of {sorted(STUDIES)}")
    spec = STUDIES[study]
    spec.check(cfg)
    if spec.marched is not None:
        # fBm data lie in [-1, 1], where |f'| <= 1 for every law, so a march on 2^k
        # cells takes steps of at least cfl * 2^-k: evolve would refuse no longer one
        _check_steps(cfg.t_final, cfg.cfl * 2.0 ** -spec.marched(cfg))


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
    """Rows (a per-cell study's blocks) of the ``(task, rows)`` pairs in task
    order, each Hurst block closed by the ensemble rows read from that block's rows.

    The pairs are consumed one at a time and nothing refers to them once this
    returns, so each task's row list is freed once copied.
    """
    rows = []
    for hurst, block in itertools.groupby(done, key=lambda pair: pair[0][0]):
        start = len(rows)
        for _, sample_rows in block:
            rows.extend(sample_rows)
        rows.extend(spec.ensemble(cfg, hurst, rows[start:]))
    return rows


def run_samples_parallel(study: str, cfg: StudyConfig, workers: int = 1) -> StudyResult:
    """Run one study of ``STUDIES`` over its (hurst, sample) tasks, on a pool of
    ``min(workers, len(tasks))`` threads, or in this thread if that is 1.  Threads
    are safe: the loader's cache is the only mutable module state, numpy's error
    state is per thread, the C kernels hold no state and each task builds its own
    ``SplitMix64``.  Rows are assembled in task order, so they are bit-identical for
    any worker count; failures carry the sample identity.
    """
    check_study(study, cfg)
    spec = STUDIES[study]
    tasks = spec.tasks(cfg)
    runner = functools.partial(_run_one, study, cfg)
    workers = min(workers, len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = _assemble(spec, cfg, zip(tasks, pool.map(runner, tasks)))
    else:
        rows = _assemble(spec, cfg, zip(tasks, map(runner, tasks)))

    metadata = {
        "config": config_to_dict(cfg),
        "sample_seeds": [sample_seed(cfg.base_seed, s) for s in sorted({s for _, s in tasks})],
    }
    rows = _CellRows(rows) if rows and isinstance(rows[0], _CellBlock) else tuple(rows)
    return StudyResult(study=study, columns=spec.columns, rows=rows, metadata=metadata)
