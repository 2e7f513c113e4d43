"""Per-module tracing from outside the package, and the per-call layer table.

``install`` replaces the public functions of each roughwave module, wherever
the package has bound them, with wrappers that time each call and count the
work it was given; the returned function puts the originals back.  Spans are
aggregated in memory (calls, inclusive seconds, self seconds) rather than
kept one by one, because a solver run makes hundreds of thousands of them.
Self time is a span's duration minus the time its traced child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = defaultdict(float)
        self._children = []  # child time accumulated by each open span

    def reset(self):
        self.__init__()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                child = self._children.pop()
                self.calls[name] += 1
                self.total[name] += spent
                self.own[name] += spent - child
                if self._children:
                    self._children[-1] += spent
            if count is not None:
                count(self.counts, args, kwargs)
            return result

        return traced


def _count_path_points(counts, args, kwargs):
    counts["path_points"] += args[1].n_cells + 1  # the package passes the grid second


def _count_faces(counts, args, kwargs):
    counts["faces"] += np.size(args[2])


def _count_cell_updates(counts, args, kwargs):
    counts["cell_updates"] += args[0].grid.n_cells


def _count_tasks(counts, args, kwargs):
    cfg = args[1]
    counts["tasks"] += len(cfg.hurst_list) * cfg.n_samples


def _count_csv(counts, args, kwargs):
    counts["csv_rows"] += len(args[0].rows)
    counts["csv_bytes"] += os.path.getsize(args[1])


def targets():
    """(span name, module, attribute, counter) for every traced function."""
    from roughwave import cli, diagnostics, experiments, flux, initial_data, mesh, solver

    return [
        ("initial_data.fbm_initial_field", initial_data, "fbm_initial_field", _count_path_points),
        ("mesh.restrict", mesh, "restrict", None),
        ("flux.numerical_flux", flux, "numerical_flux", _count_faces),
        ("solver.evolve", solver, "evolve", None),
        ("solver.step", solver, "step", _count_cell_updates),
        ("diagnostics.total_variation", diagnostics, "total_variation", None),
        ("diagnostics.lip_plus", diagnostics, "lip_plus", None),
        ("diagnostics.l1_distance", diagnostics, "l1_distance", None),
        ("diagnostics.tv_time_integral", diagnostics, "tv_time_integral", None),
        ("diagnostics.fit_rate", diagnostics, "fit_rate", None),
        ("experiments.run_samples_parallel", experiments, "run_samples_parallel", _count_tasks),
        ("cli.parse_config", cli, "parse_config", None),
        ("cli.write_csv", cli, "write_csv", _count_csv),
    ]


def install(tracer: Tracer):
    """Wrap every target wherever a roughwave module holds it; return an undo."""
    from roughwave import mesh

    undo = []
    modules = [m for name, m in sys.modules.items()
               if name == "roughwave" or name.startswith("roughwave.")]
    for name, module, attr, count in targets():
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))
    init = mesh.CellField.__init__
    mesh.CellField.__init__ = tracer.wrap("mesh.cellfield", init)
    undo.append((mesh.CellField, "__init__", init))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def _rate(numerator, seconds):
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-module figures of one traced round; a rate with no work reads 0."""
    c = t.counts
    return {
        "initial_data.fbm_initial_field.calls": t.calls["initial_data.fbm_initial_field"],
        "initial_data.fbm_initial_field.s": t.total["initial_data.fbm_initial_field"],
        "initial_data.path_points": c["path_points"],
        "initial_data.path_points_per_s": _rate(c["path_points"], t.total["initial_data.fbm_initial_field"]),
        "mesh.restrict.calls": t.calls["mesh.restrict"],
        "mesh.restrict.s": t.total["mesh.restrict"],
        "mesh.cellfield.calls": t.calls["mesh.cellfield"],
        "mesh.cellfield.s": t.total["mesh.cellfield"],
        "flux.numerical_flux.calls": t.calls["flux.numerical_flux"],
        "flux.numerical_flux.s": t.total["flux.numerical_flux"],
        "flux.faces": c["faces"],
        "flux.ns_per_face": 1e9 * _rate(t.total["flux.numerical_flux"], c["faces"]),
        "solver.evolve.calls": t.calls["solver.evolve"],
        "solver.evolve.self_s": t.own["solver.evolve"],
        "solver.step.calls": t.calls["solver.step"],
        "solver.step.self_s": t.own["solver.step"],
        "solver.cell_updates": c["cell_updates"],
        "solver.cell_updates_per_s": _rate(c["cell_updates"], t.total["solver.evolve"]),
        "diagnostics.total_variation.calls": t.calls["diagnostics.total_variation"],
        "diagnostics.total_variation.s": t.total["diagnostics.total_variation"],
        "diagnostics.lip_plus.calls": t.calls["diagnostics.lip_plus"],
        "diagnostics.lip_plus.s": t.total["diagnostics.lip_plus"],
        "diagnostics.l1_distance.s": t.total["diagnostics.l1_distance"],
        "diagnostics.tv_time_integral.s": t.total["diagnostics.tv_time_integral"],
        "diagnostics.fit_rate.s": t.total["diagnostics.fit_rate"],
        "experiments.tasks": c["tasks"],
        "experiments.run_samples_parallel.self_s": t.own["experiments.run_samples_parallel"],
        "cli.parse_config.s": t.total["cli.parse_config"],
        "cli.write_csv.calls": t.calls["cli.write_csv"],
        "cli.write_csv.s": t.total["cli.write_csv"],
        "cli.csv_rows": c["csv_rows"],
        "cli.csv_bytes": c["csv_bytes"],
        "cli.csv_mib_per_s": _rate(c["csv_bytes"] / 2**20, t.total["cli.write_csv"]),
    }


# ---- per-call layer table ----------------------------------------------------

MICRO_SIZES = (10, 12, 14)
MICRO_FLUX_EXPONENT = 12  # 2^12 + 1 faces
MICRO_BUDGET_S = 0.06  # timed calls per entry, after one warm-up call


def per_call_s(fn, budget=MICRO_BUDGET_S) -> float:
    """Median seconds per call over batches of calls filling ``budget``."""
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    batch = max(1, int(0.005 / max(once, 1e-9)))
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def micro_metrics(out_dir) -> dict:
    """``micro.*``: one call of each layer at k = 10, 12, 14, and every flux pair."""
    import roughwave as rw
    from roughwave.cli import write_csv
    from roughwave.experiments import StudyResult

    scheme = rw.SchemeConfig(rw.FluxSpec.BURGERS, rw.NumericalFluxSpec(rw.NumFluxKind.GODUNOV),
                             t_final=1.0)
    out = {}
    for k in MICRO_SIZES:
        grid = rw.make_grid(0.0, 1.0, 1 << k)
        field = rw.fbm_initial_field(0.5, grid, 2024)
        dt = rw.cfl_timestep(grid, scheme.flux, -1.0, 1.0, scheme.cfl)
        rows = tuple(("fbm", 0.5, 0, k, float(x), float(u))
                     for x, u in zip(grid.cell_midpoints(), field.values))
        table = StudyResult("fbm", ("study", "hurst", "sample", "k", "x", "u"), rows, {})
        csv_path = os.path.join(out_dir, f"micro_k{k}.csv")
        layers = {
            "fbm": lambda: rw.fbm_initial_field(0.5, grid, 2024),
            "restrict": lambda: rw.restrict(field, 2),
            "step": lambda: rw.step(field, scheme, dt),
            "total_variation": lambda: rw.total_variation(field),
            "cellfield": lambda: rw.CellField(grid, field.values),
            "write_csv": lambda: write_csv(table, csv_path),
        }
        for layer, fn in layers.items():
            out[f"micro.{layer}.k{k}.us_per_call"] = 1e6 * per_call_s(fn)

    u = rw.fbm_initial_field(0.5, rw.make_grid(0.0, 1.0, 1 << MICRO_FLUX_EXPONENT), 2024).values
    a, b = np.concatenate((u[:1], u)), np.concatenate((u, u[-1:]))
    for kind, lam, equations in FLUX_PAIRS:
        numflux = rw.NumericalFluxSpec(rw.NumFluxKind(kind), lam)
        for eq in equations:
            spec = rw.FluxSpec(eq)
            seconds = per_call_s(lambda: rw.numerical_flux(numflux, spec, a, b))
            out[f"micro.flux.{kind}.{eq}.ns_per_face"] = 1e9 * seconds / a.size
    return out


LAWS = ("burgers", "cubic", "linear")
FLUX_PAIRS = (  # (numflux, lambda, equations): the 13 pairings the package accepts
    ("godunov", None, LAWS),
    ("rusanov", None, LAWS),
    ("engquist_osher", None, LAWS),
    ("lax_friedrichs", 0.5, LAWS),
    ("upwind", None, ("linear",)),
)
