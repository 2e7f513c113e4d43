"""The compiled kernels of ``_march.c`` against their numpy code.

- For all 13 (numflux, law) pairs under both boundaries, ``evolve`` gives the
  same bits under both marches: time points, final state, every snapshot and
  the per-step TV, or the same exception.  On states that hold inf and nan,
  the two block marches leave the same cells inf and nan.  The data hold signed zeros,
  subnormals and magnitudes up to 1e150; runs end on a short last step or on a
  whole one, snapshots fall on 64-step block ends, and t_final can be 0.
- The C total variation equals ``diagnostics._variation`` (numpy's pairwise
  sum) at every length up to 300 and at the lengths where the pairwise
  recursion splits.
- The C cell means equal ``values.reshape(-1, factor).mean(axis=1)`` byte for
  byte, on signed zeros, subnormals and magnitudes from 1e-300 to 1e300, for
  factors 1-4096 and for many rows of 2-128 cells.
- Without a compiler, or without a writable cache, ``evolve``, the fBm draw and
  the restriction run their numpy code with the same bits, and the manifest says
  so; two processes building into one empty cache both succeed and leave one
  library and no temporary file; the cache directory is private (0700).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roughwave
import roughwave.solver as solver
from roughwave import (
    Boundary,
    CellField,
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    SchemeConfig,
    cfl_timestep,
    evolve,
    fbm_initial_field,
    _kernels,
    make_grid,
    restrict,
)
from roughwave.cli import run
from roughwave.diagnostics import _variation

PAIRS = [
    (kind, spec)
    for kind in NumFluxKind
    for spec in FluxSpec
    if kind is not NumFluxKind.UPWIND or spec is FluxSpec.LINEAR
]
PAIR_IDS = [f"{kind.value}-{spec.value}" for kind, spec in PAIRS]

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, 1.4e-154, -1.6e-154,
           0.5, -1.0, 3.0]
moderate = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0), st.floats(-1e-300, 1e-300))
values = st.one_of(moderate, st.sampled_from([1e150, -1e150, 3.7e149]), st.floats(-1e150, 1e150))
# squares of these round into the subnormal range, where 0.5*(u*u) and (0.5*u)*u differ
tiny = st.one_of(st.sampled_from(SPECIAL[:9]), st.floats(-1.5e-154, 1.5e-154))
# one huge cell makes the CFL step of a nonlinear law so small that t_final falls
# within the 1e-12 time guard, where no step could reach it: SchemeConfig rejects it
states = st.one_of(*(arrays(np.float64, st.integers(1, 24), elements=e)
                     for e in (moderate, values, tiny)))
bit_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def compiled_march():
    lib = _kernels.load()
    if lib is None:
        pytest.skip("no C compiler: evolve runs the numpy march only")
    return lib


def outcome(u0, cfg, snapshot_times, track_tv):
    """Every bit of an ``evolve`` run, or its exception's type and message."""
    try:
        traj = evolve(u0, cfg, snapshot_times=snapshot_times, track_tv=track_tv)
    except (FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    tv = None if traj.per_step_tv is None else traj.per_step_tv.tobytes()
    return (traj.times.tobytes(), traj.final.values.tobytes(), tv, traj.dt_used,
            [(s.time, s.field.values.tobytes()) for s in traj.snapshots])


@pytest.mark.parametrize("boundary", list(Boundary), ids=[b.value for b in Boundary])
@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@bit_settings
@given(v=states, steps=st.integers(0, 200), short=st.sampled_from([0.0, 0.5, 0.999]),
       picks=st.lists(st.integers(0, 201), max_size=4), track_tv=st.booleans(),
       lam=st.sampled_from([None, 0.4, 1e-3]))
def test_compiled_march_equals_numpy_march(kind, spec, boundary, v, steps, short, picks,
                                           track_tv, lam):
    compiled_march()
    u0 = CellField(make_grid(0.0, 1.0, v.size), v)
    dt = cfl_timestep(u0.grid, spec, float(v.min()), float(v.max()), 0.5)
    t_final = dt * (steps + short) if np.isfinite(dt * (steps + 1)) else 1.0
    numflux = NumericalFluxSpec(kind, lam if kind is NumFluxKind.LAX_FRIEDRICHS else None)
    try:
        cfg = SchemeConfig(spec, numflux, t_final=t_final, boundary=boundary)
    except ValueError:
        assert 0.0 < t_final <= 1e-12
        return
    # the time points of the run, so that snapshots can fall on 64-step block ends
    times = solver._schedule(dt, t_final, 1e-12 * max(1.0, t_final))[0]
    ends = [times[i] for i in (63, 127, 191) if i < times.size]
    snapshot_times = sorted({*ends, *(times[min(i, times.size - 1)] for i in picks)})

    compiled = outcome(u0, cfg, snapshot_times, track_tv)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernels, "load", lambda: None)
        assert outcome(u0, cfg, snapshot_times, track_tv) == compiled


def canonical_bits(x):
    """The bytes of ``x`` with every NaN as numpy's one quiet NaN."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


@pytest.mark.parametrize("boundary", list(Boundary), ids=[b.value for b in Boundary])
@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@bit_settings
@given(v=arrays(np.float64, st.integers(1, 24),
                elements=st.one_of(values, st.sampled_from([np.nan, np.inf, -np.inf]))),
       count=st.integers(1, 6), ratio=st.sampled_from([0.5, 1e-3, 7.0]))
def test_march_kernels_agree_on_non_finite_states(kind, spec, boundary, v, count, ratio):
    # a blow-up is found only at the end of a block: until then both marches carry
    # the same inf and nan cells, so the cell and the step they report agree
    compiled_march()
    numflux = NumericalFluxSpec(kind, 0.3 if kind is NumFluxKind.LAX_FRIEDRICHS else None)
    cfg = SchemeConfig(spec, numflux, t_final=1.0, boundary=boundary)
    results = []
    for march in (solver._compiled_march, solver._numpy_march):
        cells = np.empty((2, v.size + 2))
        cells[0, 1:-1] = v
        tv = np.empty(count)
        with np.errstate(invalid="ignore", over="ignore"):
            march(cells, count, ratio, numflux, cfg, tv)
        results.append([canonical_bits(x) for x in (cells[count % 2, 1:-1], tv)])
    assert results[0] == results[1]


def test_marches_agree_on_fbm_runs_with_many_blocks(monkeypatch):
    compiled_march()
    u0 = fbm_initial_field(0.25, make_grid(0.0, 1.0, 512), 7)
    for spec, kind, boundary in [(FluxSpec.BURGERS, NumFluxKind.GODUNOV, Boundary.OUTFLOW),
                                 (FluxSpec.CUBIC, NumFluxKind.RUSANOV, Boundary.PERIODIC)]:
        cfg = SchemeConfig(spec, NumericalFluxSpec(kind), t_final=0.3, boundary=boundary)
        compiled = outcome(u0, cfg, (0.0, 0.1, 0.2), True)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "load", lambda: None)
            assert outcome(u0, cfg, (0.0, 0.1, 0.2), True) == compiled
        assert np.frombuffer(compiled[0]).size > 3 * 64


@pytest.mark.parametrize("periodic", [False, True])
def test_c_variation_equals_numpy_pairwise_sum(periodic):
    variation = compiled_march().variation
    rng = np.random.default_rng(15)
    for n in [*range(1, 301), 1023, 1024, 8191, 8192, 8193, 70001]:
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        assert variation(v.ctypes.data, n, periodic) == _variation(v, periodic), n


ZEROS_AND_SUBNORMALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308]
# (rows, factor): up to 3 rows of any factor up to 4096, or up to 300 short rows
row_shapes = st.one_of(
    st.tuples(st.integers(1, 3),
              st.one_of(st.integers(1, 4096), st.sampled_from([1 << i for i in range(13)]))),
    st.tuples(st.integers(1, 300), st.integers(2, 128)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shape=row_shapes, seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(["unit", "wide", "subnormal", "zeros"]),
       spots=st.lists(st.tuples(st.integers(0, 2**20), st.one_of(
           st.sampled_from(ZEROS_AND_SUBNORMALS),
           st.builds(lambda m, e: m * 10.0**e, st.floats(-9.9, 9.9), st.integers(-300, 299)))),
           max_size=12))
def test_c_cell_means_equal_numpy_mean(shape, seed, scale, spots):
    # the values: normals at unit scale, at magnitudes 1e-300 to 1e300, of
    # subnormal size with signed zeros, or zeros, 99% of them -0.0; then a few
    # cells set to chosen values
    rows, factor = shape
    cell_means = compiled_march().cell_means
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(rows * factor)
    if scale == "wide":
        v *= 10.0 ** rng.integers(-300, 300, v.size)
    elif scale == "subnormal":
        v = np.trunc(v * 4.0) * 5e-324 * rng.choice([1.0, 1e6], v.size)
    elif scale == "zeros":
        v = np.where(rng.random(v.size) < 0.01, 0.0, -0.0)
    for index, value in spots:
        v[index % v.size] = value
    out = np.empty(rows)
    cell_means(v.ctypes.data, out.ctypes.data, rows, factor)
    assert out.tobytes() == v.reshape(-1, factor).mean(axis=1).tobytes()


@pytest.fixture
def fresh_loader():
    """``_kernels.load`` forgets its library before and after the test."""
    _kernels.load.cache_clear()
    yield
    _kernels.load.cache_clear()


SOLVE_CONFIG = """\
equation = burgers
numflux = godunov
hurst = 0.5
resolutions = 5
reference_exponent = 6
samples = 1
base_seed = 2024
t_final = 0.5
snapshot_times = 0.125
"""


def solve_run(tmp_path, name):
    """The CSV bytes and the manifest's march of one ``solve`` run."""
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CONFIG)
    out = tmp_path / name
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "solve_manifest.json").read_text())
    return (out / "solve.csv").read_bytes(), manifest["march"]


def test_manifest_records_the_march(march, tmp_path):
    assert solve_run(tmp_path, "out")[1] == march


def test_without_a_compiler_evolve_gives_the_same_bits(tmp_path, monkeypatch, fresh_loader):
    compiled_march()
    u0 = fbm_initial_field(0.5, make_grid(0.0, 1.0, 128), 11)
    cfg = SchemeConfig(FluxSpec.BURGERS, NumericalFluxSpec(NumFluxKind.GODUNOV), t_final=0.5)
    compiled, csv = outcome(u0, cfg, (0.25,), True), solve_run(tmp_path, "compiled")
    assert csv[1] == "compiled"
    # 2^17 cells: the finest level draws its noise in more than one chunk
    deep = fbm_initial_field(0.25, make_grid(0.0, 1.0, 1 << 17), 12)
    means = [restrict(deep, factor).values.tobytes() for factor in (2, 8, 4096)]

    empty = tmp_path / "no-compiler"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernels.load.cache_clear()
    assert _kernels.load() is None
    assert outcome(u0, cfg, (0.25,), True) == compiled
    assert solve_run(tmp_path, "numpy") == (csv[0], "numpy")
    numpy_deep = fbm_initial_field(0.25, make_grid(0.0, 1.0, 1 << 17), 12)
    assert numpy_deep.values.tobytes() == deep.values.tobytes()
    assert [restrict(deep, factor).values.tobytes() for factor in (2, 8, 4096)] == means
    assert list((tmp_path / "cache" / "roughwave").iterdir()) == []


def test_an_unwritable_cache_falls_back_to_numpy(tmp_path, monkeypatch, fresh_loader):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
    assert _kernels.march_name() == "numpy"


def test_concurrent_builds_share_one_private_cache(tmp_path):
    compiled_march()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(roughwave.__file__).parents[1]))
    probe = "import roughwave._kernels as k; assert k.march_name() == 'compiled'"
    procs = [subprocess.Popen([sys.executable, "-c", probe], env=env) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    cache = tmp_path / "roughwave"
    assert cache.stat().st_mode & 0o777 == 0o700
    names = [p.name for p in cache.iterdir()]
    assert len(names) == 1 and names[0].startswith("march-") and names[0].endswith(".so")
