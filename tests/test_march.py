"""The compiled kernels of ``_march.c`` against their numpy twins in the oracle
``numpy_kernels``, and the loading of the library.

- For all 13 (numflux, law) pairs under both boundaries, ``evolve`` gives the
  same bits with the compiled march as with the oracle's: time points, final
  state, every snapshot and the per-step TV, or the same exception; so does one
  ``step``.  The march picks a pair's step by its index in ``flux.PAIRS``, so
  this is also the test of the order of its ``STEPS`` table.  On states that hold inf and nan,
  the two marches leave the same cells inf and nan, in row 0 of the state
  array after odd and even step counts alike, and stop after the same step when
  the march crosses a time point 63 (mod 64), where both check the state; a
  step that overflows to inf and makes no nan stops them there too.  The
  data hold signed zeros, subnormals and magnitudes up to 1e150; runs end on a
  short last step or on a whole one, snapshots fall on the march's 64-step
  checks, and t_final can be 0.  The states have 1-1,001 cells, so that they
  fill the vectors of each clone and leave tails.  Built for one x86-64 level at
  a time, without clones, the C march gives the bits of the oracle's too, its
  check after time point 63 included, and so do the C draw, log and sincos.
- Each state ``evolve`` reads is one C call: a run makes one per positive
  snapshot time and one for t_final, its short last step included.
- The C total variation equals the oracle's ``variation`` (numpy's pairwise
  sum) at every length up to 300 and at the lengths where the pairwise
  recursion splits.
- The C cell means equal ``values.reshape(-1, factor).mean(axis=1)`` byte for
  byte, on signed zeros, subnormals and magnitudes from 1e-300 to 1e300, for
  factors 1-4096 and for many rows of 2-128 cells.
- The C uniforms and normals of the draw equal the oracle's numpy ones, zero
  draws included, and return the stream's state past them.  A midpoint level is
  one C call.
- ``_march.c`` builds with ``-Wall -Wextra -Werror`` (unused parameters aside),
  and the x86 option ``-mprefer-vector-width`` is passed to gcc on x86-64 only.
  Every function it exports has a ctypes signature in ``_kernels``, and every
  signature a function.
- Two processes building into one empty cache both succeed and leave one library
  and no temporary file, and four threads loading from one empty cache at once
  run gcc once and each get the library; the cache directory is private (0700).
- The library is the only kernel set: without gcc, with a flag gcc rejects, or
  with a cache that cannot be made, or that group or others can write, or that
  another user owns, ``load`` raises and names the cause, and nothing is built in
  the cache or loaded from it; later calls raise the same without running gcc
  again.  A run exits 2 with that cause once on stderr and writes nothing, and so
  does ``selfcheck``.
"""

import ast
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import numpy_kernels as oracle
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
    step,
)
from roughwave.cli import run
from roughwave.flux import PAIRS
from roughwave.initial_data import GOLDEN_GAMMA, SplitMix64, _midpoint_points

PAIR_IDS = [f"{kind.value}-{spec.value}" for kind, spec in PAIRS]

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, 1.4e-154, -1.6e-154,
           0.5, -1.0, 3.0]
moderate = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0), st.floats(-1e-300, 1e-300))
values = st.one_of(moderate, st.sampled_from([1e150, -1e150, 3.7e149]), st.floats(-1e150, 1e150))
# squares of these round into the subnormal range, where 0.5*(u*u) and (0.5*u)*u differ
tiny = st.one_of(st.sampled_from(SPECIAL[:9]), st.floats(-1.5e-154, 1.5e-154))
# one huge cell makes the CFL step of a nonlinear law so small that t_final falls
# within the 1e-12 time guard, where no step could reach it: SchemeConfig rejects it
# lengths that fill 2-, 4- and 8-lane vectors of the clones and overrun them by a tail
lengths = st.one_of(st.integers(1, 24), st.integers(25, 300),
                    st.sampled_from([63, 64, 65, 127, 128, 129, 999, 1000, 1001]))
states = st.one_of(*(arrays(np.float64, lengths, elements=e) for e in (moderate, values, tiny)))
bit_settings = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def outcome(u0, cfg, snapshot_times, track_tv):
    """Every bit of an ``evolve`` run, or its exception's type and message."""
    try:
        traj = evolve(u0, cfg, snapshot_times=snapshot_times, track_tv=track_tv)
    except (FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    tv = None if traj.per_step_tv is None else traj.per_step_tv.tobytes()
    return (traj.times.tobytes(), traj.final.values.tobytes(), tv, traj.dt_used,
            [(s.time, s.field.values.tobytes()) for s in traj.snapshots])


def step_bits(u0, cfg, dt):
    """The bits of one ``step`` of ``dt``, or its exception's type and message."""
    try:
        return step(u0, cfg, dt).values.tobytes()
    except (FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("boundary", list(Boundary), ids=[b.value for b in Boundary])
@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@bit_settings
@given(v=states, steps=st.integers(0, 200), short=st.sampled_from([0.0, 0.5, 0.999]),
       picks=st.lists(st.integers(0, 201), max_size=4), track_tv=st.booleans(),
       lam=st.sampled_from([None, 0.4, 1e-3]))
def test_compiled_march_equals_numpy_march(kind, spec, boundary, v, steps, short, picks,
                                           track_tv, lam):
    u0 = CellField(make_grid(0.0, 1.0, v.size), v)
    dt = cfl_timestep(u0.grid, spec, float(v.min()), float(v.max()), 0.5)
    t_final = dt * (steps + short) if np.isfinite(dt * (steps + 1)) else 1.0
    numflux = NumericalFluxSpec(kind, lam if kind is NumFluxKind.LAX_FRIEDRICHS else None)
    try:
        cfg = SchemeConfig(spec, numflux, t_final=t_final, boundary=boundary)
    except ValueError:
        assert 0.0 < t_final <= 1e-12
        return
    # the time points of the run, so that snapshots can fall on the 64-step checks
    times = oracle.schedule(dt, t_final, 1e-12 * max(1.0, t_final))
    ends = [times[i] for i in (63, 127, 191) if i < times.size]
    snapshot_times = sorted({*ends, *(times[min(i, times.size - 1)] for i in picks)})

    compiled = outcome(u0, cfg, snapshot_times, track_tv), step_bits(u0, cfg, dt)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_compiled_march", oracle.march)
        assert (outcome(u0, cfg, snapshot_times, track_tv), step_bits(u0, cfg, dt)) == compiled


def canonical_bits(x):
    """The bytes of ``x`` with every NaN as numpy's one quiet NaN."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


def march_bits(v, count, ratio, cfg, first=0):
    """The steps taken and the canonical bits of the state (row 0 of ``cells``) and of
    the TV of each step taken, in up to ``count`` steps of length ``ratio`` on cells of
    width 1 from ``v`` at time 0 after ``first`` steps, by the compiled march and by
    the oracle's, a Lax-Friedrichs flux with the mesh ratio of ``cfg``, or ``ratio``
    if it has none."""
    results = []
    for march in (solver._compiled_march, oracle.march):
        cells = np.empty((3, v.size + 2))
        cells[0, 1:-1] = v
        times, tv = np.zeros(first + count + 1), np.empty(first + count + 1)
        # steps of ratio with no end in sight, while t < (count - 1/2) ratio
        taken = march(cells, times, first, (count - 0.5) * ratio, ratio, np.inf, 1.0,
                      cfg.numflux.lam or ratio, cfg, tv)
        results.append([taken, *(canonical_bits(x) for x in
                                 (cells[0, 1:-1], tv[first + 1:first + taken + 1]))])
    return results


@pytest.mark.parametrize("boundary", list(Boundary), ids=[b.value for b in Boundary])
@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@bit_settings
@given(v=arrays(np.float64, lengths,
                elements=st.one_of(values, st.sampled_from([np.nan, np.inf, -np.inf]))),
       count=st.integers(1, 6), ratio=st.sampled_from([0.5, 1e-3, 7.0]),
       first=st.sampled_from([0, 58, 60, 62, 63]))
def test_march_kernels_agree_on_non_finite_states(kind, spec, boundary, v, count, ratio,
                                                  first):
    # a blow-up is found only after a time point 63 (mod 64) or at the end of a march:
    # until then both marches carry the same inf and nan cells, so the cell and the
    # step they report agree
    numflux = NumericalFluxSpec(kind, 0.3 if kind is NumFluxKind.LAX_FRIEDRICHS else None)
    cfg = SchemeConfig(spec, numflux, t_final=1.0, boundary=boundary)
    compiled, numpy_bits = march_bits(v, count, ratio, cfg, first)
    assert compiled == numpy_bits
    if not np.isfinite(v).all():  # a non-finite cell stays so: the check after step 63 stops
        assert compiled[0] == (63 - first if first < 63 <= first + count else count)


@pytest.mark.parametrize("kind", [NumFluxKind.GODUNOV, NumFluxKind.ENGQUIST_OSHER],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("spec", [FluxSpec.BURGERS, FluxSpec.CUBIC], ids=lambda s: s.value)
def test_an_overflow_to_inf_with_no_nan_stops_the_march(kind, spec):
    # one step of these pairs takes a lone 1e300 to -inf and +inf and makes no nan, so
    # the check after time point 63 must catch inf as well as nan
    cfg = SchemeConfig(spec, NumericalFluxSpec(kind), t_final=1.0)
    compiled, numpy_bits = march_bits(np.array([0.0, 0.0, 1e300, 0.0, 0.0]), 3, 0.5, cfg,
                                      first=62)
    assert compiled == numpy_bits
    state = np.frombuffer(compiled[1])
    assert compiled[0] == 1 and np.isinf(state).any() and not np.isnan(state).any()


def test_marches_agree_on_fbm_runs_with_many_blocks(monkeypatch):
    u0 = fbm_initial_field(0.25, make_grid(0.0, 1.0, 512), 7)
    for spec, kind, boundary in [(FluxSpec.BURGERS, NumFluxKind.GODUNOV, Boundary.OUTFLOW),
                                 (FluxSpec.CUBIC, NumFluxKind.RUSANOV, Boundary.PERIODIC)]:
        cfg = SchemeConfig(spec, NumericalFluxSpec(kind), t_final=0.3, boundary=boundary)
        compiled = outcome(u0, cfg, (0.0, 0.1, 0.2), True)
        with monkeypatch.context() as m:
            m.setattr(solver, "_compiled_march", oracle.march)
            assert outcome(u0, cfg, (0.0, 0.1, 0.2), True) == compiled
        assert np.frombuffer(compiled[0]).size > 3 * 64


class CountingLibrary:
    """The loaded library, recording the steps each ``march`` call takes."""

    def __init__(self, lib):
        self.lib, self.counts = lib, []

    def march(self, *args):
        self.counts.append(self.lib.march(*args))
        return self.counts[-1]

    def __getattr__(self, name):
        return getattr(self.lib, name)


@pytest.mark.parametrize("short", [False, True], ids=["whole", "short"])
def test_each_block_is_one_c_call(monkeypatch, short):
    lib = CountingLibrary(_kernels.load())
    monkeypatch.setattr(_kernels, "load", lambda: lib)
    # the linear law on 256 cells steps by dt = 2^-9 exactly: 1,500 whole steps, and
    # a half step more if short
    u0 = fbm_initial_field(0.5, make_grid(0.0, 1.0, 256), 5)
    cfg = SchemeConfig(FluxSpec.LINEAR, NumericalFluxSpec(NumFluxKind.RUSANOV),
                       t_final=(1500.5 if short else 1500) * 2.0**-9)
    traj = evolve(u0, cfg)
    assert traj.times.size == (1502 if short else 1501)
    # the short last step is taken in the same call as the whole ones
    assert lib.counts == ([1501] if short else [1500])
    # a snapshot at 0 needs no call; each positive one is a call, and t_final one more,
    # which takes no step where a snapshot has reached it
    lib.counts.clear()
    evolve(u0, cfg, snapshot_times=traj.times[[0, 100, 700, 701, 1500]])
    assert lib.counts == [100, 600, 1, 799, 1 if short else 0]


CLONES = '__attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))'


@pytest.mark.parametrize("level, feature", [("x86-64", None), ("x86-64-v3", "X86_V3"),
                                            ("x86-64-v4", "X86_V4")])
def test_each_clone_level_marches_the_numpy_bits(level, feature, tmp_path, monkeypatch,
                                                  fresh_loader):
    # the library built from a copy of _march.c without clones, for one level only:
    # the code each clone runs, and the code of a build off x86-64
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu_features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as cpu_features
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the levels are x86-64's")
    if feature is not None and not cpu_features.get(feature):
        pytest.skip(f"this CPU cannot run {level} code")
    source = Path(_kernels.__file__).with_name("_march.c").read_text()
    assert source.count(CLONES) == 1
    (tmp_path / "_march.c").write_text(source.replace(CLONES, ""))
    monkeypatch.setattr(_kernels, "__file__", str(tmp_path / "_kernels.py"))
    monkeypatch.setattr(_kernels, "_FLAGS", (*_kernels._FLAGS, f"-march={level}"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernels.load.cache_clear()
    lib = _kernels.load()
    assert lib._name.startswith(str(tmp_path / "cache"))

    rng = np.random.default_rng(18)
    specials = np.array([*SPECIAL, np.nan, np.inf, -np.inf])
    for n in [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 129, 1000]:
        for scale in (1e-300, 1.0, 1e3):
            v = rng.standard_normal(n) * scale
            # a tenth of the cells signed zeros, subnormals, and inf and nan at 1e3
            spots = rng.random(n) < 0.1
            v[spots] = rng.choice(specials[:-3] if scale < 1e3 else specials, spots.sum())
            for kind, spec in PAIRS:
                numflux = NumericalFluxSpec(kind, 0.3 if kind is NumFluxKind.LAX_FRIEDRICHS
                                            else None)
                for boundary in Boundary:
                    cfg = SchemeConfig(spec, numflux, t_final=1.0, boundary=boundary)
                    compiled, numpy_bits = march_bits(v, 5, 0.4, cfg)
                    assert compiled == numpy_bits, (level, n, scale, kind, spec, boundary)
    # from time point 62, a step that overflows to inf meets the check after 63
    for kind, spec in PAIRS:
        numflux = NumericalFluxSpec(kind, 0.3 if kind is NumFluxKind.LAX_FRIEDRICHS else None)
        for boundary in Boundary:
            cfg = SchemeConfig(spec, numflux, t_final=1.0, boundary=boundary)
            compiled, numpy_bits = march_bits(np.array([0.0, 0.0, 1e300, 0.0, 0.0]), 3, 0.5,
                                              cfg, first=62)
            assert compiled == numpy_bits, (level, kind, spec, boundary)

    # the draw, every level of two k = 16 paths, and the log and sincos on 2^16 values
    for hurst, seed in [(0.25, 3), (0.75, 2**64 - 1)]:
        assert (_midpoint_points(hurst, 16, SplitMix64(seed)).tobytes()
                == oracle.midpoint_points(hurst, 16, oracle.SplitMix64(seed)).tobytes())
    x = rng.random(1 << 16) * (2.0 * np.pi)
    out = [np.empty(x.size) for _ in range(3)]
    lib.log_sincos(x.ctypes.data, x.size, *(o.ctypes.data for o in out))
    assert np.array(out).tobytes() == np.array([oracle.log(x), *oracle.sincos(x)]).tobytes()


@pytest.mark.parametrize("periodic", [False, True])
def test_c_variation_equals_numpy_pairwise_sum(periodic):
    variation = _kernels.load().variation
    rng = np.random.default_rng(15)
    for n in [*range(1, 301), 1023, 1024, 8191, 8192, 8193, 70001]:
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        assert variation(v.ctypes.data, n, periodic) == oracle.variation(v, periodic), n


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
    cell_means = _kernels.load().cell_means
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


# seeds whose stream draws a zero word, and its slot: from -gamma (mod 2^64) the first
# word is 0, from -2 gamma the second, an angle slot
ZERO_SLOTS = {-GOLDEN_GAMMA % 2**64: 0, -2 * GOLDEN_GAMMA % 2**64: 1}


@pytest.mark.parametrize("count", [0, 1, 2, 2**15 + 1])
@pytest.mark.parametrize("seed", [0, 2024, 2**64 - 1, *ZERO_SLOTS])
def test_c_uniforms_return_the_stream_state_and_numpy_uniforms(seed, count):
    uniforms = _kernels.load().uniforms
    rng = oracle.SplitMix64(seed)
    words = rng.u64(count)
    z = np.empty(count)
    assert uniforms(seed, z.ctypes.data, count) == rng.state
    if ZERO_SLOTS.get(seed, count) < count:
        assert words[ZERO_SLOTS[seed]] == 0
    u = np.maximum((words >> np.uint64(11)).astype(np.float64) * 2.0**-53, 2.0**-53)
    u[1::2] *= 2.0 * np.pi
    assert z.tobytes() == u.tobytes()


@pytest.mark.parametrize("count", [0, 2, 6, 1000, 2**15 + 2])
@pytest.mark.parametrize("seed", [2024, *ZERO_SLOTS])
def test_c_normals_equal_numpy_normals(seed, count):
    draws = []
    for rng in (SplitMix64(seed), oracle.SplitMix64(seed)):
        draws.append((rng.normals(count).tobytes(), rng.state))
    assert draws[0] == draws[1]


def test_each_midpoint_level_is_one_c_call(monkeypatch):
    lib = _kernels.load()
    counts = []

    class CountingDraws(CountingLibrary):
        def draw(self, state, pts, stride, count, scale):
            counts.append((stride, count))
            return self.lib.draw(state, pts, stride, count, scale)

    monkeypatch.setattr(_kernels, "load", lambda: CountingDraws(lib))
    _midpoint_points(0.5, 12, SplitMix64(1))
    assert counts == [(1 << (12 - level), 1 << level) for level in range(1, 12)]


def test_march_c_builds_without_warnings(tmp_path):
    source = Path(_kernels.__file__).with_name("_march.c")
    strict = ("-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror")
    build = subprocess.run(["gcc", *_kernels._FLAGS, *strict, "-o", str(tmp_path / "march.so"),
                            str(source)], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr


def test_every_exported_kernel_has_a_ctypes_signature():
    # ctypes calls a function without argtypes and restype as one returning a C int:
    # each function _march.c exports needs an entry in _build's table, and each entry
    # a function
    c_source = re.sub(r"/\*.*?\*/", "", Path(_kernels.__file__).with_name("_march.c")
                      .read_text(), flags=re.S)
    exported = set(re.findall(r"^(?:CLONES\s+)?(?!static\b|typedef\b)\w+[\s*]+(\w+)\(",
                              c_source, re.M))
    assert {"march", "schedule", "uniforms"} <= exported  # plain and cloned definitions
    table = next(node.value for node in ast.walk(ast.parse(Path(_kernels.__file__).read_text()))
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["signatures"])
    assert {key.value for key in table.keys} == exported


def test_the_x86_vector_width_option_goes_to_x86_64_only():
    width = "-mprefer-vector-width=512"
    for machine in ("aarch64", "arm64", "ppc64le", "riscv64", "s390x"):
        assert _kernels._flags(machine) == tuple(f for f in _kernels._flags("x86_64")
                                                 if f != width)
    assert width in _kernels._flags("AMD64")
    if platform.machine() == "x86_64":  # the cache key of an x86-64 library is kept
        assert _kernels._FLAGS == ("-O3", "-fno-math-errno", "-ffp-contract=off", width,
                                   "-shared", "-fPIC")


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
samples = 2
base_seed = 2024
t_final = 0.5
snapshot_times = 0.125
"""


@pytest.mark.parametrize("command", ["solve", "selfcheck"])
def test_without_a_compiler_a_run_exits_2_and_writes_nothing(command, tmp_path, monkeypatch,
                                                             capsys, fresh_loader):
    empty, out = tmp_path / "no-compiler", tmp_path / "out"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "solve.cfg").write_text(SOLVE_CONFIG)
    argv = {"solve": ["solve", "--config", str(tmp_path / "solve.cfg"), "--out", str(out),
                      "--workers", "2"], "selfcheck": ["selfcheck"]}[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    # the cause once, as it was raised, and not once per sample
    assert err == "runtime error: the compiled kernels need gcc, and there is no gcc on PATH\n"
    assert not out.exists() or list(out.iterdir()) == []
    assert list((tmp_path / "cache" / "roughwave").iterdir()) == []


def test_a_flag_gcc_rejects_fails_the_build(tmp_path, monkeypatch, fresh_loader):
    monkeypatch.setattr(_kernels, "_FLAGS", ("-mno-such-option", *_kernels._FLAGS))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(RuntimeError, match="(?s)gcc failed to build .*-mno-such-option"):
        _kernels.load()
    assert list((tmp_path / "roughwave").iterdir()) == []


def test_a_failed_build_is_remembered(tmp_path, monkeypatch, fresh_loader):
    monkeypatch.setattr(_kernels, "_FLAGS", ("-mno-such-option", *_kernels._FLAGS))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds = []
    build = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: builds.append(a) or build(*a, **kw))
    for _ in range(3):
        with pytest.raises(RuntimeError, match="(?s)gcc failed to build .*-mno-such-option"):
            _kernels.load()
    assert len(builds) == 1


def test_an_unwritable_cache_raises(tmp_path, monkeypatch, fresh_loader):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
    cause = f"kernel cache cannot be made: .*{re.escape(str(not_a_dir))}"
    with pytest.raises(RuntimeError, match=cause):
        _kernels.load()


@pytest.mark.parametrize("untrusted", ["others-can-write", "another-user-owns"])
def test_an_untrusted_cache_is_not_used(untrusted, tmp_path, monkeypatch, fresh_loader):
    # the library's name is public, so whoever can write the cache could plant one;
    # one planted under the key is not loaded
    cache = tmp_path / "roughwave"
    cache.mkdir(mode=0o700)
    shutil.copy(_kernels.load()._name, cache)
    planted = sorted(cache.iterdir())
    if untrusted == "others-can-write":
        cache.chmod(0o777)
    else:
        uid = os.getuid()
        monkeypatch.setattr(_kernels.os, "getuid", lambda: uid + 1)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernels.load.cache_clear()
    with pytest.raises(RuntimeError, match=f"kernel cache {re.escape(str(cache))} is not used"):
        _kernels.load()
    assert sorted(cache.iterdir()) == planted


def test_concurrent_builds_share_one_private_cache(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(roughwave.__file__).parents[1]))
    probe = "import roughwave._kernels as k; k.load()"
    procs = [subprocess.Popen([sys.executable, "-c", probe], env=env) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    cache = tmp_path / "roughwave"
    assert cache.stat().st_mode & 0o777 == 0o700
    names = [p.name for p in cache.iterdir()]
    assert len(names) == 1 and names[0].startswith("march-") and names[0].endswith(".so")


def test_threads_loading_at_once_build_once(tmp_path, monkeypatch, fresh_loader):
    # threads share the pid that names the temporary file, so the build takes a lock
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds, libs = [], []
    build = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **kw: builds.append(a) or build(*a, **kw))
    start = threading.Barrier(4)

    def load():
        start.wait()
        libs.append(_kernels.load())

    threads = [threading.Thread(target=load) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert len(builds) == 1
    assert len(libs) == 4 and None not in libs
    names = [p.name for p in (tmp_path / "roughwave").iterdir()]
    assert len(names) == 1 and names[0].startswith("march-") and names[0].endswith(".so")
