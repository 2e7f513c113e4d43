import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy_kernels
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
    lip_plus,
    make_grid,
    numerical_flux,
    restrict,
    sample_seed,
    step,
    total_variation,
)
from roughwave.flux import PAIRS

GODUNOV = NumericalFluxSpec(NumFluxKind.GODUNOV)
MONOTONE_FLUXES = (
    NumericalFluxSpec(NumFluxKind.GODUNOV),
    NumericalFluxSpec(NumFluxKind.RUSANOV),
    NumericalFluxSpec(NumFluxKind.ENGQUIST_OSHER),
    NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS),  # lam filled by the solver
)


def burgers_config(**kw):
    kw.setdefault("flux", FluxSpec.BURGERS)
    kw.setdefault("numflux", GODUNOV)
    kw.setdefault("t_final", 1.0)
    return SchemeConfig(**kw)


def random_field(n, seed, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return CellField(make_grid(0, 1, n), rng.uniform(lo, hi, n))


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        burgers_config(cfl=0.0)
    with pytest.raises(ValueError):
        burgers_config(cfl=1.5)
    with pytest.raises(ValueError):
        burgers_config(t_final=-1.0)
    with pytest.raises(ValueError):
        burgers_config(t_final=float("nan"))
    with pytest.raises(ValueError):
        burgers_config(t_final=float("inf"))
    with pytest.raises(ValueError, match="upwind.*linear"):
        burgers_config(numflux=NumericalFluxSpec(NumFluxKind.UPWIND))


ALL_COMBINATIONS = [(kind, law) for kind in NumFluxKind for law in FluxSpec]


@pytest.mark.parametrize("kind, law", ALL_COMBINATIONS,
                         ids=[f"{kind.value}-{law.value}" for kind, law in ALL_COMBINATIONS])
def test_every_consumer_accepts_exactly_the_pair_table(kind, law):
    numflux = NumericalFluxSpec(kind, 0.5 if kind is NumFluxKind.LAX_FRIEDRICHS else None)
    if (kind, law) not in PAIRS:
        with pytest.raises(ValueError, match="upwind.*linear"):
            SchemeConfig(law, numflux, t_final=1.0)
        with pytest.raises(ValueError, match="upwind.*linear"):
            numerical_flux(numflux, law, 0.25, -0.5)
        return
    cfg = SchemeConfig(law, numflux, t_final=1.0)
    assert isinstance(numerical_flux(numflux, law, 0.25, -0.5), float)
    # one step runs the pair's own step template: the oracle's update, bit for bit
    u0, dt = random_field(9, 4), 0.25 / 9
    want = numpy_kernels.advance(u0.values, dt / u0.grid.dx, numflux, cfg)
    assert step(u0, cfg, dt).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("t_final", [5e-324, 5e-13, 1e-12])
def test_a_t_final_no_step_can_reach_is_rejected(t_final):
    # a march stops within 1e-12 of t_final: from t = 0 it would take no step, drop
    # every snapshot and hand back the initial data as the final state
    with pytest.raises(ValueError, match="t_final"):
        burgers_config(t_final=t_final)


def test_a_t_final_just_past_the_time_guard_takes_its_steps():
    u0 = random_field(16, 5)
    traj = evolve(u0, burgers_config(t_final=2e-12), snapshot_times=[2e-12])
    assert traj.times.tolist() == [0.0, 2e-12]
    assert [s.time for s in traj.snapshots] == [2e-12]
    assert traj.final is not u0 and traj.snapshots[0].field is traj.final


def test_cfl_timestep_examples():
    g = make_grid(0, 1, 100)
    assert cfl_timestep(g, FluxSpec.BURGERS, -1.0, 1.0, 0.5) == pytest.approx(0.005)
    g2 = make_grid(0, 1, 256)
    assert cfl_timestep(g2, FluxSpec.LINEAR, -0.3, 0.8, 1.0) == 2.0**-8
    assert cfl_timestep(g, FluxSpec.BURGERS, 0.0, 0.0, 0.5) == 0.5 * g.dx
    with pytest.raises(ValueError):
        cfl_timestep(g, FluxSpec.BURGERS, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("numflux", MONOTONE_FLUXES, ids=lambda nf: nf.kind.value)
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
def test_step_preserves_constants(numflux, boundary):
    state = CellField(make_grid(0, 1, 16), np.full(16, 0.7))
    cfg = burgers_config(numflux=numflux, boundary=boundary)
    out = step(state, cfg, dt=0.01)
    assert np.allclose(out.values, 0.7, rtol=0, atol=1e-15)


def test_step_upwind_unit_cfl_shifts_by_one_cell():
    n = 8
    state = random_field(n, 1)
    cfg = SchemeConfig(
        flux=FluxSpec.LINEAR,
        numflux=NumericalFluxSpec(NumFluxKind.UPWIND),
        t_final=1.0,
        cfl=1.0,
        boundary=Boundary.PERIODIC,
    )
    out = step(state, cfg, dt=state.grid.dx)
    assert np.allclose(out.values, np.roll(state.values, 1), rtol=0, atol=1e-15)


def scalar_godunov_burgers(a, b):
    # independent scalar evaluation: argmin/argmax over the interval and 0
    cands = [a, b] + ([0.0] if min(a, b) <= 0.0 <= max(a, b) else [])
    vals = [0.5 * c * c for c in cands]
    return min(vals) if a <= b else max(vals)


def scalar_step_periodic(values, lam):
    n = len(values)
    out = []
    for i in range(n):
        fr = scalar_godunov_burgers(values[i], values[(i + 1) % n])
        fl = scalar_godunov_burgers(values[(i - 1) % n], values[i])
        out.append(values[i] - lam * (fr - fl))
    return out


def test_step_hand_stencil_oracle():
    # Burgers + Godunov, 4 periodic cells, dx = 0.25, dt = 0.1:
    # faces are F(0,1)=0, F(1,0)=1/2, F(0,0)=0, so the update is
    # [0, 1 - 0.4*0.5, 0 + 0.4*0.5, 0]
    state = CellField(make_grid(0, 1, 4), np.array([0.0, 1.0, 0.0, 0.0]))
    cfg = burgers_config(boundary=Boundary.PERIODIC)
    out = step(state, cfg, dt=0.1)
    assert np.allclose(out.values, [0.0, 0.8, 0.2, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(out.values, scalar_step_periodic(state.values, 0.4),
                       rtol=0, atol=1e-15)


def test_step_scalar_reimplementation_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(10):
        vals = rng.uniform(-1, 1, 12)
        state = CellField(make_grid(0, 1, 12), vals)
        cfg = burgers_config(boundary=Boundary.PERIODIC)
        dt = 0.3 * state.grid.dx  # CFL-safe for |u| <= 1
        out = step(state, cfg, dt=dt)
        want = scalar_step_periodic(vals, dt / state.grid.dx)
        assert np.allclose(out.values, want, rtol=0, atol=1e-14)


def test_step_rejects_nonpositive_dt():
    state = random_field(8, 2)
    with pytest.raises(ValueError):
        step(state, burgers_config(), dt=0.0)


def test_step_reports_first_nonfinite_cell():
    state = CellField(make_grid(0, 1, 4), np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(FloatingPointError, match="cell"):
        step(state, burgers_config(), dt=1e308)


def test_evolve_zero_final_time():
    state = random_field(16, 3)
    traj = evolve(state, burgers_config(t_final=0.0), snapshot_times=[0.0], track_tv=True)
    assert np.array_equal(traj.times, [0.0])
    assert traj.per_step_tv[0] == pytest.approx(total_variation(state))
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].time == 0.0
    assert traj.final is state


def test_evolve_exact_advection_circular_shift():
    n = 256
    state = random_field(n, 4)
    k_steps = 100
    cfg = SchemeConfig(
        flux=FluxSpec.LINEAR,
        numflux=NumericalFluxSpec(NumFluxKind.UPWIND),
        t_final=k_steps / n,
        cfl=1.0,
        boundary=Boundary.PERIODIC,
    )
    traj = evolve(state, cfg)
    assert len(traj.times) - 1 == k_steps
    assert np.max(np.abs(traj.final.values - np.roll(state.values, k_steps))) <= 1e-14


def test_evolve_lands_exactly_on_t_final():
    state = random_field(32, 5)
    cfg = burgers_config(t_final=0.1234)
    traj = evolve(state, cfg, track_tv=True)
    assert traj.times[-1] == 0.1234
    last = traj.times[-1] - traj.times[-2]
    assert last <= traj.dt_used + 1e-15
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.per_step_tv) == len(traj.times)


def test_evolve_snapshot_semantics():
    state = random_field(64, 6)
    cfg = burgers_config(t_final=0.5)
    traj = evolve(state, cfg, snapshot_times=[0.0, 0.2, 0.5])
    assert len(traj.snapshots) == 3
    assert traj.snapshots[0].time == 0.0
    # recorded at the first time point at or after the request
    assert traj.snapshots[1].time >= 0.2 - 1e-12
    idx = np.searchsorted(traj.times, traj.snapshots[1].time)
    assert traj.times[idx - 1] < 0.2
    assert traj.snapshots[2].time == traj.times[-1]


def test_evolve_validates_snapshot_times():
    state = random_field(8, 7)
    with pytest.raises(ValueError):
        evolve(state, burgers_config(t_final=0.5), snapshot_times=[0.6])
    with pytest.raises(ValueError):
        evolve(state, burgers_config(t_final=0.5), snapshot_times=[0.3, 0.1])
    with pytest.raises(ValueError):
        evolve(state, burgers_config(t_final=0.5), snapshot_times=[-0.1])
    with pytest.raises(ValueError):
        evolve(state, burgers_config(t_final=0.5), snapshot_times=[float("nan")])


def test_evolve_dense_snapshots_keep_every_step():
    state = random_field(16, 8)
    cfg = burgers_config(t_final=0.05)
    plain = evolve(state, cfg)
    traj = evolve(state, cfg, snapshot_times=plain.times)
    assert [s.time for s in traj.snapshots] == list(plain.times)
    assert traj.snapshots[0].field is state
    assert np.array_equal(traj.snapshots[-1].field.values, plain.final.values)


@pytest.mark.parametrize("track_tv", [False, True])
def test_evolve_snapshots_are_the_states_of_their_time_points(track_tv):
    # 0.3 is no whole number of steps, so the last step is short
    u0 = random_field(32, 8)
    cfg = burgers_config(t_final=0.3, boundary=Boundary.PERIODIC)
    plain = evolve(u0, cfg)
    times, dt = plain.times, plain.dt_used
    assert numpy_kernels.next_time(times[-2], dt, 0.3)[0] < dt
    # the state at each time point by the oracle's update, each step of the length
    # the oracle's clock gives
    states = [u0.values]
    for t in times[:-1]:
        dt_i = numpy_kernels.next_time(float(t), dt, 0.3)[0]
        states.append(numpy_kernels.advance(states[-1], dt_i / u0.grid.dx, GODUNOV, cfg))
    last = times.size - 1
    cases = [
        ((1e-13,), [1]),  # a positive time within the guard of 0 is read after step 1
        # at 0 twice, at step 5 from a hair below its time point and on it, and at
        # t_final twice
        ((0.0, 0.0, times[5] - 1e-13, times[5], 0.3, 0.3), [0, 0, 5, 5, last, last]),
        (times, list(range(times.size))),  # dense: every time point
    ]
    for snapshot_times, steps in cases:
        traj = evolve(u0, cfg, snapshot_times=snapshot_times, track_tv=track_tv)
        assert traj.times.tobytes() == times.tobytes()
        assert [s.time for s in traj.snapshots] == [times[i] for i in steps]
        assert ([s.field.values.tobytes() for s in traj.snapshots]
                == [states[i].tobytes() for i in steps])
        assert traj.final.values.tobytes() == states[-1].tobytes()
        if track_tv:
            assert traj.per_step_tv.tolist() == [numpy_kernels.variation(v, True)
                                                 for v in states]


def test_evolve_conserves_mass_periodic():
    grid = make_grid(0, 1, 256)
    u0 = fbm_initial_field(0.5, grid, 1)
    cfg = burgers_config(boundary=Boundary.PERIODIC, t_final=1.0)
    traj = evolve(u0, cfg)
    m0 = grid.dx * float(u0.values.sum())
    mT = grid.dx * float(traj.final.values.sum())
    assert mT == pytest.approx(m0, abs=1e-10 * max(1.0, abs(m0)))


@pytest.mark.parametrize("numflux", MONOTONE_FLUXES, ids=lambda nf: nf.kind.value)
def test_evolve_is_tvd_periodic(numflux):
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 128), 11)
    cfg = burgers_config(numflux=numflux, boundary=Boundary.PERIODIC, t_final=0.5)
    traj = evolve(u0, cfg, track_tv=True)
    assert np.all(np.diff(traj.per_step_tv) <= 1e-12)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
def test_evolve_maximum_principle(boundary):
    for seed in range(5):
        u0 = random_field(64, 100 + seed)
        cfg = burgers_config(boundary=boundary, t_final=0.5)
        traj = evolve(u0, cfg, snapshot_times=evolve(u0, cfg).times)
        lo, hi = u0.values.min(), u0.values.max()
        for s in traj.snapshots:
            assert s.field.values.min() >= lo - 1e-12
            assert s.field.values.max() <= hi + 1e-12


@pytest.mark.parametrize("numflux", MONOTONE_FLUXES, ids=lambda nf: nf.kind.value)
def test_step_preserves_ordering(numflux):
    rng = np.random.default_rng(55)
    grid = make_grid(0, 1, 64)
    cfg = burgers_config(numflux=numflux, boundary=Boundary.PERIODIC)
    dt = 0.3 * grid.dx  # CFL-safe for states in [-1.2, 1.2]
    lo = CellField(grid, rng.uniform(-1, 0.8, 64))
    hi = CellField(grid, lo.values + rng.uniform(0.0, 0.2, 64))
    for _ in range(50):
        lo = step(lo, cfg, dt)
        hi = step(hi, cfg, dt)
        assert np.all(lo.values <= hi.values + 1e-12)


def test_evolve_lip_plus_decay_periodic():
    # one-step decay of the periodic one-sided seminorm at rate beta = 1/8
    beta = 0.125
    for s in range(4):
        ref = fbm_initial_field(0.5, make_grid(0, 1, 1 << 10), sample_seed(2024, s))
        u0 = restrict(ref, 4)
        cfg = burgers_config(boundary=Boundary.PERIODIC, t_final=1.0)
        traj = evolve(u0, cfg, snapshot_times=evolve(u0, cfg).times)
        lips = np.array([lip_plus(snap.field, periodic=True) for snap in traj.snapshots])
        dts = np.diff(traj.times)
        for n in range(len(dts)):
            if lips[n] > 0:
                assert lips[n + 1] <= 1.0 / (1.0 / lips[n] + beta * dts[n]) + 1e-8


def test_evolve_lax_friedrichs_default_lambda():
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 128), 9)
    cfg = SchemeConfig(
        flux=FluxSpec.BURGERS,
        numflux=NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS),
        t_final=0.5,
        boundary=Boundary.PERIODIC,
    )
    traj = evolve(u0, cfg, track_tv=True)
    assert np.all(np.diff(traj.per_step_tv) <= 1e-12)
    assert np.all(np.abs(traj.final.values) <= 1.0 + 1e-12)


def test_evolve_lax_friedrichs_on_subnormal_data():
    # the Lax-Friedrichs mesh ratio dt/dx = cfl / max|f'| overflows here
    u0 = CellField(make_grid(0, 1, 2), np.array([0.0, 2.2e-309]))
    cfg = SchemeConfig(
        flux=FluxSpec.BURGERS,
        numflux=NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS),
        t_final=0.25,
        boundary=Boundary.PERIODIC,
    )
    traj = evolve(u0, cfg)
    assert traj.times[-1] == 0.25
    assert np.all(np.abs(traj.final.values) <= 2.2e-309)


def test_evolve_subnormal_data_gets_a_finite_step():
    # cfl * dx / max|f'| overflows to inf; the one step lands on t_final
    u0 = CellField(make_grid(0, 1, 2), np.array([0.0, 1e-310]))
    traj = evolve(u0, burgers_config(t_final=0.5))
    assert traj.dt_used == 0.5
    assert np.array_equal(traj.times, [0.0, 0.5])


def test_evolve_rejects_a_zero_cfl_step():
    # max|f'| = u^2 overflows to inf on the cubic law, so dt = 0 would never advance
    u0 = CellField(make_grid(0, 1, 2), np.array([0.0, 1e160]))
    cfg = SchemeConfig(flux=FluxSpec.CUBIC, numflux=GODUNOV, t_final=1.0)
    with pytest.raises(ValueError, match="dt must be > 0"):
        evolve(u0, cfg)


def test_evolve_rejects_a_step_float_time_cannot_add():
    # dt = 2.5e-301: once t passes dt * 2^53, t + dt rounds back to t and the
    # loop would never end; the bound of 2^28 steps refuses the run long before
    u0 = CellField(make_grid(0, 1, 2), np.array([0.0, 1e300]))
    with pytest.raises(ValueError, match=r"takes more than 2\*\*28 steps of dt=2.5e-301"):
        evolve(u0, burgers_config())
    assert evolve(u0, burgers_config(t_final=0.0)).times.tolist() == [0.0]


def test_evolve_refuses_more_than_2_28_steps_before_allocating(monkeypatch):
    # two cells of data in [-1, 1] step by dt = 0.25, so t_final = 1e9 asks for 4e9
    # steps, whose time points alone would take 32 GB
    def never():
        raise AssertionError("the library was loaded to count the time points")

    monkeypatch.setattr(solver._kernels, "load", never)
    u0 = CellField(make_grid(0, 1, 2), np.array([-1.0, 1.0]))
    message = r"^t_final=1000000000.0 takes more than 2\*\*28 steps of dt=0.25$"
    with pytest.raises(ValueError, match=message):
        evolve(u0, burgers_config(t_final=1e9))
    # the bound itself: 2^28 steps pass, a hair more do not
    solver._check_steps(0.25 * 2**28, 0.25)
    with pytest.raises(ValueError, match="2\\*\\*28"):
        solver._check_steps(np.nextafter(0.25 * 2**28, np.inf), 0.25)


@st.composite
def schedules(draw):
    """(dt, t_final): exact divisions, steps a hair off t_final/n, t_final just above
    the time guard or 0, the dt = t_final of data of subnormal size, or any dt; up to
    about 10^6 steps, a quarter of the draws above 3,000."""
    case = draw(st.sampled_from(["exact", "near", "guard", "zero", "whole", "any"]))
    n = draw(st.one_of(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 3000),
                       st.integers(3000, 10**6)))
    t_final = draw(st.floats(1e-9, 1e9))
    if case == "exact":  # n steps of a dyadic or decimal dt, or t_final / n
        dt = draw(st.sampled_from([2.0**-9, 0.25, 0.1, 1e-3, 3.0, None]))
        return (t_final / n, t_final) if dt is None else (dt, dt * n)
    if case == "near":
        off = draw(st.sampled_from([1e-10, -1e-10, 2**-52, -2**-52]))
        return t_final / n * (1 + off), t_final
    if case == "guard":
        t_final = draw(st.sampled_from([np.nextafter(1e-12, 1), 1.0000001e-12, 1.5e-12, 3e-12]))
        return t_final / draw(st.integers(1, 4)), t_final
    if case == "zero":
        return draw(st.sampled_from([0.0, 1e-3, 0.5])), 0.0
    if case == "whole":  # evolve's dt = t_final where cfl * dx / max|f'| overflows
        return t_final, t_final
    return draw(st.floats(t_final / n / 2, t_final / n * 2)), t_final


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=schedules())
@example(case=(1e-6, 1.0)).via("10^6 steps of a decimal dt")
@example(case=(1.0 / 999_999, 1.0)).via("10^6 steps of an inexact t_final / n")
def test_schedule_equals_the_step_by_step_loop(case):
    # the C count and the time points the C march writes, whose clock has no clamp to
    # t_final, against the clamped loop
    dt, t_final = case
    guard = solver._TIME_GUARD * max(1.0, t_final)
    oracle = numpy_kernels.schedule(dt, t_final, guard)
    count = solver._kernels.load().schedule(dt, t_final, guard)
    assert count == oracle.size - 1
    times = np.zeros(count + 1)
    if count:  # from time 0 a march takes a step even where there is none to take
        taken = solver._compiled_march(np.zeros((3, 3)), times, 0, t_final - guard, dt,
                                       t_final, 1.0, 1.0, burgers_config(), None)
        assert taken == count
    assert times.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("snapshot_times", [(), (4.0,)], ids=["final", "snapshot"])
@pytest.mark.parametrize("track_tv", [False, True])
@pytest.mark.parametrize("dense", [False, True])
def test_evolve_blow_up_raises(march, snapshot_times, track_tv, dense):
    # (b - a)/(2 lam) with lam far below dt/dx makes Lax-Friedrichs unstable;
    # the run overflows long before t = 4
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 64), 3)
    cfg = SchemeConfig(flux=FluxSpec.LINEAR, t_final=5.0,
                       numflux=NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam=1e-3))
    dt = cfl_timestep(u0.grid, FluxSpec.LINEAR, u0.values.min(), u0.values.max(), cfg.cfl)
    state, good_steps = u0, 0
    with pytest.raises(FloatingPointError):
        while True:
            state, good_steps = step(state, cfg, dt), good_steps + 1
    assert good_steps + 64 < 5.0 / dt
    if dense:  # a snapshot at every step time exposes every state
        snapshot_times = sorted([*np.arange(0.0, cfg.t_final, dt), *snapshot_times])

    with pytest.raises(FloatingPointError, match="non-finite value in cell") as raised:
        evolve(u0, cfg, snapshot_times=snapshot_times, track_tv=track_tv)
    found = int(re.search(r"non-finite value in cell \d+ at step (\d+) ", str(raised.value))[1])
    # the run stops at its first non-finite state if every state is exposed, else
    # within 64 steps of it, not at t_final
    assert good_steps < found <= good_steps + (1 if dense else 64)
    # ... at the first state at or after the first bad step that is checked: one
    # after every time point 63 (mod 64), at a snapshot or at the end
    guard = 1e-12 * cfg.t_final
    times = numpy_kernels.schedule(dt, cfg.t_final, guard)
    n_steps = times.size - 1
    snap_steps = {0 if t <= 0.0 else max(1, int(np.searchsorted(times, t - guard)))
                  for t in snapshot_times}
    checked = {*range(63, n_steps + 1, 64), *snap_steps, n_steps}
    assert found == min(s for s in checked if s > good_steps)
    # and the message names the first non-finite cell of that state
    v = u0.values
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(found):
            v = numpy_kernels.advance(v, dt / u0.grid.dx, cfg.numflux, cfg)
    with pytest.raises(FloatingPointError) as expected:
        solver._expose(u0.grid, v, dt, found)
    assert str(raised.value) == str(expected.value)


def test_the_kernels_leave_numpys_error_state_alone():
    # the march does no numpy arithmetic: under numpy's strictest error state, runs
    # that overflow end in the solver's own FloatingPointError, naming the step, and
    # leave no flag behind for numpy's next operation
    lf = NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam=1e-3)
    cfg = SchemeConfig(flux=FluxSpec.LINEAR, numflux=lf, t_final=5.0)
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 64), 3)
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError, match=r"in cell \d+ at step \d+ after steps"):
            evolve(u0, cfg, track_tv=True)
        with pytest.raises(FloatingPointError, match="in cell 0 at step 1 after steps"):
            step(CellField(make_grid(0, 1, 3), [0.0, 1e306, 0.0]), cfg, 1e-3)
        field = CellField(make_grid(0, 1, 3), [1.0, 2.0, 3.0])
        assert float(np.sum(field.values * 2.0)) == 12.0
