"""Property tests of the monotone-scheme invariants for every numerical flux
and equation pair the package accepts, on small random grids.

- maximum principle: every state stays inside the initial range;
- periodic boundaries: total variation never grows and the mass sum(v) dx
  is conserved to round-off;
- L1-contraction (Crandall-Majda 1980): one step never moves two periodic
  solutions apart in L1;
- the Godunov closed form equals a sampling min/max of f over the Riemann
  fan, for all three laws;
- ``evolve`` and a loop of ``step`` calls over the same dt schedule give the
  same bits: they share one update.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughwave import (
    Boundary,
    CellField,
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    SchemeConfig,
    cfl_timestep,
    evolve,
    flux_value,
    l1_distance,
    make_grid,
    numerical_flux,
    step,
    total_variation,
)

PAIRS = [
    (kind, spec)
    for kind in NumFluxKind
    for spec in FluxSpec
    if kind is not NumFluxKind.UPWIND or spec is FluxSpec.LINEAR
]
PAIR_IDS = [f"{kind.value}-{spec.value}" for kind, spec in PAIRS]

values = st.floats(-1.0, 1.0)
states = arrays(np.float64, st.integers(2, 16), elements=values)
state_pairs = arrays(np.float64, st.tuples(st.just(2), st.integers(2, 16)), elements=values)
few = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def scheme(kind, spec, boundary):
    return SchemeConfig(spec, NumericalFluxSpec(kind), t_final=0.25, boundary=boundary)


def field(vals):
    return CellField(make_grid(0.0, 1.0, len(vals)), vals)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@few
@given(vals=states)
def test_maximum_principle_and_periodic_tvd_conservation(kind, spec, boundary, vals):
    u0, cfg = field(vals), scheme(kind, spec, boundary)
    traj = evolve(u0, cfg, snapshot_times=evolve(u0, cfg).times, track_tv=True)
    lo, hi = vals.min(), vals.max()
    for s in traj.snapshots:
        assert lo - 1e-12 <= s.field.values.min() and s.field.values.max() <= hi + 1e-12
    if boundary is Boundary.PERIODIC:
        assert np.all(np.diff(traj.per_step_tv) <= 1e-12)
        assert traj.final.values.sum() == pytest.approx(vals.sum(), abs=1e-12)


@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@few
@given(pair=state_pairs)
def test_periodic_l1_contraction(kind, spec, pair):
    u, v = (field(p) for p in pair)
    dt = 0.5 * u.grid.dx  # CFL-safe for both: |f'| <= 1 on [-1, 1]
    cfg = scheme(kind, spec, Boundary.PERIODIC)
    for _ in range(4):
        before = l1_distance(u, v)
        u, v = step(u, cfg, dt), step(v, cfg, dt)
        assert l1_distance(u, v) <= before + 1e-12


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@few
@given(vals=states, times=st.lists(st.floats(0.0, 0.25), max_size=3).map(sorted))
def test_evolve_equals_a_loop_of_steps(kind, spec, boundary, vals, times):
    u0, cfg = field(vals), scheme(kind, spec, boundary)
    traj = evolve(u0, cfg, snapshot_times=times, track_tv=True)
    dt, t_final = traj.dt_used, cfg.t_final
    if kind is NumFluxKind.LAX_FRIEDRICHS:  # evolve freezes lam = dt/dx of the CFL step
        dt_cfl = cfl_timestep(u0.grid, spec, float(vals.min()), float(vals.max()), cfg.cfl)
        lam = min(dt_cfl / u0.grid.dx, sys.float_info.max)
        cfg = replace(cfg, numflux=NumericalFluxSpec(kind, lam))
    states, clock, t = [u0], [0.0], 0.0
    while t < t_final - 1e-12 * max(1.0, t_final):
        dt_i = min(dt, t_final - t)
        states.append(step(states[-1], cfg, dt_i))
        t = min(t + dt_i, t_final)
        clock.append(t)
    periodic = boundary is Boundary.PERIODIC
    assert np.array_equal(traj.times, clock)
    assert np.array_equal(traj.final.values, states[-1].values)
    assert list(traj.per_step_tv) == [total_variation(f, periodic) for f in states]
    for snap in traj.snapshots:
        assert np.array_equal(snap.field.values, states[clock.index(snap.time)].values)


@pytest.mark.parametrize("spec", list(FluxSpec), ids=lambda s: s.value)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(a=values, b=values)
def test_godunov_matches_sampling_oracle(spec, a, b):
    lo, hi = min(a, b), max(a, b)
    u = np.linspace(lo, hi, 4097)
    if lo <= 0.0 <= hi:
        u = np.append(u, 0.0)
    f = flux_value(spec, u)
    want = f.min() if a <= b else f.max()
    got = numerical_flux(NumericalFluxSpec(NumFluxKind.GODUNOV), spec, a, b)
    assert abs(got - want) <= 1e-10
