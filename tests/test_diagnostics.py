import math

import numpy as np
import pytest

from roughwave import (
    Boundary,
    BoundInputs,
    CellField,
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    SchemeConfig,
    default_beta,
    evolve,
    fbm_initial_field,
    fit_rate,
    l1_distance,
    lip_bound_rhs,
    lip_plus,
    make_grid,
    total_variation,
    tv_time_integral,
)
from roughwave.solver import Trajectory


def field(values, x_left=0.0, x_right=1.0):
    values = np.asarray(values, dtype=float)
    return CellField(make_grid(x_left, x_right, len(values)), values)


def literal_trajectory(times, tvs, dt_used):
    return Trajectory(
        times=np.asarray(times, dtype=float),
        snapshots=(),
        per_step_tv=np.asarray(tvs, dtype=float),
        dt_used=dt_used,
        final=field([0.0, 0.0]),
    )


# --- total variation ---

def test_tv_constant_is_zero():
    assert total_variation(field([2.5] * 7)) == 0.0


def test_tv_single_bump():
    assert total_variation(field([0.0, 1.0, 0.0])) == 2.0


def test_tv_matches_direct_sum_oracle():
    rng = np.random.default_rng(123)
    v = rng.normal(size=1000)
    got = total_variation(field(v))
    want = sum(abs(v[i + 1] - v[i]) for i in range(len(v) - 1))
    assert got == pytest.approx(want, rel=1e-12)


def test_tv_periodic_adds_wrap_jump():
    f = field([0.0, 1.0, 3.0])
    assert total_variation(f) == 3.0
    assert total_variation(f, periodic=True) == 6.0


# --- lip plus ---

def test_lip_plus_examples():
    assert lip_plus(field([0.0, 0.5], 0.0, 0.5)) == pytest.approx(2.0)
    assert lip_plus(field([3.0, 2.0, 2.0, 1.5])) <= 0.0


def test_lip_plus_matches_direct_scan():
    rng = np.random.default_rng(321)
    v = rng.normal(size=500)
    f = field(v)
    want = max((v[i + 1] - v[i]) / f.grid.dx for i in range(len(v) - 1))
    assert lip_plus(f) == pytest.approx(want, rel=1e-12)


def test_lip_plus_periodic_includes_wrap_pair():
    f = field([0.9, 0.0, 0.1])
    assert lip_plus(f) == pytest.approx(0.1 / f.grid.dx)
    assert lip_plus(f, periodic=True) == pytest.approx(0.8 / f.grid.dx)


def test_lip_plus_needs_two_cells():
    with pytest.raises(ValueError):
        lip_plus(field([1.0]))


def test_tv_dominates_positive_lip_jump():
    rng = np.random.default_rng(77)
    for _ in range(20):
        f = field(rng.normal(size=64))
        assert total_variation(f) >= f.grid.dx * max(lip_plus(f), 0.0) - 1e-12


# --- l1 distance ---

def test_l1_distance_identity():
    f = field([1.0, -2.0, 3.0])
    assert l1_distance(f, f) == 0.0


def test_l1_distance_mean_then_difference():
    a = field([0.0])
    b = field([1.0, 3.0])
    assert l1_distance(a, b) == pytest.approx(2.0)


def test_l1_distance_is_a_metric_on_common_grid():
    rng = np.random.default_rng(9)
    fs = [field(rng.normal(size=32)) for _ in range(3)]
    a, b, c = fs
    assert l1_distance(a, b) == pytest.approx(l1_distance(b, a), rel=1e-12)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12
    assert l1_distance(a, b) > 0.0


def test_l1_distance_projection_gap_matches_quadrature_oracle():
    f = np.cos
    # cell averages of f by the 8-point midpoint rule on 128 and 16 cells
    pts_fine = (np.arange(128 * 8) + 0.5) / (128 * 8)
    fine_means = f(pts_fine).reshape(128, 8).mean(axis=1)
    pts_coarse = (np.arange(16 * 8) + 0.5) / (16 * 8)
    coarse_means = f(pts_coarse).reshape(16, 8).mean(axis=1)
    got = l1_distance(field(coarse_means), field(fine_means))
    # oracle: average the fine means onto the coarse cells by hand
    coarse_of_fine = fine_means.reshape(16, 8).mean(axis=1)
    want = np.abs(coarse_means - coarse_of_fine).sum() / 16
    assert got == pytest.approx(want, rel=1e-12)
    assert got < 1e-3  # smooth integrand: the two quadratures nearly agree


def test_l1_distance_rejects_incompatible_grids():
    with pytest.raises(ValueError):
        l1_distance(field([0.0, 1.0]), field([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        l1_distance(field([0.0, 1.0]), field([0.0, 1.0, 2.0, 3.0], 0.0, 2.0))


# --- tv time integral ---

def test_tv_time_integral_single_step_convention():
    traj = literal_trajectory([0.0, 0.1], [2.0, 2.0], 0.1)
    assert tv_time_integral(traj) == pytest.approx(0.4)


def test_tv_time_integral_zero_step_trajectory():
    traj = literal_trajectory([0.0], [5.0], 0.01)
    assert tv_time_integral(traj) == 0.0


def test_tv_time_integral_constant_state():
    state = field([1.0] * 16)
    cfg = SchemeConfig(
        flux=FluxSpec.BURGERS,
        numflux=NumericalFluxSpec(NumFluxKind.GODUNOV),
        t_final=0.1,
    )
    assert tv_time_integral(evolve(state, cfg, track_tv=True)) == 0.0


def test_tv_time_integral_needs_tracked_tv():
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 32), 5)
    cfg = SchemeConfig(
        flux=FluxSpec.BURGERS,
        numflux=NumericalFluxSpec(NumFluxKind.GODUNOV),
        t_final=0.1,
    )
    traj = evolve(u0, cfg)
    assert traj.per_step_tv is None
    with pytest.raises(ValueError, match="track_tv=True"):
        tv_time_integral(traj)


def test_tv_time_integral_matches_snapshot_recomputation():
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 128), 5)
    cfg = SchemeConfig(
        flux=FluxSpec.BURGERS,
        numflux=NumericalFluxSpec(NumFluxKind.GODUNOV),
        t_final=0.3,
    )
    traj = evolve(u0, cfg, snapshot_times=evolve(u0, cfg).times, track_tv=True)
    weights = np.full(len(traj.times), traj.dt_used)
    weights[-1] = traj.times[-1] - traj.times[-2]
    want = sum(w * total_variation(s.field) for w, s in zip(weights, traj.snapshots))
    assert tv_time_integral(traj) == pytest.approx(want, rel=1e-12)


# --- bound inputs and bounds ---

def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(beta=0.0)
    with pytest.raises(ValueError):
        BoundInputs(beta=0.125, dt=float("inf"))


def test_default_beta():
    assert default_beta(FluxSpec.BURGERS, NumFluxKind.GODUNOV) == 0.125
    with pytest.raises(ValueError):
        default_beta(FluxSpec.BURGERS, NumFluxKind.RUSANOV)
    with pytest.raises(ValueError):
        default_beta(FluxSpec.CUBIC, NumFluxKind.GODUNOV)


def test_lip_bound_rhs_spot_value():
    b = BoundInputs(beta=0.125, lip_plus_0=10.0, dt=0.01, t_n=1.0, m_support=0.5)
    want = 2 * 0.5 * (10 * 0.01 + 8 * math.log(2.25))
    assert lip_bound_rhs(b) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(6.58744, abs=5e-6)


def test_lip_bound_rhs_degenerate_and_monotone():
    b0 = BoundInputs(beta=0.125, lip_plus_0=3.0, dt=0.0, t_n=0.0)
    assert lip_bound_rhs(b0) == 0.0
    prev = -1.0
    for t in (0.1, 0.5, 1.0, 2.0):
        b = BoundInputs(beta=0.125, lip_plus_0=3.0, dt=0.0, t_n=t)
        cur = lip_bound_rhs(b)
        assert cur >= prev
        prev = cur


def test_lip_bound_rhs_rejects_nonpositive_seminorm():
    with pytest.raises(ValueError):
        lip_bound_rhs(BoundInputs(beta=0.125, lip_plus_0=0.0, dt=0.1, t_n=1.0))
    with pytest.raises(ValueError):
        lip_bound_rhs(BoundInputs(beta=0.125, lip_plus_0=-2.0, dt=0.1, t_n=1.0))


# --- rate fitting ---

def test_fit_rate_exact_power_laws():
    pts = [(h, h) for h in (0.5, 0.25, 0.125, 0.0625)]
    slope, _ = fit_rate(pts)
    assert slope == pytest.approx(1.0, abs=1e-12)
    pts = [(h, 3.0 * h**0.5) for h in (0.5, 0.25, 0.125)]
    slope, intercept = fit_rate(pts)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_rate_noisy_synthetic():
    rng = np.random.default_rng(6)
    hs = [2.0**-k for k in range(4, 12)]
    pts = [(h, h**0.7 * (1.0 + rng.uniform(-0.01, 0.01))) for h in hs]
    slope, _ = fit_rate(pts)
    assert 0.65 < slope < 0.75


def test_fit_rate_scale_invariance():
    pts = [(2.0**-k, 2.0 ** (-0.6 * k)) for k in range(3, 9)]
    s1, i1 = fit_rate(pts)
    s2, i2 = fit_rate([(h, 7.0 * e) for h, e in pts])
    assert s2 == pytest.approx(s1, abs=1e-12)
    assert i2 == pytest.approx(i1 + math.log(7.0), abs=1e-12)


def test_fit_rate_validates_input():
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.5, 2.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (-0.25, 2.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 0.0), (0.25, 2.0)])
