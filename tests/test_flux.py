import sys

import numpy as np
import pytest

from roughwave import (
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    check_monotone,
    flux_value,
    max_wave_speed,
    numerical_flux,
)
from roughwave.flux import PAIRS

GODUNOV = NumericalFluxSpec(NumFluxKind.GODUNOV)
RUSANOV = NumericalFluxSpec(NumFluxKind.RUSANOV)
ENGQUIST_OSHER = NumericalFluxSpec(NumFluxKind.ENGQUIST_OSHER)
UPWIND = NumericalFluxSpec(NumFluxKind.UPWIND)


def lax_friedrichs(lam):
    return NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam)


ALL_SPECS = (FluxSpec.BURGERS, FluxSpec.CUBIC, FluxSpec.LINEAR)
TWO_POINT_FLUXES = (
    NumericalFluxSpec(NumFluxKind.GODUNOV),
    NumericalFluxSpec(NumFluxKind.RUSANOV),
    NumericalFluxSpec(NumFluxKind.ENGQUIST_OSHER),
    NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam=1.0),
)


def dense_extremum(spec, a, b, n=100_000):
    """Sampling min/max oracle: f over a dense grid of [a, b] plus the
    endpoints and the stationary point u = 0."""
    lo, hi = min(a, b), max(a, b)
    u = np.linspace(lo, hi, n)
    if lo <= 0.0 <= hi:
        u = np.append(u, 0.0)
    f = flux_value(spec, u)
    return f.min() if a <= b else f.max()


def test_flux_closed_forms():
    # max_wave_speed over a one-point interval is |f'| there
    assert flux_value(FluxSpec.BURGERS, 2.0) == 2.0
    assert max_wave_speed(FluxSpec.BURGERS, 2.0, 2.0) == 2.0
    assert flux_value(FluxSpec.CUBIC, -1.0) == pytest.approx(-1 / 3, rel=1e-15)
    assert max_wave_speed(FluxSpec.CUBIC, -1.0, -1.0) == 1.0
    assert flux_value(FluxSpec.LINEAR, 0.37) == 0.37
    assert max_wave_speed(FluxSpec.LINEAR, -5.0, -5.0) == 1.0


def test_flux_vectorized():
    u = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(flux_value(FluxSpec.BURGERS, u), [0.5, 0.0, 2.0])
    assert np.array_equal(flux_value(FluxSpec.CUBIC, u), [-1 / 3, 0.0, 8 / 3])
    v = np.array([0.5, -1.0, -1.0])
    assert np.array_equal(numerical_flux(GODUNOV, FluxSpec.BURGERS, u, v), [0.0, 0.5, 2.0])
    assert np.array_equal(numerical_flux(ENGQUIST_OSHER, FluxSpec.BURGERS, u, v),
                          [0.0, 0.5, 2.5])


def test_godunov_examples():
    assert numerical_flux(GODUNOV, FluxSpec.BURGERS, -1.0, 1.0) == 0.0
    assert numerical_flux(GODUNOV, FluxSpec.BURGERS, 1.0, -1.0) == 0.5
    for spec in ALL_SPECS:
        for c in (-0.7, 0.0, 1.3):
            assert numerical_flux(GODUNOV, spec, c, c) == pytest.approx(
                flux_value(spec, c), abs=1e-15
            )


def test_godunov_matches_dense_oracle():
    rng = np.random.default_rng(424242)
    pairs = rng.uniform(-1, 1, size=(10_000, 2))
    for spec in (FluxSpec.BURGERS, FluxSpec.CUBIC):
        got = numerical_flux(GODUNOV, spec, pairs[:, 0], pairs[:, 1])
        want = np.array([dense_extremum(spec, a, b, n=4097) for a, b in pairs])
        assert np.max(np.abs(got - want)) <= 1e-10


def test_rusanov_examples():
    assert numerical_flux(RUSANOV, FluxSpec.BURGERS, 1.0, -1.0) == pytest.approx(1.5, abs=1e-15)
    assert numerical_flux(RUSANOV, FluxSpec.LINEAR, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # endpoint speed max(a^2, b^2) = 1 for the cubic law
    assert numerical_flux(RUSANOV, FluxSpec.CUBIC, 0.5, -1.0) == pytest.approx(
        (1 / 24 - 1 / 3) / 2 + 0.75, abs=1e-15
    )
    assert numerical_flux(RUSANOV, FluxSpec.CUBIC, 0.5, 0.5) == pytest.approx(
        flux_value(FluxSpec.CUBIC, 0.5), abs=1e-15
    )


def test_lax_friedrichs_examples():
    assert numerical_flux(lax_friedrichs(0.5), FluxSpec.BURGERS, 1.0, -1.0) == pytest.approx(2.5)
    assert numerical_flux(lax_friedrichs(0.25), FluxSpec.LINEAR, 0.0, 0.0) == 0.0
    assert numerical_flux(lax_friedrichs(2.0), FluxSpec.BURGERS, 0.3, 0.3) == pytest.approx(
        flux_value(FluxSpec.BURGERS, 0.3), abs=1e-15
    )
    for lam in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            numerical_flux(lax_friedrichs(lam), FluxSpec.BURGERS, 0.0, 0.0)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def eo_integral_oracle(spec, a, b, n=200_001):
    """Quadrature of the derivative splitting, anchored at 0."""
    deriv = {FluxSpec.BURGERS: lambda s: s, FluxSpec.CUBIC: lambda s: s * s,
             FluxSpec.LINEAR: np.ones_like}[spec]

    def part(x, clip):
        s = np.linspace(0.0, x, n)
        return _trapezoid(clip(deriv(s), 0.0), s)

    return part(a, np.maximum) + part(b, np.minimum) + flux_value(spec, 0.0)


def test_engquist_osher_examples():
    assert numerical_flux(ENGQUIST_OSHER, FluxSpec.BURGERS, 1.0, -1.0) == pytest.approx(1.0)
    # cubic has f' >= 0 everywhere, so the flux is pure upwind: f(a)
    assert numerical_flux(ENGQUIST_OSHER, FluxSpec.CUBIC, -1.0, 1.0) == pytest.approx(-1 / 3)
    for c in (-0.5, 0.0, 0.8):
        assert numerical_flux(ENGQUIST_OSHER, FluxSpec.BURGERS, c, c) == pytest.approx(
            flux_value(FluxSpec.BURGERS, c), abs=1e-15
        )


def test_engquist_osher_matches_integral_oracle():
    rng = np.random.default_rng(99)
    for spec in ALL_SPECS:
        for a, b in rng.uniform(-1, 1, size=(25, 2)):
            got = numerical_flux(ENGQUIST_OSHER, spec, a, b)
            assert got == pytest.approx(eo_integral_oracle(spec, a, b), abs=1e-8)


def test_upwind_examples():
    assert numerical_flux(UPWIND, FluxSpec.LINEAR, 3.0, 7.0) == 3.0
    assert numerical_flux(UPWIND, FluxSpec.LINEAR, 0.0, 0.0) == 0.0
    for spec in (FluxSpec.BURGERS, FluxSpec.CUBIC):
        with pytest.raises(ValueError):
            numerical_flux(UPWIND, spec, 1.0, 2.0)


def test_max_wave_speed():
    assert max_wave_speed(FluxSpec.BURGERS, -1.0, 1.0) == 1.0
    assert max_wave_speed(FluxSpec.CUBIC, -0.5, 1.0) == 1.0
    assert max_wave_speed(FluxSpec.LINEAR, -3.0, 9.0) == 1.0
    assert max_wave_speed(FluxSpec.BURGERS, -2.0, 0.5) == 2.0
    with pytest.raises(ValueError):
        max_wave_speed(FluxSpec.BURGERS, 1.0, -1.0)


def test_consistency_on_random_states():
    rng = np.random.default_rng(2718)
    a = rng.uniform(-1, 1, 10_000)
    for spec in ALL_SPECS:
        f = flux_value(spec, a)
        for numflux in TWO_POINT_FLUXES:
            assert np.max(np.abs(numerical_flux(numflux, spec, a, a) - f)) <= 1e-12
    up = NumericalFluxSpec(NumFluxKind.UPWIND)
    assert np.max(np.abs(numerical_flux(up, FluxSpec.LINEAR, a, a) - a)) == 0.0


def test_local_lipschitz_bound():
    # |F(a,b)-f(a)| + |F(a,b)-f(b)| <= C_F |b-a| with C_F = 3 max|f'|
    rng = np.random.default_rng(31415)
    a, b = rng.uniform(-1, 1, (2, 10_000))
    for spec in ALL_SPECS:
        c_f = 3.0 * max_wave_speed(spec, -1.0, 1.0)
        for numflux in TWO_POINT_FLUXES:
            f = numerical_flux(numflux, spec, a, b)
            lhs = np.abs(f - flux_value(spec, a)) + np.abs(f - flux_value(spec, b))
            assert np.all(lhs <= c_f * np.abs(b - a) + 1e-12)


def test_godunov_engquist_osher_upwind_agree_for_linear():
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-1, 1, (2, 1000))
    g = numerical_flux(GODUNOV, FluxSpec.LINEAR, a, b)
    e = numerical_flux(ENGQUIST_OSHER, FluxSpec.LINEAR, a, b)
    u = numerical_flux(UPWIND, FluxSpec.LINEAR, a, b)
    assert np.array_equal(g, u)
    assert np.array_equal(e, u)


def test_monotone_probe_passes_for_monotone_fluxes():
    assert check_monotone(NumericalFluxSpec(NumFluxKind.GODUNOV), FluxSpec.BURGERS).passed
    assert check_monotone(NumericalFluxSpec(NumFluxKind.RUSANOV), FluxSpec.CUBIC).passed
    assert check_monotone(
        NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam=1.0), FluxSpec.BURGERS
    ).passed
    assert check_monotone(NumericalFluxSpec(NumFluxKind.UPWIND), FluxSpec.LINEAR).passed


def test_monotone_probe_catches_bad_cfl():
    # lambda = 2 violates lambda * max|f'| <= 1 on [-1, 1]
    report = check_monotone(
        NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS, lam=2.0), FluxSpec.BURGERS
    )
    assert not report.passed
    assert report.worst_violation > 1e-10


def test_lax_friedrichs_requires_lambda_via_dispatch():
    with pytest.raises(ValueError):
        numerical_flux(NumericalFluxSpec(NumFluxKind.LAX_FRIEDRICHS), FluxSpec.BURGERS, 0.1, 0.2)


# signed zeros, subnormals, values whose squares and cubes overflow, and
# +-1.2256e-154, whose square Engquist-Osher must form as ``0.5*(u*u)``
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, 1.4e-154, -1.6e-154,
           0.5, -1.0, 3.0, 1e154, -1e154, 9.9e153, 1.2e154, -1.7e154,
           1.225621795641083e-154, -1.225621795641083e-154]


@pytest.mark.parametrize("kind, spec", PAIRS, ids=[f"{k.value}-{s.value}" for k, s in PAIRS])
def test_scalar_inputs_return_the_bits_of_one_element_arrays(kind, spec):
    mismatches = []
    for lam in (0.37, 1.0, 3e-7, sys.float_info.max):
        numflux = NumericalFluxSpec(kind, lam if kind is NumFluxKind.LAX_FRIEDRICHS else None)
        for a in SPECIAL:
            for b in SPECIAL:
                with np.errstate(all="ignore"):
                    got = numerical_flux(numflux, spec, a, b)
                    want = numerical_flux(numflux, spec, np.array([a]), np.array([b]))
                assert isinstance(got, float), (a, b, type(got))
                if np.float64(got).tobytes() != want.tobytes():
                    mismatches.append((lam, a, b))
    assert mismatches == []
