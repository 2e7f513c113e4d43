"""``numerical_flux`` and ``flux_value`` pinned to a reference transcription.

- ``numerical_flux`` and the reference expressions below (the oracle) give the
  same bits for all 13 (numflux, law) pairs, on signed zeros, subnormals,
  values whose squares and cubes overflow, and mixed signs, with the kernel's
  layout of both arguments as views of one state.  The pairs whose flux is
  ``a`` itself return that view.
- ``flux_value`` gives the oracle's bits for every law.
- Scalar inputs still give a scalar with the oracle's bits (1.2256e-154 is one
  of the values whose square Engquist-Osher must form as ``0.5*(u*u)``).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughwave import (
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    flux_value,
    numerical_flux,
)
from roughwave.flux import PAIRS

PAIR_IDS = [f"{kind.value}-{spec.value}" for kind, spec in PAIRS]
LF = NumFluxKind.LAX_FRIEDRICHS
VIEW_PAIRS = {(kind, FluxSpec.LINEAR) for kind in NumFluxKind} - {
    (NumFluxKind.RUSANOV, FluxSpec.LINEAR), (LF, FluxSpec.LINEAR)}

MAX_FACES = 24

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, 1.4e-154, -1.6e-154,
           0.5, -1.0, 3.0, 1e154, -1e154, 9.9e153, 1.2e154, -1.7e154]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(-2.0, 2.0), st.floats(-1e155, 1e155),
                   st.floats(-1.5e-154, 1.5e-154), st.floats(-1e-300, 1e-300))
states = arrays(np.float64, st.integers(2, MAX_FACES + 1), elements=values)
lams = st.sampled_from([0.37, 1.0, 3e-7, sys.float_info.max])
bit_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def old_flux_value(spec, u):
    if spec is FluxSpec.BURGERS:
        return 0.5 * u * u
    if spec is FluxSpec.CUBIC:
        return u * u * u / 3.0
    return u


def old_numerical_flux(numflux, spec, a, b):
    kind = numflux.kind
    if kind is NumFluxKind.LAX_FRIEDRICHS:
        return (0.5 * (old_flux_value(spec, a) + old_flux_value(spec, b))
                - (b - a) / (2.0 * numflux.lam))
    if kind is NumFluxKind.RUSANOV:
        if spec is FluxSpec.BURGERS:
            s = np.maximum(np.abs(a), np.abs(b))
        elif spec is FluxSpec.CUBIC:
            s = np.maximum(a * a, b * b)
        else:
            s = 1.0
        return 0.5 * (old_flux_value(spec, a) + old_flux_value(spec, b)) - 0.5 * s * (b - a)
    if spec is not FluxSpec.BURGERS:
        return old_flux_value(spec, a)
    pos = np.maximum(a, 0.0)
    neg = np.minimum(b, 0.0)
    if kind is NumFluxKind.GODUNOV:
        return np.maximum(old_flux_value(spec, pos), old_flux_value(spec, neg))
    return 0.5 * pos**2 + 0.5 * neg**2


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def spec_of(kind, lam):
    return NumericalFluxSpec(kind, lam if kind is LF else None)


@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@bit_settings
@given(w=states, lam=lams)
def test_numerical_flux_matches_oracle(kind, spec, w, lam):
    a, b = w[:-1], w[1:]  # the kernel's layout: both views of one state
    numflux = spec_of(kind, lam)
    with np.errstate(all="ignore"):
        want = old_numerical_flux(numflux, spec, a, b)
        got = numerical_flux(numflux, spec, a, b)
    assert np.array_equal(bits(got), bits(want))
    if (kind, spec) in VIEW_PAIRS:
        assert got is a
    else:
        assert not np.shares_memory(got, w)


@pytest.mark.parametrize("spec", list(FluxSpec), ids=lambda s: s.value)
@bit_settings
@given(u=arrays(np.float64, st.integers(1, MAX_FACES), elements=values))
def test_flux_value_matches_oracle(spec, u):
    with np.errstate(all="ignore"):
        want = old_flux_value(spec, u)
        got = flux_value(spec, u)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("kind, spec", PAIRS, ids=PAIR_IDS)
@pytest.mark.parametrize("a, b", [(0.3, -0.7), (-0.0, 1e-310), (1e154, -1e154),
                                  (-2.0, 5e-324), (1.225621795641083e-154, -8.2e-155)])
def test_scalar_inputs_return_todays_scalar(kind, spec, a, b):
    numflux = spec_of(kind, 0.37)
    with np.errstate(all="ignore"):
        want, got = old_numerical_flux(numflux, spec, a, b), numerical_flux(numflux, spec, a, b)
    assert np.ndim(got) == 0 and isinstance(got, float)
    assert bits(got) == bits(want)
