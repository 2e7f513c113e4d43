"""The input records (``Grid``, ``NumericalFluxSpec``, ``SchemeConfig`` and
``StudyConfig``) settle their own fields: what a caller passes is stored in one
canonical form (a plain float or int, an enum member, None, or a tuple of these) or
refused when the record is built, and a study's manifest config round-trips through
JSON."""

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughwave import (
    Boundary,
    CellField,
    FluxSpec,
    Grid,
    NumericalFluxSpec,
    NumFluxKind,
    SchemeConfig,
    SplitMix64,
    StudyConfig,
    config_from_dict,
    config_to_dict,
    evolve,
    fbm_initial_field,
    make_grid,
    restrict,
    run_samples_parallel,
    sample_seed,
)
from roughwave.flux import PAIRS

GODUNOV = NumericalFluxSpec(NumFluxKind.GODUNOV)


def study(**kw):
    return StudyConfig(**{"equation": FluxSpec.BURGERS, "numflux": GODUNOV,
                          "hurst_list": (0.5,), "resolutions": (3, 4), "reference_exponent": 6,
                          "n_samples": 1, "base_seed": 1, "t_final": 0.25, **kw})


def march(law=FluxSpec.BURGERS, numflux=GODUNOV, boundary=Boundary.OUTFLOW):
    """The bits of one draw marched to t = 0.25 with the scheme of these fields."""
    u0 = fbm_initial_field(0.5, make_grid(0, 1, 64), 0)
    return evolve(u0, SchemeConfig(law, numflux, 0.25, boundary=boundary)).final.values.tobytes()


def converge(cfg):
    """A ``converge`` run's manifest config, as its JSON text, and its rows."""
    return json.dumps(config_to_dict(cfg)), run_samples_parallel("converge", cfg).rows


# an input in another form than the canonical one, and its canonical twin
TWINS = {
    "periodic boundary as its value string": (
        lambda: march(boundary="periodic"), lambda: march(boundary=Boundary.PERIODIC)),
    "scheme law and flux kind as value strings": (
        lambda: march("burgers", NumericalFluxSpec("godunov")), lambda: march()),
    "study law as its value string": (
        lambda: converge(study(equation="burgers")), lambda: converge(study())),
    "scheme flux kind as a member": (
        lambda: march(numflux=NumFluxKind.GODUNOV), lambda: march()),
    "scheme flux kind as its value string": (lambda: march(numflux="godunov"), lambda: march()),
    "study flux kind as its value string": (
        lambda: converge(study(numflux="godunov")), lambda: converge(study())),
    "float32 cfl": (
        lambda: converge(study(cfl=np.float32(0.3))),
        lambda: converge(study(cfl=0.30000001192092896))),
    "float32 t_final": (
        lambda: converge(study(t_final=np.float32(0.25))), lambda: converge(study())),
    "float32 beta": (
        lambda: json.dumps(config_to_dict(study(beta=np.float32(0.5)))),
        lambda: json.dumps(config_to_dict(study(beta=0.5)))),
}


@pytest.mark.parametrize("case", TWINS)
def test_an_input_behaves_as_its_canonical_twin(case):
    odd, canonical = TWINS[case]
    assert odd() == canonical()


def field_of(n):
    return CellField(make_grid(0, 1, n), np.zeros(n))


# a non-integer count, level or seed, or a string that names no member, raises when
# the record is built or the function called, as ``range(2.5)`` does
REFUSED = {
    "StudyConfig resolutions (3.7, 4)": (ValueError, lambda: study(resolutions=(3.7, 4))),
    "make_grid(0, 1, 8.9)": (TypeError, lambda: make_grid(0, 1, 8.9)),
    "Grid(0.0, 1.0, 8.5)": (TypeError, lambda: Grid(0.0, 1.0, 8.5)),
    "restrict by 2.5": (TypeError, lambda: restrict(field_of(8), 2.5)),
    "SplitMix64(1.5)": (TypeError, lambda: SplitMix64(1.5)),
    "fbm_initial_field seed 2.5": (
        TypeError, lambda: fbm_initial_field(0.5, make_grid(0, 1, 8), 2.5)),
    "sample_seed(7.9, 0)": (TypeError, lambda: sample_seed(7.9, 0)),
    "sample_seed(7, 0.5)": (TypeError, lambda: sample_seed(7, 0.5)),
    "SchemeConfig law 'BURGERS'": (
        ValueError, lambda: SchemeConfig("BURGERS", GODUNOV, 0.25)),
    "StudyConfig boundary 'wrap'": (ValueError, lambda: study(boundary="wrap")),
    "SchemeConfig numflux 'roe'": (ValueError, lambda: SchemeConfig("burgers", "roe", 0.25)),
    "StudyConfig numflux None": (ValueError, lambda: study(numflux=None)),
}


@pytest.mark.parametrize("case", REFUSED)
def test_an_input_with_no_canonical_form_is_refused(case):
    error, build = REFUSED[case]
    with pytest.raises(error):
        build()


def stored(record):
    """(name, value) of every field of ``record``, a nested record's fields in its place."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if dataclasses.is_dataclass(value):
            yield from stored(value)
        else:
            yield f"{type(record).__name__}.{field.name}", value


def plain(value):
    if isinstance(value, tuple):
        return all(map(plain, value))
    return value is None or type(value) in (float, int) or isinstance(value, enum.Enum)


# every field each record takes, given as numpy scalars and enum value strings; a field
# added to a record must be added here, where it fails unless the record settles it
NUMPY_INPUTS = {
    Grid: dict(x_left=np.int32(0), x_right=np.float32(1.0), n_cells=np.int64(8)),
    NumericalFluxSpec: dict(kind="lax_friedrichs", lam=np.float32(0.5)),
    SchemeConfig: dict(flux="cubic", numflux=NumericalFluxSpec("rusanov", None),
                       t_final=np.float32(0.5), cfl=np.float64(0.5), boundary="periodic"),
    StudyConfig: dict(equation="linear", numflux=NumericalFluxSpec("upwind", np.float64(2.0)),
                      hurst_list=np.array([0.25, 0.5]),
                      resolutions=(np.int64(3), np.int32(4)),
                      reference_exponent=np.int16(6), n_samples=np.uint8(2),
                      base_seed=np.uint64(2**64 - 1), t_final=np.float32(0.5),
                      cfl=np.float16(0.5), boundary="periodic",
                      snapshot_times=(np.float32(0.25), 0.5), beta=np.float32(0.5)),
}


@pytest.mark.parametrize("record", NUMPY_INPUTS, ids=lambda record: record.__name__)
def test_a_record_stores_plain_types(record):
    kwargs = NUMPY_INPUTS[record]
    assert set(kwargs) == {field.name for field in dataclasses.fields(record) if field.init}
    built = record(**kwargs)
    odd = {name: value for name, value in stored(built) if not plain(value)}
    assert odd == {}


REALS = (float, np.float64, np.float32)


def real(low, high):
    """A float32-exact real in [low, high], as a float, a numpy float64 or a float32."""
    return st.builds(lambda x, kind: kind(x), st.floats(low, high, width=32),
                     st.sampled_from(REALS))


def member(value):
    return st.sampled_from((value, value.value))


@st.composite
def study_configs(draw):
    kind, law = draw(st.sampled_from(PAIRS))
    levels = sorted(draw(st.lists(st.integers(1, 25), min_size=1, max_size=4, unique=True)))
    hurst = draw(st.lists(st.floats(2**-8, 1 - 2**-8, width=32), min_size=1, max_size=3,
                          unique=True))
    t_final = draw(st.just(0.0) | st.floats(2**-20, 64.0, width=32))
    times = sorted(draw(st.lists(st.floats(0.0, t_final, width=32), max_size=3)))
    integer = st.sampled_from((int, np.int64, np.int32))
    return StudyConfig(
        equation=draw(member(law)),
        numflux=NumericalFluxSpec(draw(member(kind)), draw(st.none() | real(2**-10, 2**10))),
        hurst_list=tuple(draw(st.sampled_from(REALS))(h) for h in hurst),
        resolutions=tuple(draw(integer)(k) for k in levels),
        reference_exponent=draw(integer)(draw(st.integers(levels[-1] + 1, 26))),
        n_samples=draw(integer)(draw(st.integers(1, 1000))),
        base_seed=draw(st.sampled_from((int, np.uint64)))(draw(st.integers(0, 2**64 - 1))),
        t_final=draw(st.sampled_from(REALS))(t_final),
        cfl=draw(real(2**-10, 1.0)),
        boundary=draw(member(draw(st.sampled_from(Boundary)))),
        snapshot_times=tuple(draw(st.sampled_from(REALS))(t) for t in times),
        beta=draw(st.none() | real(2**-10, 2**10)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cfg=study_configs())
def test_manifest_config_round_trips_through_json(cfg):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
