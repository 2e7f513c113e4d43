"""The ``march`` fixture: a test that takes it runs once under each march of
``evolve``, the compiled one and the numpy one (``_advance``), which must give the
same bits.  The numpy march is switched on by replacing the library loader."""

import pytest

import roughwave.solver as solver


@pytest.fixture(params=["compiled", "numpy"])
def march(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(solver, "_load_march", lambda: None)
    elif solver._load_march() is None:
        pytest.skip("no C compiler: evolve runs the numpy march only")
    return request.param
