"""The ``march`` fixture: a test that takes it runs once with the compiled kernels of
``_march.c`` (the march of ``evolve``, the fBm draw and the restriction) and once
with their numpy code, which must give the same bits.  The numpy code is switched
on by replacing the library loader."""

import pytest

from roughwave import _kernels


@pytest.fixture(params=["compiled", "numpy"])
def march(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(_kernels, "load", lambda: None)
    elif _kernels.load() is None:
        pytest.skip("no C compiler: only the numpy kernels run")
    return request.param
