"""The ``march`` fixture: a test that takes it runs on the compiled kernels of
``_march.c``, the package's only kernel set, which its one parameter names in the
test ids."""

import pytest


@pytest.fixture(params=["compiled"])
def march(request):
    return request.param
