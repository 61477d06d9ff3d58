"""Each test module runs at its own mpmath precision: the ``MP_DPS`` it sets,
or mpmath's default of 15 digits, restored when the module's tests are done,
so no module's setting leaks into another's."""

import mpmath as mp
import pytest


@pytest.fixture(autouse=True, scope="module")
def _mp_precision(request):
    with mp.workdps(getattr(request.module, "MP_DPS", 15)):
        yield
