"""The bounded-time subprocess helper that the hang regressions rely on."""

import pytest
from bounded import run_bounded


def test_run_bounded_fails_the_test_when_the_child_outlives_its_budget():
    with pytest.raises(pytest.fail.Exception, match="did not finish within 0.5 s"):
        run_bounded("import time; time.sleep(60)", budget_s=0.5)
