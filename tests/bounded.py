"""Run a Python snippet in a fresh interpreter under a wall-clock budget.

A call that regresses into a hang then fails its test after ``budget_s``
seconds instead of stalling the suite.  The child imports altprod from this
checkout's ``src``, so the package need not be installed; a CLI call goes
through ``from altprod.cli import main``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_bounded(code: str, budget_s: float) -> subprocess.CompletedProcess:
    """``python -c code`` with its output captured; fails the calling test
    if the child is still running after ``budget_s`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    try:
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=budget_s,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"did not finish within {budget_s} s: {code!r}")


def cli_snippet(*argv: str) -> str:
    """The ``python -c`` code that runs ``altprod <argv>`` and exits with its code."""
    return f"import sys; from altprod.cli import main; sys.exit(main({list(argv)!r}))"
