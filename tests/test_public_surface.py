"""The public contract: the names ``altprod`` exports, and the scripts that
import them."""

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from bounded import run_bounded

import altprod

ROOT = Path(__file__).resolve().parents[1]

EXPECTED_ALL = {
    "ConstExpr", "D", "DomainError", "E", "IdentityRecord", "LerchDerivQuery",
    "NonConvergenceError", "OracleRangeError", "ParseDiagnostic", "Real",
    "Registry", "SpecError", "VerificationReport", "agreement_digits",
    "bits_for_digits", "builtin", "constant", "convergence_table",
    "decimal_digits", "default_registry", "digits_for_bits", "estimate_limit",
    "eval_expr", "limit", "load_registry", "parse", "parse_product_spec",
    "partial_exact", "phi_sderiv", "print_expr", "to_real", "truncated_decimal",
    "verify", "verify_all", "__version__",
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(altprod.__all__) == len(set(altprod.__all__))
    assert set(altprod.__all__) == EXPECTED_ALL
    for name in altprod.__all__:
        assert getattr(altprod, name) is not None, name


SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
# the examples' real path at small sizes: these flags take these values
SMALL = {"--digits": "20", "--max-terms": "256"}


def documented_example(script: str):
    """The arguments of ``python scripts/<script> ...``, the line after
    ``Example:`` in the script's docstring, or None when there is none."""
    doc = ast.get_docstring(ast.parse((ROOT / "scripts" / script).read_text())) or ""
    lines = [line.strip() for line in doc.splitlines()]
    if "Example:" not in lines:
        return None
    argv = shlex.split(lines[lines.index("Example:") + 1])
    if argv[:2] != ["python", f"scripts/{script}"]:
        return None
    return argv[2:]


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_runs(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs_its_documented_example_at_small_digits(script):
    args = documented_example(script)
    assert args is not None, f"{script} documents no 'python scripts/{script} ...' example"
    args = [SMALL.get(prev, arg) for prev, arg in zip([None] + args, args)]
    path = str(ROOT / "scripts" / script)
    code = (
        f"import runpy, sys; sys.argv = {[path] + args!r}; "
        f"runpy.run_path({path!r}, run_name='__main__')"
    )
    run = run_bounded(code, budget_s=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip(), f"{script} printed nothing"
