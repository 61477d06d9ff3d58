"""The public contract: the names ``altprod`` exports, and the scripts that
import them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
)
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
