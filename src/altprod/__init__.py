"""altprod: high-precision alternating infinite products and their closed forms.

Subpackage map:

- ``numkernel``   arbitrary-precision substrate (Real, digits-to-bits sizing,
  agreement metric, truncating decimal rendering)
- ``zetagamma``   log-gamma, Hurwitz zeta and its s-derivative, Barnes G
- ``constants``   named constants, each with two independent routes
- ``accel``       sequence-limit machinery (CRVZ alternating sums, Euler
  transform, Wynn epsilon, Richardson extrapolation, adaptive driver)
- ``products``    alternating-product records: exact partials, log-partials,
  bridge factors, accelerated limits, key-value spec parsing
- ``eulerfuncs``  product-defined special functions (ratio-limit function D,
  even/odd split E, generalized little-gamma constants, Dirichlet-style
  s-derivative values)
- ``exprlang``    tiny expression language for closed forms and, with one
  integer variable bound, for product fields
- ``harness``     identity registry, verification engine, JSON reports
- ``cli``         the ``altprod`` command
"""

from .accel import estimate_limit
from .constants import constant, decimal_digits
from .eulerfuncs import D, E, LerchDerivQuery, phi_sderiv
from .exprlang import ConstExpr, ParseDiagnostic, eval_expr, parse, print_expr
from .harness import (
    IdentityRecord,
    Registry,
    VerificationReport,
    convergence_table,
    default_registry,
    load_registry,
    verify,
    verify_all,
)
from .numkernel import (
    DomainError,
    NonConvergenceError,
    OracleRangeError,
    Real,
    SpecError,
    agreement_digits,
    bits_for_digits,
    digits_for_bits,
    to_real,
    truncated_decimal,
)
from .products import builtin, limit, parse_product_spec, partial_exact

__version__ = "0.1.0"

__all__ = [
    "ConstExpr",
    "D",
    "DomainError",
    "E",
    "IdentityRecord",
    "LerchDerivQuery",
    "NonConvergenceError",
    "OracleRangeError",
    "ParseDiagnostic",
    "Real",
    "Registry",
    "SpecError",
    "VerificationReport",
    "agreement_digits",
    "bits_for_digits",
    "builtin",
    "constant",
    "convergence_table",
    "decimal_digits",
    "default_registry",
    "digits_for_bits",
    "estimate_limit",
    "eval_expr",
    "limit",
    "load_registry",
    "parse",
    "parse_product_spec",
    "partial_exact",
    "phi_sderiv",
    "print_expr",
    "to_real",
    "truncated_decimal",
    "verify",
    "verify_all",
    "__version__",
]
