"""Declarative evaluation of alternating infinite products.

A product is described by a factor base (a positive rational function of the
factor index k), an integer exponent formula (rational in k, optionally
carrying a (-1)^k alternation), a per-factor rational power of e, a strictly
increasing truncation map from sequence index n to the last included k, and
an optional per-index closing factor ("bridge") of the form
base(n)^power(n) * e^epower(n) that is replaced, not accumulated, as n grows.
Every field is an `exprlang` expression in k or n, compiled once to an exact
rational function.

Partial products are available in two forms: exactly, as a rational number
times a rational power of e (the brute-force oracle, which multiplies
directly), and in log space for the limit machinery.  The log form never
takes a log per factor: the factors' numerators and denominators, and the
bridge's integer powers, are split into prime exponents that add up
exactly, and the log partial is one dot product of that exponent vector with
the primes' logs, rounded once.  Limits are delegated to the
sequence-acceleration module on the log-partial sequence.

Specs are built from a flat key-value text form; the built-in catalog goes
through the same parser, so user-defined products follow an identical code
path.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Tuple

from . import exprlang as ex
from . import numkernel as nk
from .accel import (
    PARTIAL_SUMS,
    RICHARDSON,
    LimitEstimate,
    SequenceGen,
    estimate_limit,
)
from .numkernel import DomainError, OracleRangeError, Real, SpecError

__all__ = [
    "BridgedProductSpec",
    "ExactPartial",
    "BUILTIN_NAMES",
    "builtin",
    "parse_product_spec",
    "partial_exact",
    "log_partial",
    "ProductEvalSession",
    "limit",
]

# exact-oracle integer budget: bits of numerator plus denominator, estimated
# before any big multiplication is attempted
ORACLE_BITS_CAP = 48_000_000


# -- field grammar ---------------------------------------------------------------
#
# Fields are exprlang expressions in k (factor, exponent, e_exponent) or n
# (upper, bridge).  The product grammar narrows exprlang's in one respect: a
# variable exponent is admitted only on the alternating atom (-1)^<expr> in
# `exponent`, and anywhere in a bridge base, which is how truncation-dependent
# closing factors like (2n+2)^(4n+5) are written.

_MINUS_ONE = ex.Unary("neg", ex.RationalLit(Fraction(1), ex.Span(0, 0)), ex.Span(0, 0))


def _check_powers(node, allow_alternation: bool, allow_var_base: bool, what: str) -> bool:
    """Enforce where a variable exponent may stand; returns whether the
    subtree uses the variable."""
    if isinstance(node, ex.Var):
        return True
    if isinstance(node, ex.RationalLit):
        return False
    if isinstance(node, ex.Unary):
        return _check_powers(node.operand, allow_alternation, allow_var_base, what)
    left = _check_powers(node.left, allow_alternation, allow_var_base, what)
    right = _check_powers(node.right, allow_alternation, allow_var_base, what)
    if node.op == "pow" and right and not (
        allow_var_base or (allow_alternation and node.left == _MINUS_ONE)
    ):
        raise SpecError(f"{what}: a variable exponent is only admitted on the (-1) atom")
    return left or right


def _compile_tree(text: str, var: str, *, alternation=False, var_base=False, what: str):
    try:
        tree, fn = ex.compile_field(text, var)
    except (SpecError, OracleRangeError) as err:
        raise type(err)(f"{what}: {err}") from None
    _check_powers(tree.root, alternation, var_base, what)
    return tree, fn


def _compile(text: str, var: str, *, alternation=False, what: str):
    return _compile_tree(text, var, alternation=alternation, what=what)[1]


# -- domain types --------------------------------------------------------------


@dataclass(frozen=True)
class ExactPartial:
    """A partial product held exactly: rational_part * e**e_power."""

    rational_part: Fraction
    e_power: Fraction


_Field = Callable[[int], Fraction]


@dataclass(frozen=True, eq=False)
class BridgedProductSpec:
    """One alternating product, compiled from its key-value description.

    The k-indexed fields (factor, exponent, e_exponent) and the n-indexed
    fields (upper_index, bridge) are exposed as evaluation methods over the
    compiled expressions.
    """

    name: str
    k_start: int
    _factor: _Field = field(repr=False)
    _exponent: _Field = field(repr=False)
    _e_exponent: _Field = field(repr=False)
    _upper: _Field = field(repr=False)
    # base, power, e-power, and the base's log form (see exprlang.compile_powers)
    _bridge: Optional[Tuple[_Field, _Field, _Field, Callable[[int], list]]] = field(
        repr=False, default=None
    )

    def factor(self, k: int) -> Fraction:
        f = self._factor(k)
        if f.numerator <= 0:
            raise DomainError(f"{self.name}: factor at k={k} is not positive ({f})")
        return f

    def exponent(self, k: int) -> int:
        e = self._exponent(k)
        if e.denominator != 1:
            raise SpecError(f"{self.name}: exponent at k={k} is not an integer ({e})")
        return e.numerator

    def e_exponent(self, k: int) -> Fraction:
        return self._e_exponent(k)

    def upper_index(self, n: int) -> int:
        u = self._upper(n)
        if u.denominator != 1:
            raise SpecError(f"{self.name}: upper index at n={n} is not an integer")
        return int(u)

    def bridge(self, n: int) -> Optional[Tuple[Fraction, int, Fraction]]:
        if self._bridge is None:
            return None
        base_f, power_f, epower_f, _ = self._bridge
        base = base_f(n)
        power = self._bridge_power(n)
        if base <= 0:
            raise DomainError(f"{self.name}: bridge base at n={n} is not positive")
        return base, power, epower_f(n)

    def bridge_log(self, n: int) -> Optional[Tuple[list, Fraction]]:
        """The bridge without its exact power: (integer, exponent) pairs whose
        product of powers is base(n)^power(n), every integer above 1, and the
        e-power."""
        if self._bridge is None:
            return None
        _, _, epower_f, pairs_f = self._bridge
        pairs = pairs_f(n)
        power = self._bridge_power(n)
        if any(v == 0 and m < 0 for v, m in pairs):
            raise SpecError("division by zero in expression")
        if any(v == 0 and m for v, m in pairs) or sum(m for v, m in pairs if v < 0) % 2:
            raise DomainError(f"{self.name}: bridge base at n={n} is not positive")
        return [(abs(v), m * power) for v, m in pairs if m and abs(v) != 1], epower_f(n)

    def _bridge_power(self, n: int) -> int:
        power = self._bridge[1](n)
        if power.denominator != 1:
            raise SpecError(f"{self.name}: bridge power at n={n} is not an integer")
        return int(power)


# -- parsing -------------------------------------------------------------------

# the largest sequence index probed when a spec is admitted or started
_PROBE_N = 64

_SPEC_KEYS = ("name", "factor", "exponent", "e_exponent", "k_start", "upper", "bridge")
_SPEC_MESSAGES = (
    "expected 'key = value', got {line!r}",
    "unknown product field {key!r}",
    "duplicate product field {key!r}",
)


def parse_product_spec(text: str) -> BridgedProductSpec:
    """Build a spec from the flat key-value form.

    Required keys: name, factor, exponent, upper.  Optional: e_exponent
    (default 0), k_start (default 1), bridge (three ';'-separated expressions
    in n: base, power, e-power).
    """
    (fields,) = ex.key_value_blocks(text, _SPEC_KEYS, _SPEC_MESSAGES, split_blocks=False)
    for req in ("name", "factor", "exponent", "upper"):
        if req not in fields:
            raise SpecError(f"product description is missing {req!r}")

    name = fields["name"]
    try:
        k_start = int(fields.get("k_start", "1"))
    except ValueError:
        raise SpecError(f"k_start must be an integer, got {fields['k_start']!r}") from None
    if k_start < 0:
        raise SpecError("k_start must be >= 0")
    factor = _compile(fields["factor"], "k", what="factor")
    exponent = _compile(fields["exponent"], "k", alternation=True, what="exponent")
    e_exponent = _compile(fields.get("e_exponent", "0"), "k", what="e_exponent")
    upper = _compile(fields["upper"], "n", what="upper")
    bridge = None
    if "bridge" in fields:
        parts = fields["bridge"].split(";")
        if len(parts) != 3:
            raise SpecError("bridge must be 'base ; power ; e-power'")
        base_tree, base = _compile_tree(parts[0], "n", var_base=True, what="bridge base")
        bridge = (
            base,
            _compile(parts[1], "n", what="bridge power"),
            _compile(parts[2], "n", what="bridge e-power"),
            ex.compile_powers(base_tree),
        )

    spec = BridgedProductSpec(
        name=name,
        k_start=k_start,
        _factor=factor,
        _exponent=exponent,
        _e_exponent=e_exponent,
        _upper=upper,
        _bridge=bridge,
    )
    # a truncation map that stalls or turns back does not describe a sequence
    # of ever longer partial products; probed on the window _first_index uses
    uppers = [spec.upper_index(n) for n in range(_PROBE_N + 1)]
    for n in range(1, _PROBE_N + 1):
        if uppers[n] <= uppers[n - 1]:
            raise SpecError(
                f"{name}: upper must increase strictly with n, but upper({n}) = "
                f"{uppers[n]} after upper({n - 1}) = {uppers[n - 1]}"
            )
    return spec


# -- built-in catalog ------------------------------------------------------------

_FIXED_BUILTINS = {
    "KT1": """
        name = KT1
        factor = k/(k+1)
        exponent = (k*(k+1)/2)*(-1)^k
        e_exponent = -1/4
        upper = 2*n+1
    """,
    "KT2": """
        name = KT2
        factor = k/(k+1)
        exponent = (k*(k+1)/2)*(-1)^k
        e_exponent = 1/4
        upper = 2*n
    """,
    "KT3": """
        name = KT3
        factor = (2*k-1)/(2*k+1)
        exponent = k*(-1)^k
        upper = 2*n
    """,
    "KT4": """
        name = KT4
        factor = (2*k-1)/(2*k+1)
        exponent = k*(-1)^k
        upper = 2*n+1
    """,
    "MELZAK": """
        name = MELZAK
        factor = (k+2)/k
        exponent = -k*(-1)^k
        upper = 2*n+1
    """,
    "GS53R": """
        name = GS53R
        factor = k
        exponent = 4*k^2*(-1)^k
        upper = 2*n
        bridge = (2*n+2)^(4*n+5)/(2*n+1)^(12*n+9) ; n ; 0
    """,
    "GS55R": """
        name = GS55R
        factor = 2*k+1
        exponent = -2*(2*k+1)*(-1)^k
        upper = 2*n+1
        bridge = (4*n+7)^(2*n+3)/(4*n+5)^(6*n+7) ; 1 ; 0
    """,
    "HOLCOMBE": """
        name = HOLCOMBE
        factor = (k^2-1)/k^2
        exponent = k^2
        e_exponent = 1
        k_start = 2
        upper = n
        bridge = 1 ; 1 ; 3/2
    """,
}

BUILTIN_NAMES = ("KT1", "KT2", "KT3", "KT4", "MELZAK", "BD_D", "ADAMCHIK_E",
                 "ADAMCHIK_P5", "GS53R", "GS55R", "HOLCOMBE")


def _as_param(x) -> Fraction:
    if isinstance(x, Real):
        return x.to_fraction()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise SpecError(f"product parameter must be rational or Real, got {type(x).__name__}")


def builtin(name: str, x=None) -> BridgedProductSpec:
    """Return a catalog spec by name; BD_D, ADAMCHIK_E, and ADAMCHIK_P5 take a
    rational (or Real, converted exactly) parameter x."""
    if name in _FIXED_BUILTINS:
        if x is not None:
            raise SpecError(f"{name} takes no parameter")
        return parse_product_spec(_FIXED_BUILTINS[name])
    if name not in BUILTIN_NAMES:
        raise SpecError(f"unknown product {name!r}")
    if x is None:
        raise SpecError(f"{name} needs a parameter x")
    xf = _as_param(x)
    a, b = xf.numerator, xf.denominator
    if name == "BD_D":
        if xf <= -1:
            raise DomainError("BD_D needs x > -1 so every factor stays positive")
        text = f"""
            name = BD_D({a}/{b})
            factor = ({b}*k+{a})/({b}*k)
            exponent = -k*(-1)^k
            upper = 2*n+1
        """
    elif name == "ADAMCHIK_E":
        two_x = abs(2 * xf)
        k_start = 1 if two_x < 1 else 2
        if two_x >= k_start:
            raise DomainError(
                "ADAMCHIK_E needs |2x| < 2 (and the k=1 factor is dropped for |2x| >= 1)"
            )
        text = f"""
            name = ADAMCHIK_E({a}/{b})
            factor = ({b * b}*k^2-{4 * a * a})/({b * b}*k^2)
            exponent = -k^2*(-1)^k
            k_start = {k_start}
            upper = 2*n
        """
    elif name == "ADAMCHIK_P5":
        if 2 * xf <= -1:
            raise DomainError("ADAMCHIK_P5 needs x > -1/2 so every factor stays positive")
        text = f"""
            name = ADAMCHIK_P5({a}/{b})
            factor = ({b}*k+{2 * a})/({b}*k)
            exponent = -k*(-1)^k
            upper = 2*n
        """
    else:  # pragma: no cover
        raise SpecError(f"unknown product {name!r}")
    # negative numerators would print as '+-a'; normalize the sign into the text
    text = text.replace("+-", "-")
    return parse_product_spec(text)


# -- exact oracle ------------------------------------------------------------------


def partial_exact(spec: BridgedProductSpec, n: int) -> ExactPartial:
    """The n-th partial product, exactly, by direct multiplication.

    The whole cost estimate (bits of every factor power and of the bridge
    power) is added up before the first multiplication; exceeding the budget
    raises OracleRangeError rather than grinding through gigantic integers.
    """
    if n < 0:
        raise SpecError("partial index must be >= 0")
    # (f(k), m_k, e-exponent) of every admitted k, so no factor is evaluated twice
    terms = []
    est_bits = 0
    for k in range(spec.k_start, spec.upper_index(n) + 1):
        m = spec.exponent(k)
        f = spec.factor(k) if m else None
        terms.append((f, m, spec.e_exponent(k)))
        if m:
            est_bits += abs(m) * (f.numerator.bit_length() + f.denominator.bit_length())
            if est_bits > ORACLE_BITS_CAP:
                break
    br = None
    if est_bits <= ORACLE_BITS_CAP:
        br = spec.bridge(n)
        if br is not None:
            base, power, _ = br
            est_bits += abs(power) * (base.numerator.bit_length() + base.denominator.bit_length())
    if est_bits > ORACLE_BITS_CAP:
        raise OracleRangeError(
            f"{spec.name}: exact partial at n={n} exceeds the integer budget"
        )
    rational = Fraction(1)
    e_power = Fraction(0)
    for f, m, e in terms:
        e_power += e
        if m:
            rational *= Fraction(f.numerator**m if m > 0 else f.denominator**-m,
                                 f.denominator**m if m > 0 else f.numerator**-m)
    if br is not None:
        base, power, epower = br
        e_power += epower
        rational *= base**power
    return ExactPartial(rational_part=rational, e_power=e_power)


# -- log-space evaluation -----------------------------------------------------------


class ProductEvalSession:
    """Incremental log-partial evaluation for one spec.

    Walking the factors collects an exact exponent vector instead of adding
    logs: the numerator and denominator of each factor f(k) are split into
    primes by the session's own sieve, and m_k times each prime's exponent
    is added to that prime's count, while the e-powers add up exactly.  The
    walk goes forward or backward to the truncation index of each request,
    so walking n upward visits each new factor once.  ``log_partial`` then
    evaluates the counts, the bridge's pairs and the e-part as one exact dot
    product with the atom logs, rounded once (``numkernel.PrimeLogTable``).
    The vector does not depend on the precision, and the working precision
    and atom logs depend only on it and p, so every value is a function of
    (n, p) alone, whatever was requested before.  Sessions are meant for a
    single evaluation run and are not shared across threads.
    """

    def __init__(self, spec: BridgedProductSpec):
        self.spec = spec
        self._logs = nk.PrimeLogTable()
        self._counts = {}  # atom -> exact exponent over factors k_start .. next_k - 1
        self._e = Fraction(0)
        self._next_k = spec.k_start

    def _step(self, k: int, sign: int):
        spec, logs, counts = self.spec, self._logs, self._counts
        f = spec.factor(k)
        m = spec.exponent(k)
        e = spec.e_exponent(k)
        if e:
            self._e += e if sign > 0 else -e
        if m != 0:
            logs.add(counts, f.numerator, sign * m)
            logs.add(counts, f.denominator, -sign * m)

    def log_partial(self, n: int, p: int) -> Real:
        if n < 0:
            raise SpecError("partial index must be >= 0")
        spec = self.spec
        upper = max(spec.upper_index(n), spec.k_start - 1)
        while self._next_k <= upper:
            self._step(self._next_k, 1)
            self._next_k += 1
        while self._next_k - 1 > upper:
            self._next_k -= 1
            self._step(self._next_k, -1)
        vectors = [self._counts]
        e_total = self._e
        br = spec.bridge_log(n)
        if br is not None:
            pairs, epower = br
            e_total += epower
            bridge = {}
            for v, m in pairs:
                self._logs.add(bridge, v, m)
            vectors.append(bridge)
        return self._logs.log_sum(p, vectors, e_total)


def log_partial(spec: BridgedProductSpec, n: int, p: int) -> Real:
    """From-scratch log of the n-th partial product (bridge included)."""
    return ProductEvalSession(spec).log_partial(n, p)


def _first_index(spec: BridgedProductSpec) -> int:
    for n in range(1, _PROBE_N + 1):
        if spec.upper_index(n) >= spec.k_start:
            return n
    raise SpecError(f"{spec.name}: no sequence index reaches k_start within n <= {_PROBE_N}")


def limit(
    spec: BridgedProductSpec,
    p: int,
    target_digits: int,
    method: str = RICHARDSON,
    max_terms_cap: int = 2048,
) -> LimitEstimate:
    """Accelerated limit of the product, exponentiated back from log space."""
    session = ProductEvalSession(spec)
    seq = SequenceGen(term_at=session.log_partial, n0=_first_index(spec), kind=PARTIAL_SUMS)
    try:
        est = estimate_limit(seq, method, target_digits, p, max_terms_cap=max_terms_cap)
    except nk.NonConvergenceError as exc:
        # re-raise with the best effort mapped back to product scale
        best = exc.best
        if best is not None:
            bv = nk.exp(best.value, p)
            be = nk.add(
                nk.mul(bv, best.error_estimate, p), nk.ldexp(bv, 4 - p), p
            )
            best = LimitEstimate(
                value=bv,
                error_estimate=be,
                terms_used=best.terms_used,
                method=best.method,
            )
        raise nk.NonConvergenceError(str(exc), best=best) from exc
    value = nk.exp(est.value, p)
    # d(e^x) = e^x dx, plus a couple of ulps for the exponential itself
    err = nk.add(
        nk.mul(value, est.error_estimate, p),
        nk.ldexp(value, 4 - p),
        p,
    )
    return LimitEstimate(
        value=value, error_estimate=err, terms_used=est.terms_used, method=est.method
    )
