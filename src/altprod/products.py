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
takes a log per factor and builds no factor as a `Fraction`: each factor's
log form, its integers with exact integer exponents, adds m_k times those
exponents to a count per integer; each integer touched since the last
request is split into primes once, and the log partial is a running exact
dot product of the prime exponents with the primes' fixed-point logs,
rounded once.  Limits are delegated to the sequence-acceleration module on
the log-partial sequence.

Specs are built from a flat key-value text form; the built-in catalog goes
through the same parser, so user-defined products follow an identical code
path.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

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


def _compile_exact(text: str, var: str, *, alternation=False, what: str):
    tree = _compile_tree(text, var, alternation=alternation, what=what)[0]
    return ex.compile_exact(tree)


# -- domain types --------------------------------------------------------------


@dataclass(frozen=True)
class ExactPartial:
    """A partial product held exactly: rational_part * e**e_power."""

    rational_part: Fraction
    e_power: Fraction


_Field = Callable[[int], Fraction]
_Pairs = Callable[[int], list]  # a field's log form (see exprlang.compile_powers)
_Exact = Callable[[int], Union[int, Fraction]]  # see exprlang.compile_exact


@dataclass(frozen=True, eq=False)
class BridgedProductSpec:
    """One alternating product, compiled from its key-value description.

    The k-indexed fields (factor, exponent, e_exponent) and the n-indexed
    fields (upper_index, bridge) are exposed as evaluation methods over the
    compiled expressions; ``factor_log`` and ``bridge_log`` give the factor
    and the bridge in log form, without building their exact values.
    """

    name: str
    k_start: int
    _factor: _Field = field(repr=False)
    _factor_pairs: _Pairs = field(repr=False)
    # the two exponents are values where they do not depend on k
    _exponent: Union[int, Fraction, _Exact] = field(repr=False)
    _e_exponent: Union[Fraction, _Exact] = field(repr=False)
    _upper: _Field = field(repr=False)
    # base, power, e-power, and the base's log form (see exprlang.compile_powers)
    _bridge: Optional[Tuple[_Field, _Field, _Field, _Pairs]] = field(
        repr=False, default=None
    )

    def factor(self, k: int) -> Fraction:
        f = self._factor(k)
        if f.numerator <= 0:
            raise DomainError(f"{self.name}: factor at k={k} is not positive ({f})")
        return f

    def factor_log(self, k: int) -> list:
        """f(k) without its exact value: (integer, exponent) pairs whose
        product of powers is f(k), every integer positive.

        Where the pairs hold an integer <= 0, or cannot be evaluated, f(k)
        itself is evaluated: it raises what ``factor`` raises, or is
        positive, and the integers are taken in absolute value.
        """
        try:
            pairs = self._factor_pairs(k)
        except (SpecError, DomainError, OracleRangeError):
            self.factor(k)  # the error that evaluating f(k) meets first
            raise
        for v, _ in pairs:
            if v <= 0:
                self.factor(k)
                return [(abs(v), m) for v, m in pairs]
        return pairs

    def exponent(self, k: int) -> int:
        e = self._exponent
        if callable(e):
            e = e(k)
        if type(e) is not int:
            if e.denominator != 1:
                raise SpecError(f"{self.name}: exponent at k={k} is not an integer ({e})")
            e = e.numerator
        return e

    def e_exponent(self, k: int) -> Fraction:
        e = self._e_exponent
        return Fraction(e(k)) if callable(e) else e

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
    factor_tree, factor = _compile_tree(fields["factor"], "k", what="factor")
    exponent = _compile_exact(fields["exponent"], "k", alternation=True, what="exponent")
    e_exponent = _compile_exact(fields.get("e_exponent", "0"), "k", what="e_exponent")
    if not callable(e_exponent):
        e_exponent = Fraction(e_exponent)
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
        _factor_pairs=ex.compile_powers(factor_tree),
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

    Walking the factors collects exact integer exponents instead of adding
    logs.  Each step takes the factor's log form (``factor_log``) and adds
    m_k times each pair's exponent to a count per integer; no step builds a
    `Fraction` or takes a gcd.  Every integer splits into its primes, and
    the counts are exact integers that cancel, so the prime exponents are
    those of f(k)'s reduced numerator and denominator however its text is
    written.  A constant e-exponent adds up in closed form, c times the
    number of factors walked.  The walk goes forward or backward to the
    truncation index of each request, so walking n upward visits each new
    factor once.

    ``log_partial`` splits each integer touched since the last request into
    atoms once (neighbouring factors of k/(k+1) share k + 1) and keeps two
    running values over the atom counts: the bound sum |c_q| bitlen(q) and
    the exact integer sum c_q * log q at the last fixed point F of
    ``numkernel.PrimeLogTable.fixed_logs``.  A request adds d * log q for
    the atoms that changed, or recomputes the sum once when F changes; the
    bridge's pairs are added on top, and the whole is rounded once.  Integer
    sums are exact, so the value is the table's ``log_sum`` of the counts,
    the bridge and the e-part, and a function of (n, p) alone, whatever was
    requested before.  Sessions are meant for a single evaluation run and
    are not shared across threads.
    """

    def __init__(self, spec: BridgedProductSpec):
        self.spec = spec
        self._logs = nk.PrimeLogTable()
        self._pending = {}  # integer -> exponent change since the last request
        self._counts = {}  # atom -> exact exponent over the walked factors
        self._bound = 0  # sum |c_q| bitlen(q) over the counts
        self._fixed = None  # the atom logs of the running sum, at its fixed point
        self._dot = 0  # sum c_q * fixed log of q over the counts
        self._e = Fraction(0)  # e-powers of the walked factors, when they depend on k
        self._next_k = spec.k_start

    def _walk(self, upper: int) -> None:
        """Walk the factors k_start .. upper, adding or taking away each
        factor's integer counts."""
        spec, pending = self.spec, self._pending
        factor_log, exponent = spec.factor_log, spec.exponent
        e_at = spec._e_exponent if callable(spec._e_exponent) else None
        done = self._next_k
        if upper >= done:
            ks, sign, after = range(done, upper + 1), 1, 1
        else:
            ks, sign, after = range(done - 1, upper, -1), -1, 0
        e_sum = 0
        try:
            for k in ks:
                pairs = factor_log(k)
                m = exponent(k)
                e = e_at(k) if e_at is not None else 0
                if m:
                    m *= sign
                    for v, c in pairs:
                        pending[v] = pending.get(v, 0) + c * m
                e_sum += e
                done = k + after
        finally:
            self._next_k = done
            if e_sum:
                self._e += e_sum if sign > 0 else -e_sum

    def log_partial(self, n: int, p: int) -> Real:
        if n < 0:
            raise SpecError("partial index must be >= 0")
        spec = self.spec
        upper = max(spec.upper_index(n), spec.k_start - 1)
        self._walk(upper)
        if callable(spec._e_exponent):
            e_total = self._e
        else:
            e_total = spec._e_exponent * (self._next_k - spec.k_start)
        logs = self._logs
        bridge = {}
        br = spec.bridge_log(n)
        if br is not None:
            pairs, epower = br
            e_total += epower
            for v, m in pairs:
                logs.add(bridge, v, m)

        changed = {}
        for v, d in self._pending.items():
            if d:
                logs.add(changed, v, d)
        self._pending.clear()
        counts, bound = self._counts, self._bound
        for q, d in changed.items():
            c = counts.get(q, 0)
            counts[q] = c + d
            bound += (abs(c + d) - abs(c)) * q.bit_length()
        self._bound = bound

        bound += sum(abs(c) * q.bit_length() for q, c in bridge.items())
        fixed = logs.fixed_logs(p, bound)
        if fixed is self._fixed:
            self._dot += sum(d * fixed[q] for q, d in changed.items() if d)
        else:
            self._fixed = fixed
            self._dot = sum(c * fixed[q] for q, c in counts.items() if c)
        total = self._dot + sum(c * fixed[q] for q, c in bridge.items() if c)
        return nk.to_real(Fraction(total, 1 << fixed.bucket) + e_total, p)


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
