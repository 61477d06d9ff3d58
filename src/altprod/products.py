"""Declarative evaluation of alternating infinite products.

A product is described by a factor base (a positive rational function of the
factor index k), an integer exponent formula (rational in k, optionally
carrying a (-1)^k alternation), a per-factor rational power of e, a strictly
increasing truncation map from sequence index n to the last included k, and
an optional per-index closing factor ("bridge") of the form
base(n)^power(n) * e^epower(n) that is replaced, not accumulated, as n grows.
Every field is an `exprlang` expression in k or n, compiled once to two
forms: the exact scalar form (exprlang.compile_field), which the exact
oracle and the evaluation methods use and which names the field and the
index of an error, and the column form, which the walk uses.

Partial products are available in two forms: exactly, as a rational number
times a rational power of e (the brute-force oracle, which multiplies
directly), and in log space for the limit machinery.  The log form never
takes a log per factor and builds no factor as a `Fraction`: each factor's
log form, its integers with exact integer exponents, adds m_k times those
exponents to a count per integer; the factors are evaluated a chunk at a
time by the fields' column kernels (see exprlang.compile_column), one list
operation per tree node, and the bridges of a request's nodes at once.
Each integer touched since the last request is
split into primes once, and the log partial is the prime log table's
``log_sum`` of the prime exponents, rounded once.  Limits are
delegated to the sequence-acceleration module on the log-partial sequence,
whose ``combine`` hook is the session's ``log_partial`` with weights: a
Richardson round asks for its extrapolation and its error estimate as two
integer weight vectors over the nodes, and gets them from one walk over the
factors, each an exact sum of prime logs rounded once.

Specs are built from a flat key-value text form; the built-in catalog goes
through the same parser, so user-defined products follow an identical code
path.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, xor
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
    "ProductEvalSession",
    "limit",
]

# exact-oracle integer budget: bits of numerator plus denominator, estimated
# before any big multiplication is attempted.  Each multiply reduces by a gcd
# that is quadratic in the accumulated size, so the time grows about as the
# square of the budget: the largest admitted partial of every builtin took at
# most 1.4 s at 2 Mbit (GS53R n = 29: 0.9 s) and up to 5.3 s at 4 Mbit
# (x86-64, CPython 3.11)
ORACLE_BITS_CAP = 2_000_000


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


# -- domain types --------------------------------------------------------------


@dataclass(frozen=True)
class ExactPartial:
    """A partial product held exactly: rational_part * e**e_power."""

    rational_part: Fraction
    e_power: Fraction


_Field = Callable[[int], Fraction]  # a field's exact scalar form (see exprlang.compile_field)
_Column = Callable[[list], list]  # see exprlang.compile_column and compile_power_columns


@dataclass(frozen=True, eq=False)
class BridgedProductSpec:
    """One alternating product, compiled from its key-value description.

    Every field has two compiled forms.  The exact scalar form is the
    reference: the k-indexed fields (factor, exponent, e_exponent) and the
    n-indexed fields (upper_index, bridge) are exposed as evaluation methods
    over it, and an error they raise names the spec, the field and the
    index.  The column form is what a walk evaluates: ``factor_columns``
    gives the factor's log form, the exponent and the e-exponent of a whole
    run of k at once, and ``bridge_logs`` the bridges of a run of n, both
    without building a power.
    """

    name: str
    k_start: int
    _factor: _Field = field(repr=False)
    _exponent: _Field = field(repr=False)
    _e_exponent: _Field = field(repr=False)
    # column kernels of the factor's log form, the exponent and the
    # e-exponent; the exponents are values where they do not depend on k
    _columns: Tuple[_Column, Union[int, Fraction, _Column], Union[int, Fraction, _Column]] = field(
        repr=False
    )
    _upper: _Field = field(repr=False)
    # base, power, e-power, and the base's log form in column form
    _bridge: Optional[Tuple[_Field, _Field, _Field, _Column]] = field(
        repr=False, default=None
    )

    def _at(self, fn, what: str, var: str, x: int):
        """fn(x), a compiled field at one index, with any error it raises
        prefixed by the spec, the field and the index."""
        try:
            return fn(x)
        except (SpecError, OracleRangeError) as err:
            raise type(err)(f"{self.name}: {what} at {var}={x}: {err}") from None

    def factor(self, k: int) -> Fraction:
        f = self._at(self._factor, "factor", "k", k)
        if f.numerator <= 0:
            raise DomainError(f"{self.name}: factor at k={k} is not positive ({f})")
        return f

    def factor_columns(self, ks: list) -> Optional[Tuple[list, list, Optional[list]]]:
        """The factors at the ks, a non-empty list, in column form: the log
        form as (integers, exponent) pairs, each part a list with one entry
        per k or one int for every k (see exprlang.compile_power_columns),
        every integer positive; the exponents m_k, as ints; and the
        e-exponents, or None where they do not depend on k.

        Negative integers are taken in absolute value where every factor
        stays positive: no integer is 0 and, at each k, an even number of
        negative integers carry an odd exponent.  Returns None where a
        column raises, that fails, or an exponent is not an int; a walk
        then takes the ks one at a time (``_factor_at``).
        """
        _, exponent_at, e_at = self._columns
        pairs = self._positive_pairs(ks)
        if pairs is None:
            return None
        try:
            ms = exponent_at(ks) if callable(exponent_at) else [exponent_at] * len(ks)
            es = e_at(ks) if callable(e_at) else None
        except (SpecError, DomainError, OracleRangeError):
            return None
        if not all(map(isinstance, ms, repeat(int))):
            return None
        return pairs, ms, es

    def _positive_pairs(self, ks: list) -> Optional[list]:
        """The factor's log-form columns at the ks with every integer
        positive, or None (see ``factor_columns``)."""
        try:
            pairs = self._columns[0](ks)
        except (SpecError, DomainError, OracleRangeError):
            return None
        odd = None  # per k, the parity of the negative integers with odd exponents
        for i, (v, c) in enumerate(pairs):
            if (v if type(v) is int else min(v)) > 0:
                continue
            vs = [v] * len(ks) if type(v) is int else v
            if 0 in vs:
                return None
            cs = c if type(c) is list else repeat(c)
            flips = [x < 0 and e & 1 for x, e in zip(vs, cs)]
            if odd is None:
                odd, pairs = flips, list(pairs)  # the kernel may hand out a shared list
            else:
                odd = list(map(xor, odd, flips))
            pairs[i] = (abs(v) if type(v) is int else list(map(abs, v)), c)
        if odd is not None and any(odd):
            return None
        return pairs

    def _factor_at(self, k: int) -> Tuple[list, list, Optional[list]]:
        """``factor_columns([k])`` for a k whose chunk the columns refuse,
        from the scalar forms: the log form where its integers at k are
        positive, otherwise the exact factor's numerator and denominator,
        then the exponent and the e-exponent.  So the first of them that
        refuses k raises, in that order, with what the scalar form raises.
        """
        pairs = self._positive_pairs([k])
        if pairs is None:
            f = self.factor(k)
            pairs = [(f.numerator, 1), (f.denominator, -1)]
        es = [self.e_exponent(k)] if callable(self._columns[2]) else None
        return pairs, [self.exponent(k)], es

    def exponent(self, k: int) -> int:
        e = self._at(self._exponent, "exponent", "k", k)
        if e.denominator != 1:
            raise SpecError(f"{self.name}: exponent at k={k} is not an integer ({e})")
        return e.numerator

    def e_exponent(self, k: int) -> Fraction:
        return self._at(self._e_exponent, "e_exponent", "k", k)

    def upper_index(self, n: int) -> int:
        u = self._at(self._upper, "upper index", "n", n)
        if u.denominator != 1:
            raise SpecError(f"{self.name}: upper index at n={n} is not an integer")
        return u.numerator

    def bridge(self, n: int) -> Optional[Tuple[Fraction, int, Fraction]]:
        if self._bridge is None:
            return None
        base = self._at(self._bridge[0], "bridge base", "n", n)
        power = self._bridge_power(n)
        if base <= 0:
            raise DomainError(f"{self.name}: bridge base at n={n} is not positive")
        return base, power, self._at(self._bridge[2], "bridge e-power", "n", n)

    def bridge_logs(self, ns: list) -> list:
        """The bridges at the nodes ns, a non-empty list, without their exact
        powers: per node, (integer, exponent) pairs whose product of powers
        is base(n)^power(n), every integer above 1, and the e-power; None per
        node without a bridge.

        The base's log form is evaluated once over all of ns, in column
        form.  An error names its n when ns holds one node; over more, which
        node fails is not promised, so a caller that must name the first
        asks node by node.
        """
        if self._bridge is None:
            return [None] * len(ns)
        base_at = self._bridge[3]
        if len(ns) == 1:
            columns = self._at(lambda n: base_at([n]), "bridge base", "n", ns[0])
        else:
            columns = base_at(ns)
        logs = []
        for i, n in enumerate(ns):
            pairs = [(v if type(v) is int else v[i], m if type(m) is int else m[i])
                     for v, m in columns]
            power = self._bridge_power(n)
            if any(v == 0 and m < 0 for v, m in pairs):
                raise SpecError(
                    f"{self.name}: bridge base at n={n}: division by zero in expression"
                )
            if any(v == 0 and m for v, m in pairs) or sum(m for v, m in pairs if v < 0) % 2:
                raise DomainError(f"{self.name}: bridge base at n={n} is not positive")
            logs.append((
                [(abs(v), m * power) for v, m in pairs if m and abs(v) != 1],
                self._at(self._bridge[2], "bridge e-power", "n", n),
            ))
        return logs

    def _bridge_power(self, n: int) -> int:
        power = self._at(self._bridge[1], "bridge power", "n", n)
        if power.denominator != 1:
            raise SpecError(f"{self.name}: bridge power at n={n} is not an integer")
        return power.numerator


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
    exponent_tree, exponent = _compile_tree(
        fields["exponent"], "k", alternation=True, what="exponent"
    )
    e_tree, e_exponent = _compile_tree(fields.get("e_exponent", "0"), "k", what="e_exponent")
    upper = _compile_tree(fields["upper"], "n", what="upper")[1]
    bridge = None
    if "bridge" in fields:
        parts = fields["bridge"].split(";")
        if len(parts) != 3:
            raise SpecError("bridge must be 'base ; power ; e-power'")
        base_tree, base = _compile_tree(parts[0], "n", var_base=True, what="bridge base")
        bridge = (
            base,
            _compile_tree(parts[1], "n", what="bridge power")[1],
            _compile_tree(parts[2], "n", what="bridge e-power")[1],
            ex.compile_power_columns(base_tree),
        )

    spec = BridgedProductSpec(
        name=name,
        k_start=k_start,
        _factor=factor,
        _exponent=exponent,
        _e_exponent=e_exponent,
        _columns=(
            ex.compile_power_columns(factor_tree),
            ex.compile_column(exponent_tree),
            ex.compile_column(e_tree),
        ),
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


# a walk splits its waiting integers into atoms when more than this many
# wait, checked after each chunk of a quarter as many factors, so a long
# walk's buffer stays small and the check costs nothing per factor
_PENDING_CAP = 1 << 14

# the most factors past k_start that a log partial walks: a request beyond
# it is refused before any factor is walked, so every request ends in
# bounded time.  It admits the GS53R table row at n = 240000 (480000
# factors).  A factor's cost grows with its integers: past 2^32 trial
# division runs over most of the sieve's primes, so HOLCOMBE's k^2 - 1 at
# the budget took 30 s (x86-64, CPython 3.11), against 2.1 s at k = 10^5
_WALK_BUDGET = 1 << 19


class ProductEvalSession:
    """Incremental log-partial evaluation for one spec.

    Walking the factors collects exact integer exponents instead of adding
    logs.  The walk evaluates a chunk of factors at once
    (``factor_columns``: their log forms, exponents m_k and e-exponents) and
    adds m_k times each pair's exponent to a count per integer; no step
    builds a `Fraction` or takes a gcd.  A chunk whose columns raise, hold
    an integer <= 0 or a non-integral exponent is walked k by k, each k's
    columns taken from the scalar forms where the column forms refuse it
    (``BridgedProductSpec._factor_at``), so an error names the first factor
    that raises and leaves the counts of those before it.  A variable e-exponent
    is summed a chunk at a time in integers over a common denominator.
    Every integer splits into its primes, and
    the counts are exact integers that cancel, so the prime exponents are
    those of f(k)'s reduced numerator and denominator however its text is
    written.  A constant e-exponent adds up in closed form, c times the
    number of factors walked.  The walk goes forward only, so walking n
    upward visits each new factor once; a request below the factors walked
    so far starts the counts again from k_start, which costs a new round of
    WYNN or EULER far fewer factors than taking the walked ones away.

    ``log_partial`` splits each integer touched since the last request into
    atoms once, in one batch (neighbouring factors of k/(k+1) share k + 1);
    a long walk splits them on the way when more than ``_PENDING_CAP``
    wait, so the buffer stays bounded while the atom counts grow only with
    the primes.  A request whose upper index lies more than
    ``_WALK_BUDGET`` factors past k_start is refused before any factor is
    walked.
    The value is the table's ``log_sum`` of the counts and the bridge's
    pairs, with the e-part as its offset, so it is a function of (n, p)
    alone, whatever was requested before.  The bridges of a request's nodes
    are evaluated at once (``bridge_logs``); where that raises, node by node
    after each node's walk, so an error names the node and the factors
    before it are walked first.

    With integer weight vectors over the nodes ending at n, ``log_partial``
    returns sum_i w_i s(n_i) / den for each vector, exactly as one more
    request would: the sum is linear in the walk.  A factor at k lies in the
    partials of every node whose upper index reaches k, so in one forward
    walk it carries the suffix sum W(k) of the weights of those nodes; each
    node's bridge pairs and e-part carry that node's own weight.  So the
    factors are walked once, each vector is one exact atom count, and the
    vectors are the terms of one ``log_sum`` request over den, which takes
    every atom log at one fixed point.  The nodes' walks share the
    request's chunk evaluations: each chunk reaches as far as the last
    node's upper index.  Sessions are meant for a single evaluation run and
    are not shared across threads.
    """

    def __init__(self, spec: BridgedProductSpec):
        self.spec = spec
        # the sieve and atom logs are pure caches, kept when the walk restarts
        self._logs = nk.PrimeLogTable()
        self._restart()

    def _restart(self) -> None:
        """Forget the walked factors; the next walk starts at k_start."""
        self._pending = {}  # integer -> exponent change, not yet split
        self._counts = {}  # atom -> exact exponent over the walked factors
        self._e = Fraction(0)  # e-powers of the walked factors, when they depend on k
        self._next_k = self.spec.k_start
        # the chunk being walked: (first k, last k, its factor_columns)
        self._chunk = None

    def _walk(self, upper: int, into: Optional[dict] = None, horizon: int = 0) -> None:
        """Walk the factors up to upper, adding each factor's integer counts
        and splitting them onto the atom counts ``into`` (the session's by
        default) when too many wait; a request below the factors walked so
        far starts again at k_start.

        The factors are evaluated a chunk at a time, in column form, up to
        at most max(upper, horizon), so the walks of one request to
        increasing uppers share one evaluation; a chunk that does not
        evaluate cleanly is walked k by k."""
        if upper < self._next_k - 1:
            self._restart()
        chunk = _PENDING_CAP // 4
        end = max(upper, horizon)
        while self._next_k <= upper:
            k = self._next_k
            if self._chunk is None or self._chunk[1] < k:
                last = min(k + chunk, end + 1) - 1
                self._chunk = (k, last, self.spec.factor_columns(list(range(k, last + 1))))
            first, last, columns = self._chunk
            stop = min(upper, last) + 1
            if columns is None:
                for j in range(k, stop):
                    self._fold(self.spec._factor_at(j), 0, 1)
            else:
                self._fold(columns, k - first, stop - first)
            if len(self._pending) > _PENDING_CAP:
                self._split_pending(into)

    def _fold(self, columns, a: int, b: int) -> None:
        """Add the factors at offsets a .. b - 1 of a chunk's columns."""
        pairs, ms, es = columns
        pending = self._pending
        get = pending.get
        ms = ms[a:b]
        for vs, c in pairs:
            if type(c) is list:
                changes = list(map(mul, c[a:b], ms))
            else:
                changes = ms if c == 1 else [c * m for m in ms]
            if type(vs) is int:
                pending[vs] = get(vs, 0) + sum(changes)
            else:
                for v, d in zip(vs[a:b], changes):
                    pending[v] = get(v, 0) + d
        if es is not None:
            self._e += _exact_dot(repeat(1), es[a:b])
        self._next_k += b - a

    def _split_pending(self, into: Optional[dict] = None) -> None:
        """Move the waiting integers' exponent changes onto the atom counts
        ``into``, the session's by default."""
        self._logs.add_all(self._counts if into is None else into, self._pending.items())
        self._pending.clear()

    def log_partial(self, n: int, p: int, weights=None, den: int = 1) -> Union[Real, list]:
        """The log partial s(n) rounded to p bits; with ``weights``, a list
        with one Real per integer vector (w_0 .. w_J) over the nodes n - J ..
        n, the sum of w_i s(n - J + i) over den, each rounded once to p bits.

        Without weights the request is the one-node case ((1,),).  A node
        whose upper index does not exceed the one before raises SpecError:
        the suffix weights assume that the walk only grows.
        """
        vectors = ((1,),) if weights is None else weights
        count = len(vectors[0])
        if any(len(w) != count for w in vectors):
            raise SpecError("weight vectors must all have one weight per node")
        first = n - count + 1
        if first < 0:
            raise SpecError("partial index must be >= 0")
        spec, logs = self.spec, self._logs
        uppers = [spec.upper_index(first)]
        for node in range(first + 1, n + 1):
            upper = spec.upper_index(node)
            if upper <= uppers[-1]:
                raise SpecError(
                    f"{spec.name}: upper must increase strictly with n, but upper({node})"
                    f" = {upper} after upper({node - 1}) = {uppers[-1]}"
                )
            uppers.append(upper)
        if uppers[-1] > spec.k_start + _WALK_BUDGET:
            raise OracleRangeError(
                f"{spec.name}: upper({n}) = {uppers[-1]} is past the walk budget of"
                f" {_WALK_BUDGET} factors from k_start = {spec.k_start}"
            )
        horizon = uppers[-1]
        # suffix[v][i]: the weight of a factor first walked for node i
        suffix = [list(accumulate(reversed(w)))[::-1] for w in vectors]
        e_at = spec._columns[2]
        e_varies = callable(e_at)
        nodes = list(range(first, n + 1))
        # the bridges of all the nodes at once; where that raises, node by
        # node after each node's walk, so that an error names its node and
        # comes after those of the factors before it
        try:
            node_logs = spec.bridge_logs(nodes)
        except (SpecError, DomainError, OracleRangeError):
            node_logs = None
        atoms, bridges = None, [{} for _ in vectors]
        e_walked, e_bridge = [], []  # per node
        for i, node in enumerate(nodes):
            upper = max(uppers[i], spec.k_start - 1)
            if i == 0:
                self._walk(upper, horizon=horizon)
                self._split_pending()
                atoms = [{q: s[0] * c for q, c in self._counts.items()} for s in suffix]
            else:
                seg = {}  # the atoms of the factors first walked for this node
                try:
                    self._walk(upper, seg, horizon)
                    self._split_pending(seg)
                finally:
                    # a walk that raised keeps the counts of what it walked
                    for q, c in seg.items():
                        self._counts[q] = self._counts.get(q, 0) + c
                for s, cv in zip(suffix, atoms):
                    if s[i]:
                        for q, c in seg.items():
                            cv[q] = cv.get(q, 0) + s[i] * c
            # the factors' e-powers, or their count when the e-exponent is constant
            e_walked.append(self._e if e_varies else self._next_k - spec.k_start)
            br = spec.bridge_logs([node])[0] if node_logs is None else node_logs[i]
            if br is None:
                e_bridge.append(0)
            else:
                pairs, epower = br
                e_bridge.append(epower)
                node_bridge = {}
                logs.add_all(node_bridge, pairs)
                for w, bv in zip(vectors, bridges):
                    if w[i]:
                        for q, c in node_bridge.items():
                            bv[q] = bv.get(q, 0) + w[i] * c
        e_scale = 1 if e_varies else e_at
        terms = [([cv, bv], _exact_dot(w, e_walked) * e_scale + _exact_dot(w, e_bridge))
                 for w, cv, bv in zip(vectors, atoms, bridges)]
        values = logs.log_sum(p, terms, den)
        return values[0] if weights is None else values


def _exact_dot(weights, values) -> Fraction:
    """sum w_i x_i of integer weights and rational values, summed in integers
    over the values' common denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return Fraction(sum(w * x.numerator * (den // x.denominator) for w, x in zip(weights, values)), den)


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
    """Accelerated limit of the product, exponentiated back from log space.

    RICHARDSON rounds take their weighted sums from one walk of the session
    (``log_partial`` with weights); WYNN, EULER and RAW sample log partials.
    """
    session = ProductEvalSession(spec)
    seq = SequenceGen(
        term_at=session.log_partial,
        n0=_first_index(spec),
        kind=PARTIAL_SUMS,
        combine=session.log_partial,
    )
    try:
        est = estimate_limit(seq, method, target_digits, p, max_terms_cap=max_terms_cap)
    except nk.NonConvergenceError as exc:
        # re-raise with the best effort mapped back to product scale
        best = None if exc.best is None else _product_scale(exc.best, p)
        raise nk.NonConvergenceError(str(exc), best=best) from exc
    return _product_scale(est, p)


def _product_scale(est: LimitEstimate, p: int) -> LimitEstimate:
    """A limit of log partials mapped to the product: e^x, with error
    d(e^x) = e^x dx plus a couple of ulps for the exponential itself."""
    value = nk.exp(est.value, p)
    err = nk.add(nk.mul(value, est.error_estimate, p), nk.ldexp(value, 4 - p), p)
    return LimitEstimate(
        value=value, error_estimate=err, terms_used=est.terms_used, method=est.method
    )
