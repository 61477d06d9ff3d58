"""Arbitrary-precision numeric substrate.

Everything downstream computes with :class:`Real` values: immutable
arbitrary-precision binary floats tagged with the precision they were
produced at.  Operations are pure functions of (operands, precision) built
on ``mpmath.libmp``, whose routines take explicit precision arguments and
share no global state, so every function here is safe to call from any
number of threads.

The module also fixes the two verification conventions used everywhere
else: the ``agreement_digits`` metric (floor of -log10 of the relative
difference) and truncated decimal rendering (the last digit is never
rounded up, so a printed prefix is always a true prefix of the value).
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Optional, Union

from mpmath import libmp

__all__ = [
    "GUARD_BITS",
    "MAX_AGREEMENT",
    "DomainError",
    "NonConvergenceError",
    "SpecError",
    "OracleRangeError",
    "Real",
    "to_real",
    "round_scaled",
    "ln_rational",
    "PrimeLogTable",
    "agreement_digits",
    "truncated_decimal",
    "bits_for_digits",
    "digits_for_bits",
]

# Rounding mode for every kernel operation: round-to-nearest.
_RND = "n"

# Fixed guard allowance g of the accuracy contract: every elementary
# operation at precision p has relative error <= 2**(g - p).
GUARD_BITS = 8

# Sentinel returned by agreement_digits for identical values.
MAX_AGREEMENT = 10**9

Rationalish = Union[int, Fraction]


class DomainError(ValueError):
    """Argument outside a function's real domain (x <= 0 for ln, ...)."""


class SpecError(ValueError):
    """A structural precondition on an input object is violated (malformed
    product record, bad registry entry, out-of-contract argument shape)."""


class OracleRangeError(ValueError):
    """Exact-arithmetic oracle asked for an impractically large partial."""


class NonConvergenceError(ArithmeticError):
    """An iteration hit its term cap before stabilizing.

    Carries the best estimate produced so far in ``best`` (may be None).
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def bits_for_digits(digits: int, guard: int = 64) -> int:
    """Working precision in bits for a decimal-digit target: ceil(d*log2(10)) + guard."""
    return int(math.ceil(digits * math.log2(10))) + guard


def digits_for_bits(bits: int) -> int:
    """Decimal digits reliably carried by a p-bit value."""
    return int(math.floor(bits * math.log10(2)))


class Real:
    """Immutable arbitrary-precision float: raw mpf tuple + precision tag.

    Arithmetic operators run at the larger operand precision; mixing with
    int/Fraction converts the scalar exactly first.  Use the module-level
    functions when an explicit result precision is wanted.
    """

    __slots__ = ("_raw", "_bits")

    def __init__(self, raw, bits: int):
        if bits < 2:
            raise SpecError("precision must be >= 2 bits")
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_bits", int(bits))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Real is immutable")

    @property
    def raw(self):
        return self._raw

    @property
    def precision_bits(self) -> int:
        return self._bits

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Rationalish, bits: int) -> "Real":
        if isinstance(q, int):
            return Real(libmp.from_int(q, bits, _RND), bits)
        q = Fraction(q)
        return Real(libmp.from_rational(q.numerator, q.denominator, bits, _RND), bits)

    @staticmethod
    def zero(bits: int) -> "Real":
        return Real(libmp.fzero, bits)

    # -- exact views ---------------------------------------------------

    def to_fraction(self) -> Fraction:
        """Exact rational value (every finite binary float is dyadic)."""
        sign, man, exp, _ = self._raw
        if man == 0:
            if exp != 0:  # inf/nan encode with man == 0, exp != 0
                raise DomainError("non-finite value has no rational form")
            return Fraction(0)
        v = Fraction(int(man), 1) * Fraction(2) ** exp
        return -v if sign else v

    def is_zero(self) -> bool:
        return self._raw == libmp.fzero

    def sign(self) -> int:
        return libmp.mpf_sign(self._raw)

    def at(self, bits: int) -> "Real":
        """The same value re-rounded to ``bits`` bits."""
        return Real(libmp.mpf_pos(self._raw, bits, _RND), bits)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Real":
        if isinstance(other, Real):
            return other
        if isinstance(other, (int, Fraction)):
            return Real.from_rational(other, self._bits)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = max(self._bits, o._bits)
        return Real(libmp.mpf_add(self._raw, o._raw, p, _RND), p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = max(self._bits, o._bits)
        return Real(libmp.mpf_sub(self._raw, o._raw, p, _RND), p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = max(self._bits, o._bits)
        return Real(libmp.mpf_sub(o._raw, self._raw, p, _RND), p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = max(self._bits, o._bits)
        return Real(libmp.mpf_mul(self._raw, o._raw, p, _RND), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = max(self._bits, o._bits)
        return Real(libmp.mpf_div(self._raw, o._raw, p, _RND), p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = max(self._bits, o._bits)
        return Real(libmp.mpf_div(o._raw, self._raw, p, _RND), p)

    def __neg__(self):
        return Real(libmp.mpf_neg(self._raw), self._bits)

    def __abs__(self):
        return Real(libmp.mpf_abs(self._raw), self._bits)

    def __pow__(self, other):
        if isinstance(other, int):
            return Real(libmp.mpf_pow_int(self._raw, other, self._bits, _RND), self._bits)
        return NotImplemented

    # -- comparisons (exact on the raw values) --------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError("cannot compare Real with this type")
        return libmp.mpf_cmp(self._raw, o._raw)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self._raw)

    # -- display ---------------------------------------------------------

    def __repr__(self):
        return f"Real({libmp.to_str(self._raw, digits_for_bits(self._bits))}, bits={self._bits})"

    def __float__(self):
        return libmp.to_float(self._raw)


# -- module-level operations with explicit result precision ---------------


def to_real(q: Rationalish, p: int) -> Real:
    """``q`` correctly rounded to ``p`` bits."""
    if p < 2:
        raise SpecError("precision must be >= 2 bits")
    return Real.from_rational(q, p)


def round_scaled(num: int, e: int, p: int, den: int = 1) -> Real:
    """num * 2^e / den correctly rounded to p bits, for den >= 1: the value
    of ``to_real(Fraction(num * 2^e, den), p)``, built from integers by one
    correctly rounded division, with no gcd; mpf_div rounds without dividing
    when den is a power of two."""
    # not libmp.from_rational(num, den << -e): from_int strips the trailing
    # zeros of den << -e 8 bits a shift at a time, which made the rounding
    # 2.5 times slower at e = -448
    return Real(libmp.mpf_div(libmp.from_man_exp(num, e), libmp.from_int(den), p, _RND), p)


def add(a: Real, b: Real, p: int) -> Real:
    return Real(libmp.mpf_add(a.raw, b.raw, p, _RND), p)


def sub(a: Real, b: Real, p: int) -> Real:
    return Real(libmp.mpf_sub(a.raw, b.raw, p, _RND), p)


def mul(a: Real, b: Real, p: int) -> Real:
    return Real(libmp.mpf_mul(a.raw, b.raw, p, _RND), p)


def div(a: Real, b: Real, p: int) -> Real:
    return Real(libmp.mpf_div(a.raw, b.raw, p, _RND), p)


def sqrt(a: Real, p: int) -> Real:
    if a.sign() < 0:
        raise DomainError("sqrt of a negative value")
    return Real(libmp.mpf_sqrt(a.raw, p, _RND), p)


def exp(a: Real, p: int) -> Real:
    return Real(libmp.mpf_exp(a.raw, p, _RND), p)


def ln(a: Real, p: int) -> Real:
    if a.sign() <= 0:
        raise DomainError("log of a non-positive value")
    return Real(libmp.mpf_log(a.raw, p, _RND), p)


def pow_int(a: Real, n: int, p: int) -> Real:
    return Real(libmp.mpf_pow_int(a.raw, n, p, _RND), p)


def powr(a: Real, b: Real, p: int) -> Real:
    """a**b for a > 0 (general real exponent)."""
    if a.sign() <= 0:
        raise DomainError("powr needs a positive base")
    return Real(libmp.mpf_pow(a.raw, b.raw, p, _RND), p)


def ln2(p: int) -> Real:
    return Real(libmp.mpf_ln2(p, _RND), p)


def pi_ref(p: int) -> Real:
    """Library-internal pi, used by the kernel only for scaling decisions.

    The released PI constant lives in :mod:`altprod.constants` with two
    independent routes; this helper exists so low-level code never imports
    that module.
    """
    return Real(libmp.mpf_pi(p, _RND), p)


def ldexp(a: Real, k: int) -> Real:
    """a * 2**k, exact."""
    return Real(libmp.mpf_shift(a.raw, k), a.precision_bits)


def _log2_abs_fraction(q: Fraction) -> float:
    """Float estimate of log2 |q| that survives huge numerators."""
    num, den = abs(q.numerator), q.denominator
    if num == 0:
        return float("-inf")

    def _lg(n: int) -> float:
        b = n.bit_length()
        if b <= 900:
            return math.log2(n)
        shift = b - 64
        return math.log2(n >> shift) + shift

    return _lg(num) - _lg(den)


def ln_rational(q: Rationalish, p: int) -> Real:
    """ln(q) for q > 0 with relative error <= 2**(GUARD_BITS - p).

    Near q = 1 the log is tiny while the argument rounding error is not, so
    the working precision is boosted by the estimated cancellation before
    taking the log.
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError("ln_rational needs q > 0")
    if q == 1:
        return Real.zero(p)
    lg2q = _log2_abs_fraction(q)  # = log2(q), q > 0
    # |ln q| ~ |lg2q| * ln 2; cancellation bits when q is near 1:
    if lg2q != 0.0:
        cancel = max(0, int(-math.log2(min(1.0, abs(lg2q)))) + 2)
    else:  # q == 1 handled above; extremely close to 1
        # ln q ~ (q - 1); estimate its size from the fraction directly
        d = q - 1
        sz = _log2_abs_fraction(d) if d != 0 else -p
        cancel = max(0, int(-sz) + 2)
    wp = p + GUARD_BITS + 8 + cancel
    x = libmp.from_rational(q.numerator, q.denominator, wp, _RND)
    return Real(libmp.mpf_log(x, wp, _RND), wp).at(p)


def _spf_sieve(size: int, spf: Optional[array] = None) -> array:
    """spf[x] = the smallest prime factor of x, for 2 <= x < size: a new
    sieve, or ``spf`` extended in place by sieving only its new entries.

    Every q <= sqrt(size - 1) with spf[q] = q marks its new multiples from
    q^2 on, largest q first, so the smallest divisor above 1 of each new x,
    which is prime, is written last.  That test holds for every prime and
    for every q among the new entries, which no larger q divides; it skips a
    composite below the old length, whose marks a prime dividing it would
    overwrite.
    """
    spf = array("I") if spf is None else spf
    low = len(spf)
    spf.extend(range(low, size))
    for q in range(math.isqrt(size - 1), 1, -1):
        if spf[q] == q:
            start = max(q * q, -(-low // q) * q)
            spf[start::q] = array("I", [q]) * len(range(start, size, q))
    return spf


def _cover(spf: array, x: int) -> None:
    """Grow the sieve spf in place to the first power of two from 256 on
    above x."""
    if x >= len(spf):
        _spf_sieve(1 << max(8, x.bit_length()), spf)


# integers below this bound split by the sieve, which grows to at most its
# 2^16 four-byte entries; larger ones by trial division over its primes
_SIEVE_CAP = 1 << 16


# a wide log carries this many bits below the bucket's fixed point
_WIDE_BITS = 32
# primes below this bound take their wide logs from ln_rational; the
# recurrence's series converges slowly there
_ANCHOR = 64


def _round_fixed(value: int, err: int, bucket: int):
    """ln q rounded to F = bucket significant bits, times 2^F, from a wide
    value: |value - 2^W ln q| <= err with W = F + 32, and ln q >= 1/2.

    The result is the integer man << (exp + F) of ``ln_rational(q, F)``, or
    None when the wide value cannot decide it: its binary exponent is
    ambiguous, or it lies within err + 2^-16 ulp of a rounding boundary.
    That margin covers the one step where ``ln_rational`` itself departs
    from ln q: it rounds mpmath's log at F + 18 bits, off by at most 2^-18
    ulp, to F bits.  So ln q and that log round alike whenever the value
    clears the margin, and ln q is transcendental, never a tie.
    """
    wide = bucket + _WIDE_BITS
    b = (value - err).bit_length()
    if b != (value + err).bit_length():
        return None
    s = b - bucket  # one ulp at F bits, in units of 2^-W
    rem = value & ((1 << s) - 1)
    if abs(rem - (1 << (s - 1))) <= err + (1 << (s - 16)):
        return None
    return ((value >> s) + (rem >> (s - 1))) << (b - wide)


class _FixedLogs(dict):
    """atom q -> round(ln q, F bits) * 2^F for one bucket F: the integer
    man << (exp + F) of ``ln_rational(q, F)``, taken on first lookup.

    A prime below the sieve cap is first derived in integer fixed point at
    W = F + 32 bits from smaller primes, and ``_round_fixed`` rounds that
    wide value to F bits; where it cannot decide, and for an atom at or past
    the cap, the entry takes ``ln_rational(q, F)``.  So every entry is
    bit-identical to ``ln_rational``'s, by construction.

    The wide value V of a prime q carries an integer bound E with
    |V - 2^W ln q| <= E:

    - q < 64: V is ``ln_rational(q, W)`` exactly in units of 2^-W, and its
      contract, relative error <= 2^(GUARD_BITS - W) with ln q < bitlen(q),
      gives E = bitlen(q) * 2^GUARD_BITS.
    - q >= 64: from q^2 / (q^2 - 1) = (1 + x) / (1 - x) with x = 1/m,
      m = 2q^2 - 1,

          ln q = (ln(q - 1) + ln(q + 1)) / 2 + atanh(1/m),

      where q - 1 and q + 1 split over the sieve into primes below q (q is
      odd), whose V and E add exactly.  The series
      atanh(1/m) = sum_k 1/((2k + 1) m^(2k + 1)) runs on P_0 = floor(2^W / m),
      P_k = floor(P_(k-1) / m^2), adding floor(P_k / (2k + 1)) until P_k = 0.
      With X_k = 2^W / m^(2k + 1), d_k = X_k - P_k obeys
      d_k <= d_(k-1)/m^2 + 1 - 1/m^2 < 1, so each of the n terms added is
      low by d_k/(2k + 1) + 2k/(2k + 1) < 1, and the tail past P_n = 0 is
      below X_n / (1 - m^-2) < 9/8.  Halving the sum of the two logs floors
      by at most 1/2, so
      E(q) = floor((E(q - 1) + E(q + 1)) / 2) + n + 3.

    E averages its children's bounds, so it stays small (below 7,000 units
    for every prime below 2^16 at the buckets up to 1024) against the ulp of
    2^32 units or more, and ``_round_fixed`` falls back about once in 2^15
    atoms.  The wide values stay in this bucket's cache; a composite
    integer's value is the sum of its primes' and is not kept.  The sieve is
    the table's own array, grown in place, so the cache holds no reference
    back to its table.
    """

    def __init__(self, bucket: int, spf: array):
        super().__init__()
        self.bucket = bucket
        self._spf = spf
        self._wide = {}  # prime q -> (V, E)

    def __missing__(self, q: int) -> int:
        fixed = None
        if 2 <= q < _SIEVE_CAP:
            _cover(self._spf, q)
            fixed = _round_fixed(*self._wide_log(q), self.bucket)
        if fixed is None:
            # ln q > 1/2 at F bits has an exponent >= -F
            _, man, exp, _ = ln_rational(q, self.bucket).raw
            fixed = man << (exp + self.bucket)
        self[q] = fixed
        return fixed

    def _wide_log(self, *xs: int):
        """(V, E) of the product of the integers xs, each 1 <= x < 2^16 and
        held by the sieve: the sums over their primes."""
        spf, wide = self._spf, self._wide
        value = err = 0
        for x in xs:
            while x > 1:
                q = spf[x]
                x //= q
                entry = wide.get(q)
                if entry is None:
                    entry = wide[q] = self._prime_wide_log(q)
                value += entry[0]
                err += entry[1]
        return value, err

    def _prime_wide_log(self, q: int):
        w = self.bucket + _WIDE_BITS
        if q < _ANCHOR:
            _, man, exp, _ = ln_rational(q, w).raw
            return man << (exp + w), q.bit_length() << GUARD_BITS
        _cover(self._spf, q + 1)
        logs, err = self._wide_log(q - 1, q + 1)
        m = 2 * q * q - 1
        power = series = (1 << w) // m
        k = 1
        while power:
            power = power // m // m  # floor(power / m^2); m alone divides faster
            k += 2
            series += power // k
        return (logs >> 1) + series, (err >> 1) + k // 2 + 3


class PrimeLogTable:
    """Exact integer combinations of logs of positive integers, rounded once.

    An exponent vector is a dict from atom to an exact integer exponent c_q;
    ``add`` splits an integer into its primes: below 2^16 by a smallest-
    prime-factor sieve, from 2^16 on by trial division over the sieve's
    primes.  A rest of at least 2^32 that no sieve prime divides is kept
    whole as an atom of its own.
    ``log_sum`` evaluates a request: one or more terms, each sum c_q ln q over
    one or more vectors plus an exact rational offset, all divided by one
    integer den, each term as one exact dot product of the atoms' fixed-point
    logs, rounded once.  ``fixed_logs`` gives those logs: its fixed point F
    comes from p and the largest term's bound sum |c_q| bitlen(q) divided by
    den, so each quotient's absolute error stays below 2^-(p+32) before that
    rounding, and the logs are cached per F, so every value is a function of
    the request's terms, den and p alone; each quotient is rounded by
    ``round_scaled``, without building a `Fraction`.  A den above 1 is how a
    linear combination of sums with rational weights, such as an
    extrapolation to the limit, is evaluated: the vectors carry the integer
    numerators, and F is sized for the combination, not for its parts.
    Each atom log equals ``ln_rational``'s bit for bit; below the sieve cap
    it comes from smaller primes' logs by the recurrence of ``_FixedLogs``.

    The sieve, its list of primes and the log cache belong to one table; a
    table serves one evaluation run and is not shared across threads.
    """

    def __init__(self):
        self._spf = array("I")  # grown in place, shared with the log caches
        self._primes = []  # the primes below self._scanned, in increasing order
        self._scanned = 2
        self._fixed_logs = {}  # bucket F -> _FixedLogs(F)

    def add(self, counts: dict, x: int, m: int) -> None:
        """Add m times the atom exponents of the integer x >= 1 to counts."""
        spf = self._spf
        if x >= _SIEVE_CAP:
            root = min(math.isqrt(x), _SIEVE_CAP - 1)
            if root >= self._scanned:  # list the sieve primes up to root
                _cover(spf, root)
                self._primes.extend(q for q in range(self._scanned, root + 1) if spf[q] == q)
                self._scanned = root + 1
            for q in self._primes:
                if x < _SIEVE_CAP or q * q > x:
                    break
                while x % q == 0:
                    x //= q
                    counts[q] = counts.get(q, 0) + m
            if x >= _SIEVE_CAP:  # a prime, or 2^32 or more with no sieve prime
                counts[x] = counts.get(x, 0) + m
                return
        if x >= len(spf):
            _cover(spf, x)
        while x > 1:
            q = spf[x]
            x //= q
            counts[q] = counts.get(q, 0) + m

    def add_all(self, counts: dict, changes) -> None:
        """``add`` for each (integer x >= 1, m) of ``changes``, such as a
        dict's items: the integers below the sieve cap split in one loop."""
        spf, get = self._spf, counts.get
        size = len(spf)
        for x, m in changes:
            if not m:
                continue
            if x >= size:
                if x >= _SIEVE_CAP:
                    self.add(counts, x, m)
                    continue
                _cover(spf, x)
                size = len(spf)
            while x > 1:
                q = spf[x]
                x //= q
                counts[q] = get(q, 0) + m

    def fixed_logs(self, p: int, bound: int) -> _FixedLogs:
        """The atom logs for a dot product rounded to p bits whose vectors,
        over the product's denominator, have sum |c_q| bitlen(q) <= bound: a
        mapping atom -> round(ln q * 2^F), with the fixed point F in its
        ``bucket``."""
        # at F >= wp bits each atom log is off by at most 2^-F ln q, and
        # ln q < bitlen(q), so the dot product is off by less than
        # bound * 2^-F <= 2^-(p+32); F rounds wp up to a multiple of 64, so
        # requests whose vectors differ by a few bits share one set of logs
        wp = p + 32 + bound.bit_length()
        bucket = -(-wp // 64) * 64
        logs = self._fixed_logs.get(bucket)
        if logs is None:
            logs = self._fixed_logs[bucket] = _FixedLogs(bucket, self._spf)
        return logs

    def log_sum(self, p: int, terms, den: int = 1) -> list:
        """One Real per term (vectors, offset) of the list ``terms``: (the sum
        over the vectors of sum c_q ln q, plus offset) / den, for an integer
        den >= 1, each rounded once to p bits.

        F is sized once for the request, from the largest term's bound
        divided by den, rounded up, so its terms share one set of atom logs:
        each atom log's error is divided by den too, and sizing from the
        bound alone would buy bitlen(den) bits the quotients do not need."""
        bound = max(sum(abs(c) * q.bit_length() for counts in vectors for q, c in counts.items())
                    for vectors, _ in terms)
        logs = self.fixed_logs(p, -(-bound // den))
        f = logs.bucket
        values = []
        for vectors, offset in terms:
            total = sum(c * logs[q] for counts in vectors for q, c in counts.items() if c)
            num, off_den = offset.numerator, offset.denominator
            values.append(round_scaled(total * off_den + (num << f), -f, p, off_den * den))
        return values


def _floor_log10(v: Fraction):
    """(e, 10**|e|) with 10**e <= v < 10**(e+1), for v > 0: a float estimate
    settled by exact integer comparisons, the one power stepped by 10."""
    num, den = v.numerator, v.denominator
    e = math.floor(_log2_abs_fraction(v) * math.log10(2.0))
    pw = 10 ** abs(e)
    while pw * den > num if e >= 0 else den > num * pw:  # 10**e > v
        pw, e = pw // 10 if e > 0 else pw * 10, e - 1
    while 10 * pw * den <= num if e >= 0 else 10 * den <= num * pw:  # 10**(e+1) <= v
        pw, e = pw * 10 if e >= 0 else pw // 10, e + 1
    return e, pw


def agreement_digits(a: Real, b: Real) -> int:
    """floor(-log10(|a-b| / max(|a|,|b|))), or MAX_AGREEMENT when a = b.

    Symmetric; returns MAX_AGREEMENT when both are zero.  Can be negative
    when the values differ in order of magnitude.
    """
    if a.raw == b.raw:
        return MAX_AGREEMENT
    p = max(a.precision_bits, b.precision_bits) + 16
    diff = abs(sub(a, b, p))
    if diff.is_zero():
        return MAX_AGREEMENT
    denom = abs(a) if abs(a) >= abs(b) else abs(b)
    if denom.is_zero():
        return MAX_AGREEMENT
    rel = div(diff, denom, 53).to_fraction()
    # rel > 0; with 10**e <= rel < 10**(e+1), -log10(rel) is -e at the
    # lower edge and lies strictly between -e-1 and -e above it
    e, pw = _floor_log10(rel)
    return -e if rel == (pw if e >= 0 else Fraction(1, pw)) else -e - 1


def truncated_decimal(x: Real, digits: int) -> str:
    """Decimal string with exactly ``digits`` significant digits, truncated.

    Truncation is toward zero, so the printed digits are a true prefix of
    the exact decimal expansion of ``x``.
    """
    if digits < 1:
        raise SpecError("digits must be >= 1")
    v = x.to_fraction()
    if v == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    neg = v < 0
    v = -v if neg else v
    e, pw = _floor_log10(v)
    # leading `digits` digits as an integer, truncated: floor(v * 10^k) by one
    # integer division, no gcd; 10^|k| comes from 10^|e| and 10^(digits-1)
    k = digits - 1 - e
    num, den = v.numerator, v.denominator
    lead = 10 ** (digits - 1)
    if k < 0:
        s = str(num // (den * (pw // lead)))
    else:
        s = str(num * (pw * lead if e < 0 else 10**k) // den)
    assert len(s) == digits
    if e >= digits - 1:
        out = s + "0" * (e - digits + 1)
    elif e >= 0:
        out = s[: e + 1] + "." + s[e + 1 :]
    else:
        out = "0." + "0" * (-e - 1) + s
    return ("-" + out) if neg else out
