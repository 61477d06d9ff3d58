"""Special-function kernel.

Log-gamma, Hurwitz zeta and its s-derivative, and Barnes log-G.  Every
routine takes an explicit precision ``p`` (bits) and returns a
:class:`~altprod.numkernel.Real` whose error is at most
``2**(GUARD_BITS - p) * max(1, |value|)``.

Algorithms: Stirling's asymptotic series with argument raising for lnGamma;
Euler-Maclaurin for zeta(s, a) and its s-derivative (one code path, the
derivative carries log-weighted terms and a differentiated Pochhammer
recurrence); the exact rational -B_(k+1)(a)/(k+1) for zeta(-k, a) at an
integer k >= 0; Adamchik's Hurwitz form for Barnes ln G,
ln G(x) = (x - 1) ln Gamma(x) + zeta'(-1) - zeta'(-1, x), which needs no
argument reduction.  All inputs are exact rationals internally, so argument
raising costs no accuracy.  Both Bernoulli tails, Stirling's and
Euler-Maclaurin's, are sums of exact rationals: each term is one floor
division in integer fixed point, the sum is rounded once, and ln(N + a)
enters the differentiated tail as one fixed-point integer.  The Bernoulli
numbers come from one per-process table of tangent numbers (Brent and
Harvey), built on first use and doubled when a tail runs past its end.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import numkernel as nk
from .numkernel import (
    DomainError,
    NonConvergenceError,
    OracleRangeError,
    Real,
    to_real,
)

__all__ = [
    "HurwitzQuery",
    "bernoulli_even",
    "ln_gamma",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "zeta",
    "zeta_sderiv",
    "ln_barnesG",
]

RealIn = Union[int, Fraction, float, Real]


def _as_fraction(x: RealIn, what: str = "argument") -> Fraction:
    if isinstance(x, Real):
        return x.to_fraction()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"{what} must be finite")
        return Fraction(x)
    raise TypeError(f"{what} must be int, Fraction, float, or Real")


# -- Bernoulli table ---------------------------------------------------------

_bern_lock = threading.Lock()
# (B_0, B_2, ..., B_2(n-1)): empty until first use, then grown by doubling
_bern_table: tuple = ()
_BERN_BLOCK = 64


def _tangent_numbers(n: int) -> list:
    """T_1 .. T_n, tan x = sum_k T_k x^(2k-1) / (2k-1)!, by Brent and Harvey's
    in-place recurrence ("Fast computation of Bernoulli, Tangent and Secant
    numbers", 2011): n^2/2 multiplications of an integer by a small one."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _bernoulli_block(size: int) -> tuple:
    """(B_0, ..., B_2(size-1)) from the tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    out = [Fraction(1)]
    for k, t in enumerate(_tangent_numbers(size - 1), 1):
        q = 1 << (2 * k)
        out.append(Fraction(2 * k * t if k % 2 else -2 * k * t, q * (q - 1)))
    return tuple(out)


def bernoulli_even(n: int) -> Fraction:
    """Exact B_{2n} as a Fraction, from a per-process table that is built on
    first use and doubled, a block at a time, when n passes its end."""
    global _bern_table
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    table = _bern_table
    if n >= len(table):
        with _bern_lock:
            table = _bern_table
            if n >= len(table):
                size = _BERN_BLOCK
                while size <= n:
                    size *= 2
                table = _bern_table = _bernoulli_block(size)
    return table[n]


# -- domain types ------------------------------------------------------------


@dataclass(frozen=True)
class HurwitzQuery:
    """Arguments (s, a) of the Hurwitz zeta family: a > 0, s != 1."""

    s: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", _as_fraction(self.s, "s"))
        object.__setattr__(self, "a", _as_fraction(self.a, "a"))
        if self.a <= 0:
            raise DomainError("HurwitzQuery needs a > 0")
        if self.s == 1:
            raise DomainError("s = 1 is the pole of zeta(s, a)")


# -- lnGamma -----------------------------------------------------------------


def _stirling_tail(t: Fraction, wp: int) -> Real:
    """sum_{n>=1} B_2n / (2n (2n-1) t^(2n-1)) for t > 0, summed until a term
    falls below 2^(-wp-4), rounded to wp bits.

    Each term is one floor division in integer fixed point at
    W = wp + 4 + bitlen(wp) bits, with t = tn/td:
    floor(2^W B_2n td^(2n-1) / (2n (2n-1) tn^(2n-1))).  The stop rule is
    exact there, since a floor is below 2^(W-wp-4) exactly when the term is
    below 2^(-wp-4).  A term that does not shrink raises, as does a tail
    past wp terms.  Error: each floor is off by less than one unit 2^-W, and
    at most wp terms are summed, so the sum is within wp 2^-W < 2^(-wp-4) of
    the summed terms; the series' remainder is below the last term,
    2^(-wp-4); the rounding adds 2^-wp relative.
    """
    W = wp + 4 + wp.bit_length()
    tn, td = t.numerator, t.denominator
    tn2, td2 = tn * tn, td * td
    up, down = td, tn  # t^-(2n-1) = up / down
    total, prev = 0, None
    for n in range(1, wp + 1):
        b = bernoulli_even(n)
        term = (b.numerator * up << W) // (b.denominator * (2 * n) * (2 * n - 1) * down)
        total += term
        mag = abs(term)
        if mag.bit_length() <= W - wp - 4:
            return nk.round_scaled(total, -W, wp)
        if prev is not None and mag >= prev:
            raise NonConvergenceError(f"Stirling tail stalled at n={n} for t={t}")
        prev = mag
        up *= td2
        down *= tn2
    raise NonConvergenceError(f"Stirling tail exceeded {wp} terms")


def _ln_gamma_fraction(x: Fraction, p: int) -> Real:
    if x <= 0:
        raise DomainError("ln_gamma needs x > 0")
    # integers go through the exact factorial
    if x.denominator == 1 and x <= 40000:
        return nk.ln_rational(math.factorial(int(x) - 1), p)

    wp = p + 32
    xf = float(x) if x < 10**300 else 1e300
    # raise the argument until Stirling's tail can reach 2^-wp-8
    thresh = 0.115 * (wp + 16) + 2.0
    m = 0 if xf >= thresh else int(math.ceil(thresh - xf))
    # cancellation between lnGamma(x+m) and the raising product
    if m:
        wp += max(0, int(m * math.log2(m + xf + 2))).bit_length() + 8
    t = x + m

    lnt = nk.ln_rational(t, wp)
    tr = to_real(t, wp)
    # (t - 1/2) ln t - t + ln(2 pi)/2
    acc = nk.sub(nk.mul(to_real(t - Fraction(1, 2), wp), lnt, wp), tr, wp)
    ln2pi = nk.add(nk.ln2(wp), nk.ln(nk.pi_ref(wp), wp), wp)
    acc = nk.add(acc, nk.ldexp(ln2pi, -1), wp)

    acc = nk.add(acc, _stirling_tail(t, wp), wp)
    if m:
        prod = Fraction(1)
        for k in range(m):
            prod *= x + k
        acc = nk.sub(acc, nk.ln_rational(prod, wp), wp)
    return acc.at(p)


def ln_gamma(x: RealIn, p: int) -> Real:
    """ln Gamma(x) for x > 0."""
    return _ln_gamma_fraction(_as_fraction(x, "x"), p)


# -- Euler-Maclaurin zeta family ----------------------------------------------


# Bounds on an Euler-Maclaurin plan, timed at 12 digits on a 2-vCPU host
# (Python 3.11, mpmath 1.3, no gmpy2), each in a fresh process, so with the
# Bernoulli table's build.  Largest admitted orders at a = 1: zeta(-387)
# 0.02 s (exact), zeta'(-387) 1.8 s, zeta(-773/2) 2.2 s, zeta'(-773/2) 5.7-7.1 s,
# zeta(93622) 2.9-3.4 s; unbounded, hzeta(-200, 10^200) took 159 s.  A
# caller's precision alone passes neither bound below ~56,000 digits.
_EM_TERMS_CAP = 1 << 16
_EM_ORDER_BITS_CAP = 1 << 12


def _em_plan(s: Fraction, a: Fraction, p: int):
    """Euler-Maclaurin cut N and working precision wp for zeta(s, a) at p bits.
    A negative s makes the head grow like (N+a)^|s|: those bits are bought
    back, again for the larger cut they ask for, until the guard's 16 bits
    cover the final cut.  OracleRangeError, before any term is summed, when N
    passes _EM_TERMS_CAP or the order adds more than _EM_ORDER_BITS_CAP bits."""
    wp = p + 32
    base = max(10, math.ceil(0.35 * wp), math.ceil(Fraction(7, 10) * abs(s)))
    if base > _EM_TERMS_CAP:
        raise OracleRangeError(f"zeta order needs more than {_EM_TERMS_CAP} Euler-Maclaurin terms")
    N, extra = base, 0
    while s < 0:
        extra = int(-float(s) * nk._log2_abs_fraction(N + a + 1)) + 16
        if extra > _EM_ORDER_BITS_CAP:
            raise OracleRangeError(f"zeta order adds {extra} bits to the Euler-Maclaurin"
                                   f" precision, more than {_EM_ORDER_BITS_CAP}")
        N = max(base, math.ceil(0.35 * (wp + extra)))
        if -float(s) * nk._log2_abs_fraction(N + a + 1) <= extra:
            break
    return N, wp + extra


def _em_zeta(s: Fraction, a: Fraction, p: int, derivative: bool) -> Real:
    """Shared Euler-Maclaurin evaluator for zeta(s,a) and d/ds zeta(s,a);
    zeta(-k, a) at an integer k >= 0 is the exact rational, rounded once.
    The plan is taken first in every case, so its bounds refuse the same
    orders whichever way the value is found."""
    if s == 1:
        raise DomainError("s = 1 is the pole")
    if a <= 0:
        raise DomainError("a must be > 0")
    N, wp = _em_plan(s, a, p)
    s_int = int(s) if s.denominator == 1 else None
    if s_int is not None and s_int <= 0 and not derivative:
        return to_real(_zeta_at_nonpositive_integer(-s_int, a), p)

    for attempt in range(6):
        try:
            return _em_zeta_once(s, a, wp, N, s_int, derivative).at(p)
        except NonConvergenceError:
            N *= 2
            wp += 16
    raise NonConvergenceError(f"Euler-Maclaurin failed to settle for s={s}, a={a}")


def _zeta_at_nonpositive_integer(k: int, a: Fraction) -> Fraction:
    """zeta(-k, a) = -B_(k+1)(a) / (k + 1), exactly, for an integer k >= 0.

    B_n(a) = sum_j C(n, j) B_j a^(n-j), where B_1 = -1/2 is the only odd
    Bernoulli number that is not 0."""
    n = k + 1
    total = a**n - Fraction(n, 2) * a**k
    for j in range(1, n // 2 + 1):
        total += math.comb(n, 2 * j) * bernoulli_even(j) * a ** (n - 2 * j)
    return -total / n


def _log_power_head(k: int, a: Fraction, N: int, wp: int) -> Real:
    """-sum_{n<N} (n+a)^k ln(n+a) for an integer k >= 0, the head of
    zeta'(-k, a), as one exact dot product rounded to wp bits.

    With a = u/v the head is -v^-k [sum (vn+u)^k ln(vn+u) - (sum (vn+u)^k) ln v],
    whose weights are integers, so the bracket is one exponent vector over
    the primes of vn + u and v, evaluated by a table of this call's own.  The
    bracket is rounded once at wp + 32 bits and the quotient once at wp bits,
    so the head is off by at most (1 + 2^-31) 2^-wp |head|.
    """
    u, v = a.numerator, a.denominator
    logs = nk.PrimeLogTable()
    counts = {}
    total = 0
    for n in range(N):
        x = v * n + u
        w = x**k
        logs.add(counts, x, w)
        total += w
    logs.add(counts, v, -total)
    return nk.div(logs.log_sum(wp + 32, [([counts], 0)])[0], to_real(-(v**k), wp), wp)


def _em_zeta_once(
    s: Fraction, a: Fraction, wp: int, N: int, s_int, derivative: bool
) -> Real:
    sr = to_real(s, wp)
    one = to_real(1, wp)

    def power_neg_s(base: Fraction) -> Real:
        # base^(-s)
        if s_int is not None:
            return nk.pow_int(to_real(base, wp), -s_int, wp)
        return nk.powr(to_real(base, wp), -sr, wp)

    # head: sum_{n<N} (n+a)^{-s}, log-weighted when differentiating
    if derivative and s_int is not None and s_int <= 0:
        head = _log_power_head(-s_int, a, N, wp)
    else:
        head = to_real(0, wp)
        for n in range(N):
            base = n + a
            t = power_neg_s(base)
            if derivative:
                t = nk.mul(nk.sub(to_real(0, wp), nk.ln_rational(base, wp), wp), t, wp)
            head = nk.add(head, t, wp)

    Na = N + a
    pm = power_neg_s(Na)  # (N+a)^{-s}
    s1 = nk.sub(sr, one, wp)  # s - 1

    # (N+a)^{1-s}/(s-1) and (N+a)^{-s}/2, with their s-derivatives
    p1ms = nk.mul(pm, to_real(Na, wp), wp)  # (N+a)^{1-s}
    if not derivative:
        acc = nk.add(head, nk.div(p1ms, s1, wp), wp)
        acc = nk.add(acc, nk.ldexp(pm, -1), wp)
    else:
        lnNa = nk.ln_rational(Na, wp)
        # d/ds [(N+a)^{1-s}/(s-1)] = -(N+a)^{1-s} ln(N+a)/(s-1) - (N+a)^{1-s}/(s-1)^2
        d1 = nk.div(nk.mul(p1ms, lnNa, wp), s1, wp)
        d2 = nk.div(p1ms, nk.mul(s1, s1, wp), wp)
        acc = nk.sub(nk.sub(head, d1, wp), d2, wp)
        # d/ds [(N+a)^{-s}/2] = -ln(N+a) (N+a)^{-s} / 2
        acc = nk.sub(acc, nk.ldexp(nk.mul(lnNa, pm, wp), -1), wp)
    return nk.add(acc, nk.mul(pm, _em_tail(s, Na, pm, wp, derivative), wp), wp)


def _em_tail(s: Fraction, x: Fraction, pm: Real, wp: int, derivative: bool) -> Real:
    """The Euler-Maclaurin tail of zeta(s, a) over pm = x^-s, x = N + a:
    sum_{m>=1} c_m P_m x^(1-2m), or with ``derivative`` its s-derivative
    over pm, sum_{m>=1} c_m (D_m - P_m ln x) x^(1-2m), where
    c_m = B_2m / (2m)!, P_m = s (s+1) ... (s+2m-2) and D_m = dP_m/ds.  Terms
    are summed while pm times a term is at least 2^(-wp-4); a term that does
    not shrink raises, as does a tail past wp terms.

    With s = sn/sd and x = xn/xd the sums are integer fixed point at W bits:
    P_m sd^(2m-1) and D_m sd^(2m-2) are integers, by
    P_(m+1) = P_m q_m and D_(m+1) = D_m q_m + P_m (2s + 4m - 1) with
    q_m = (s+2m-1)(s+2m), so each term is one floor division,
    floor(B_2m xd^(2m-1) lead / ((2m)! (sd xn)^(2m-1))) with
    lead = 2^W P_m sd^(2m-1), or 2^W D_m sd^(2m-1) - P_m sd^(2m-1) L for the
    derivative.  L = round(2^W ln x), from ln x at W + 40 bits, relative
    error 2^(GUARD_BITS-W-40), so |L - 2^W ln x| <= 1/2 + 2^-32 ln x < 1
    while ln x < 2^31.  The stop rule multiplies pm's mantissa into the
    term, so it compares integers.

    Error, in units 2^-W: a floor is off by less than 1, and L's error adds
    less than |c_m P_m x^(1-2m)|.  That is |s|/(12x) at m = 1, below 1/8
    since the plan takes N >= 0.7|s|, and the ratio of consecutive values is
    at most ((|s| + 2m)/(2 pi x))^2, as |B_2m+2 / B_2m| <= (2m+1)(2m+2) /
    (4 pi^2); with N >= 0.35 wp that is below 1 for m <= 0.8 wp.  (Orders
    up to the plan's caps, at 12 to 1000 digits, stop by m = 0.22 wp.)  So
    each term is off by less than 2 units and the at most wp terms by less
    than 2 wp units.  With 2^E > pm and W = wp + 4 + max(E, 0) + bitlen(2 wp),
    pm times that is below 2^(-wp-4), as is pm times the last term summed.
    """
    _, man, exp, bc = pm.raw
    W = wp + 4 + max(exp + bc, 0) + (2 * wp).bit_length()
    stop_bits = W - wp - 4 - exp  # pm |term| < 2^(-wp-4) when man |term| < 2^stop_bits
    sn, sd = s.numerator, s.denominator
    xn, xd = x.numerator, x.denominator
    if derivative:
        # L = round(2^W ln x) from ln x = lman 2^lexp > 0 (x >= N >= 10)
        _, lman, lexp, _ = nk.ln_rational(x, W + 40).raw
        shift = lexp + W
        L = lman << shift if shift >= 0 else (lman + (1 << (-shift - 1))) >> -shift
    P, D = sn, 1  # P_m sd^(2m-1), D_m sd^(2m-2)
    up, down = xd, sd * xn  # xd^(2m-1), (sd xn)^(2m-1)
    up2, down2 = xd * xd, down * down
    fact = 2  # (2m)!
    total, prev = 0, None
    for m in range(1, wp + 1):
        b = bernoulli_even(m)
        lead = (D * sd << W) - P * L if derivative else P << W
        term = b.numerator * up * lead // (b.denominator * fact * down)
        total += term
        mag = abs(term)
        if (man * mag).bit_length() <= stop_bits:
            return nk.round_scaled(total, -W, wp)
        if prev is not None and mag >= prev:
            raise NonConvergenceError(f"EM tail stalled at m={m}")
        prev = mag
        q = (sn + (2 * m - 1) * sd) * (sn + 2 * m * sd)
        D = D * q + P * (2 * sn + (4 * m - 1) * sd)
        P *= q
        up *= up2
        down *= down2
        fact *= (2 * m + 1) * (2 * m + 2)
    raise NonConvergenceError("EM tail exceeded term cap")


def hurwitz_zeta(q: HurwitzQuery, p: int) -> Real:
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s}, continued to all real s != 1."""
    return _em_zeta(q.s, q.a, p, derivative=False)


def hurwitz_zeta_sderiv(q: HurwitzQuery, p: int) -> Real:
    """d/ds zeta(s, a)."""
    return _em_zeta(q.s, q.a, p, derivative=True)


def zeta(s: RealIn, p: int) -> Real:
    """Riemann zeta(s), s != 1."""
    return _em_zeta(_as_fraction(s, "s"), Fraction(1), p, derivative=False)


def zeta_sderiv(s: RealIn, p: int) -> Real:
    """Riemann zeta'(s), s != 1."""
    return _em_zeta(_as_fraction(s, "s"), Fraction(1), p, derivative=True)


# -- Barnes G ------------------------------------------------------------------


def ln_barnesG(x: RealIn, p: int) -> Real:
    """ln G(x) for x > 0, G the double-gamma function with G(1) = 1.

    Adamchik's Hurwitz form ln G(x) = (x - 1) ln Gamma(x) + zeta'(-1)
    - zeta'(-1, x) holds for every x > 0; G(1) = G(2) = G(3) = 1 return
    exact zeros.
    """
    xq = _as_fraction(x, "x")
    if xq <= 0:
        raise DomainError("ln_barnesG needs x > 0")
    if xq in (1, 2, 3):
        return to_real(0, p)
    # the terms exceed max(1, |ln G(x)|) by a few bits at most (about
    # x^2 ln x against x^2 ln(x)/2 for large x), well inside the guard
    wp = p + 24
    acc = nk.mul(to_real(xq - 1, wp), ln_gamma(xq, wp), wp)
    acc = nk.add(acc, zeta_sderiv(-1, wp), wp)
    acc = nk.sub(acc, hurwitz_zeta_sderiv(HurwitzQuery(-1, xq), wp), wp)
    return acc.at(p)
