"""Special-function kernel.

Log-gamma, Hurwitz zeta and its s-derivative, and Barnes log-G.  Every
routine takes an explicit precision ``p`` (bits) and returns a
:class:`~altprod.numkernel.Real` whose error is at most
``2**(GUARD_BITS - p) * max(1, |value|)``.

Algorithms: Stirling's asymptotic series with argument raising for lnGamma;
Euler-Maclaurin for zeta(s, a) and its s-derivative (one code path, the
derivative carries log-weighted terms and a differentiated Pochhammer
recurrence); Adamchik's Hurwitz form for Barnes ln G,
ln G(x) = (x - 1) ln Gamma(x) + zeta'(-1) - zeta'(-1, x), which needs no
argument reduction.  All inputs are exact rationals internally, so argument
raising costs no accuracy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import bernfrac

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


# -- Bernoulli cache ---------------------------------------------------------

_bern_lock = threading.Lock()
_bern_cache: dict = {}


def bernoulli_even(n: int) -> Fraction:
    """Exact B_{2n} as a Fraction, cached per process."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    got = _bern_cache.get(n)
    if got is None:
        p, q = bernfrac(2 * n)
        got = Fraction(int(p), int(q))
        with _bern_lock:
            _bern_cache.setdefault(n, got)
    return got


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

    # Bernoulli tail: sum B_{2n} / (2n (2n-1) t^{2n-1})
    inv = nk.div(to_real(1, wp), tr, wp)
    inv2 = nk.mul(inv, inv, wp)
    pw = inv
    tol = nk.ldexp(to_real(1, wp), -wp - 4)
    prev = None
    n = 1
    while True:
        c = bernoulli_even(n) / ((2 * n) * (2 * n - 1))
        term = nk.mul(to_real(c, wp), pw, wp)
        acc = nk.add(acc, term, wp)
        mag = abs(term)
        if mag < tol:
            break
        if prev is not None and mag >= prev:
            raise NonConvergenceError(
                f"Stirling tail stalled at n={n} for x={x}", best=acc
            )
        prev = mag
        pw = nk.mul(pw, inv2, wp)
        n += 1
        if n > wp:
            raise NonConvergenceError(f"Stirling tail exceeded {wp} terms", best=acc)

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
# (Python 3.11, mpmath 1.3, no gmpy2).  Largest admitted orders at a = 1:
# zeta(-387) 0.15 s, zeta'(-387) 3.1 s, zeta(-773/2) 3.5 s, zeta'(-773/2) 6.6 s,
# zeta(93622) 2.9 s; unbounded, zeta(-3999) took 46 s and hzeta(-200, 10^200)
# 159 s.  A caller's precision alone passes neither bound below ~56,000 digits.
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
    """Shared Euler-Maclaurin evaluator for zeta(s,a) and d/ds zeta(s,a)."""
    if s == 1:
        raise DomainError("s = 1 is the pole")
    if a <= 0:
        raise DomainError("a must be > 0")
    N, wp = _em_plan(s, a, p)
    s_int = int(s) if s.denominator == 1 else None

    for attempt in range(6):
        try:
            return _em_zeta_once(s, a, wp, N, s_int, derivative).at(p)
        except NonConvergenceError:
            N *= 2
            wp += 16
    raise NonConvergenceError(f"Euler-Maclaurin failed to settle for s={s}, a={a}")


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
    lnNa = nk.ln_rational(Na, wp)
    pm = power_neg_s(Na)  # (N+a)^{-s}
    s1 = nk.sub(sr, one, wp)  # s - 1

    # (N+a)^{1-s}/(s-1) and (N+a)^{-s}/2, with their s-derivatives
    p1ms = nk.mul(pm, to_real(Na, wp), wp)  # (N+a)^{1-s}
    if not derivative:
        acc = nk.add(head, nk.div(p1ms, s1, wp), wp)
        acc = nk.add(acc, nk.ldexp(pm, -1), wp)
    else:
        # d/ds [(N+a)^{1-s}/(s-1)] = -(N+a)^{1-s} ln(N+a)/(s-1) - (N+a)^{1-s}/(s-1)^2
        d1 = nk.div(nk.mul(p1ms, lnNa, wp), s1, wp)
        d2 = nk.div(p1ms, nk.mul(s1, s1, wp), wp)
        acc = nk.sub(nk.sub(head, d1, wp), d2, wp)
        # d/ds [(N+a)^{-s}/2] = -ln(N+a) (N+a)^{-s} / 2
        acc = nk.sub(acc, nk.ldexp(nk.mul(lnNa, pm, wp), -1), wp)

    # Bernoulli tail: terms B_{2m}/(2m)! * P_m(s) * (N+a)^{-s-2m+1}
    # P_m = s(s+1)...(s+2m-2); D_m = dP_m/ds
    P = Fraction(s)
    D = Fraction(1)
    fact = 2  # (2m)! for m=1
    pw = nk.mul(pm, nk.div(one, to_real(Na, wp), wp), wp)  # (N+a)^{-s-1}
    inv2 = nk.pow_int(to_real(Na, wp), -2, wp)
    tol = nk.ldexp(one, -wp - 4)
    prev = None
    m = 1
    while True:
        b = bernoulli_even(m)
        coef = b / fact
        if not derivative:
            term = nk.mul(to_real(coef * P, wp), pw, wp)
        else:
            # d/ds [coef * P * (N+a)^{-s-2m+1}]
            #   = coef * (D - P ln(N+a)) * (N+a)^{-s-2m+1}
            lead = nk.sub(to_real(D, wp), nk.mul(to_real(P, wp), lnNa, wp), wp)
            term = nk.mul(nk.mul(to_real(coef, wp), lead, wp), pw, wp)
        acc = nk.add(acc, term, wp)
        mag = abs(term)
        if mag < tol:
            break
        if prev is not None and mag >= prev:
            raise NonConvergenceError(f"EM tail stalled at m={m}")
        prev = mag
        # advance P, D, (2m)!, power
        D = D * (s + 2 * m - 1) * (s + 2 * m) + P * (2 * s + 4 * m - 1)
        P = P * (s + 2 * m - 1) * (s + 2 * m)
        fact *= (2 * m + 1) * (2 * m + 2)
        pw = nk.mul(pw, inv2, wp)
        m += 1
        if m > wp:
            raise NonConvergenceError("EM tail exceeded term cap")
    return acc


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
