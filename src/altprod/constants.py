"""Named fundamental constants with dual-route cross-validation.

Every constant is computed by two independent algorithms; a value is
released only when the routes agree to the full requested precision, which
makes silently wrong digits effectively impossible.  Released values are
memoized per (id, precision) and safe for concurrent readers.

Routes (primary / check); the primary series are summed in integer fixed
point, those of PI, E, CATALAN and ZETA3 by one kernel, ``_series_fixed``:

- PI            Machin arctangent series / AGM iteration
- E             factorial Taylor series / continued fraction
- EULER_GAMMA   harmonic-sum Euler-Maclaurin at cut N / the same at cut 2N
- CATALAN       binomial-sum series with an arctanh closed part / the defining
                alternating series summed by CRVZ (``accel.alternating_sum``)
- ZETA3         binomial-sum alternating series / eta(3), the alternating
                unit-cube series, summed by CRVZ
- LN_GLAISHER   1/12 - zeta'(-1) via the zeta kernel / an independent identity
                through zeta'(2), the harmonic constant, and ln(2 pi), with
                eta'(2) summed by CRVZ
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import numkernel as nk
from .accel import ALTERNATING_TERMS, SequenceGen, alternating_sum
from .numkernel import (
    NonConvergenceError,
    Real,
    SpecError,
    to_real,
)
from .zetagamma import HurwitzQuery, bernoulli_even, hurwitz_zeta_sderiv

__all__ = [
    "CONSTANT_IDS",
    "NamedConstant",
    "REGISTRY",
    "constant",
    "decimal_digits",
]


@dataclass(frozen=True)
class NamedConstant:
    id: str
    primary_route: str
    check_route: str


REGISTRY = {
    "PI": NamedConstant("PI", "machin-arctan-fixedpoint", "agm-iteration"),
    "E": NamedConstant("E", "taylor-fixedpoint", "continued-fraction"),
    "EULER_GAMMA": NamedConstant("EULER_GAMMA", "harmonic-em-cut-N", "harmonic-em-cut-2N"),
    "CATALAN": NamedConstant("CATALAN", "binomial-arctanh-series", "crvz-summed-defining-series"),
    "ZETA3": NamedConstant("ZETA3", "alternating-binomial-series", "crvz-summed-eta3"),
    "LN_GLAISHER": NamedConstant("LN_GLAISHER", "zeta-sderiv-at-minus-one", "zeta-sderiv-at-two-identity"),
}

CONSTANT_IDS = tuple(REGISTRY)

_memo_lock = threading.Lock()
_memo: dict = {}


# -- series kernel ---------------------------------------------------------------


def _series_fixed(t0: Fraction, ratio, w: int) -> int:
    """2^w * sum_{n>=0} t(n) in integer fixed point, where t(0) = t0 > 0 and
    t(n+1)/t(n) = a(n)/b(n) for (a(n), b(n)) = ratio(n), b(n) > 0.

    Each term is the last one times a(n)/b(n), truncated toward zero; the
    sum stops at the first term that truncates to zero.  Error bound, for
    |a(n)/b(n)| <= r < 1: every term is within 1/(1 - r) units of its exact
    scaled value, each term is at most r times the last, so N <= 1 +
    log(2^w t0)/log(1/r) of them are summed, and the exact tail after them
    is below 1/(1 - r)^2.  The result is within (N + 1/(1 - r))/(1 - r)
    units of 2^w * sum t(n).
    """
    term = (t0.numerator << w) // t0.denominator
    total = n = 0
    while term:
        total += term
        a, b = ratio(n)
        x = term * a
        term = x // b if x >= 0 else -(-x // b)
        n += 1
    return total


# -- PI --------------------------------------------------------------------------


def _pi_machin(wp: int) -> Real:
    # 16 atan(1/5) - 4 atan(1/239), atan(1/k) = sum (-1)^n / ((2n+1) k^(2n+1))
    w = wp + 16

    def atan_inv(k: int) -> int:
        return _series_fixed(Fraction(1, k), lambda n: (-(2 * n + 1), (2 * n + 3) * k * k), w)

    return to_real(Fraction(16 * atan_inv(5) - 4 * atan_inv(239), 1 << w), wp)


def _pi_agm(wp: int) -> Real:
    w = wp + 24
    one = to_real(1, w)
    a = one
    b = nk.sqrt(nk.ldexp(one, -1), w)  # 1/sqrt(2)
    t = to_real(Fraction(1, 4), w)
    x = 1
    # quadratic convergence: each sweep doubles correct bits
    for _ in range(int(math.log2(w)) + 3):
        an = nk.ldexp(nk.add(a, b, w), -1)
        b = nk.sqrt(nk.mul(a, b, w), w)
        d = nk.sub(a, an, w)
        t = nk.sub(t, nk.mul(to_real(x, w), nk.mul(d, d, w), w), w)
        a = an
        x *= 2
    s = nk.add(a, b, w)
    return nk.div(nk.mul(s, s, w), nk.ldexp(t, 2), w).at(wp)


# -- E ---------------------------------------------------------------------------


def _e_taylor(wp: int) -> Real:
    # 1 + sum_{n>=0} 1/(n+1)!
    w = wp + 16
    total = (1 << w) + _series_fixed(Fraction(1), lambda n: (1, n + 2), w)
    return to_real(Fraction(total, 1 << w), wp)


def _e_continued_fraction(wp: int) -> Real:
    # [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]: convergent error < 1/(q_n q_{n+1})
    def coeffs():
        yield 2
        m = 2
        while True:
            yield 1
            yield m
            yield 1
            m += 2

    h0, h1 = 1, 0  # h_{-1}, h_{-2}
    q0, q1 = 0, 1  # q_{-1}, q_{-2}
    bound = 1 << (wp + 8)
    for a in coeffs():
        h0, h1 = a * h0 + h1, h0
        q0, q1 = a * q0 + q1, q0
        if q0 * q1 > bound:
            break
    return to_real(Fraction(h0, q0), wp)


# -- EULER_GAMMA -------------------------------------------------------------------


def _gamma_harmonic_em(wp: int, cut_doubling: int) -> Real:
    """gamma = H_N - ln N - 1/(2N) + sum_{k>=1} B_2k / (2k N^2k), N = 2^t.

    All but ln N = t ln 2 is summed in W-bit integer fixed point: H_N as
    sum floor(2^W/k), 1/(2N) exactly, each tail term truncated toward zero.
    The tail is asymptotic, but t makes N > w/4, so its terms, about
    2 (2k)!/(2k (2 pi N)^2k), shrink while 2k < 2 pi N down to about
    e^(-2 pi N) < 2^(-9N) < 2^(-2w): they truncate to zero long before they
    could turn, and a term that does not shrink is a fault.  The tail
    alternates, so what is dropped is below one unit; with the N floors and
    fewer than pi N truncated tail terms the error is below 2^(t+3) units
    of 2^-W, that is 2^-w.
    """
    w = wp + 24
    t = max(4, int(math.ceil(0.125 * w)).bit_length() + 1) + cut_doubling
    W = w + t + 3
    one = 1 << W
    acc = sum(one // k for k in range(1, (1 << t) + 1)) - (one >> (t + 1))
    prev = one  # above the first tail term, 1/(12 N^2)
    for k in itertools.count(1):
        b = bernoulli_even(k)
        mag = (abs(b.numerator) << W) // (b.denominator * 2 * k << (2 * k * t))
        if mag >= prev:
            raise NonConvergenceError(f"Euler-Maclaurin tail stopped shrinking at k = {k}")
        if not mag:
            break
        acc += mag if b > 0 else -mag
        prev = mag
    h = to_real(Fraction(acc, one), w)
    return nk.sub(h, nk.mul(to_real(t, w), nk.ln2(w), w), w).at(wp)


# -- CATALAN -----------------------------------------------------------------------


def _catalan_binomial(wp: int) -> Real:
    # 3/8 * sum_{n>=0} 1/(binom(2n,n) (2n+1)^2) + (pi/8) ln(2+sqrt(3)),
    # t_{n+1}/t_n = (n+1)^2 (2n+1) / ((2n+2)(2n+3)^2)
    w = wp + 24
    s = _series_fixed(Fraction(1), lambda n: ((n + 1) * (2 * n + 1), 2 * (2 * n + 3) ** 2), w)
    pi = constant("PI", w)
    s3 = nk.sqrt(to_real(3, w), w)
    lnpart = nk.ln(nk.add(to_real(2, w), s3, w), w)
    out = nk.add(
        to_real(Fraction(3 * s, 1 << (w + 3)), w),
        nk.mul(nk.ldexp(pi, -3), lnpart, w),
        w,
    )
    return out.at(wp)


def _catalan_crvz(wp: int) -> Real:
    # defining series sum (-1)^n / (2n+1)^2
    w = wp + 8
    gen = SequenceGen(
        term_at=lambda n, q: to_real(Fraction(1, (2 * n + 1) ** 2), q),
        n0=0,
        kind=ALTERNATING_TERMS,
    )
    return alternating_sum(gen, w).value.at(wp)


# -- ZETA3 -------------------------------------------------------------------------


def _zeta3_binomial(wp: int) -> Real:
    # (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 binom(2n,n)),
    # t_{n+1}/t_n = -n^3 / ((n+1)(2n+1)(2n+2))
    w = wp + 24
    s = _series_fixed(
        Fraction(1, 2), lambda j: (-((j + 1) ** 3), 2 * (j + 2) ** 2 * (2 * j + 3)), w
    )
    return to_real(Fraction(5 * s, 1 << (w + 1)), wp)


def _zeta3_crvz(wp: int) -> Real:
    # zeta(3) = (4/3) eta(3), eta(3) = sum (-1)^(n-1)/n^3
    w = wp + 8
    gen = SequenceGen(
        term_at=lambda n, q: to_real(Fraction(1, n**3), q),
        n0=1,
        kind=ALTERNATING_TERMS,
    )
    est = alternating_sum(gen, w)
    return nk.div(nk.ldexp(est.value, 2), to_real(3, w), w).at(wp)


# -- LN_GLAISHER --------------------------------------------------------------------


def _ln_glaisher_zderiv(wp: int) -> Real:
    # 1/12 - zeta'(-1)
    w = wp + 16
    zd = hurwitz_zeta_sderiv(HurwitzQuery(Fraction(-1), Fraction(1)), w)
    return nk.sub(to_real(Fraction(1, 12), w), zd, w).at(wp)


def _ln_glaisher_zeta2(wp: int) -> Real:
    # ln A = (gamma + ln(2 pi))/12 - zeta'(2)/(2 pi^2),
    # zeta'(2) = 2 eta'(2) - (ln 2) zeta(2), eta'(2) = sum (-1)^n ln(n)/n^2
    w = wp + 24
    gen = SequenceGen(
        # first nonzero term is ln2/4 at n=2; series sum_{n>=2} (-1)^n ln n / n^2
        term_at=lambda n, q: nk.div(
            nk.ln_rational(n, q), to_real(n * n, q), q
        ),
        n0=2,
        kind=ALTERNATING_TERMS,
    )
    eta_d2 = alternating_sum(gen, w).value  # = eta'(2)
    pi = constant("PI", w)
    gam = constant("EULER_GAMMA", w)
    pi2 = nk.mul(pi, pi, w)
    zeta2 = nk.div(pi2, to_real(6, w), w)
    zeta_d2 = nk.sub(nk.ldexp(eta_d2, 1), nk.mul(nk.ln2(w), zeta2, w), w)
    ln2pi = nk.add(nk.ln2(w), nk.ln(pi, w), w)
    out = nk.div(nk.add(gam, ln2pi, w), to_real(12, w), w)
    out = nk.sub(out, nk.div(zeta_d2, nk.ldexp(pi2, 1), w), w)
    return out.at(wp)


# -- release machinery ----------------------------------------------------------------

_ROUTES = {
    "PI": (_pi_machin, _pi_agm),
    "E": (_e_taylor, _e_continued_fraction),
    "EULER_GAMMA": (
        lambda wp: _gamma_harmonic_em(wp, 0),
        lambda wp: _gamma_harmonic_em(wp, 1),
    ),
    "CATALAN": (_catalan_binomial, _catalan_crvz),
    "ZETA3": (_zeta3_binomial, _zeta3_crvz),
    "LN_GLAISHER": (_ln_glaisher_zderiv, _ln_glaisher_zeta2),
}


def constant(id: str, p: int) -> Real:
    """The named constant at p bits, released only after both routes agree."""
    if id not in _ROUTES:
        raise KeyError(f"unknown constant id {id!r}")
    if p < 16:
        raise SpecError("precision must be >= 16 bits")
    bucket = ((p + 63) // 64) * 64
    got = _memo.get((id, bucket))
    if got is None:
        primary, check = _ROUTES[id]
        wp = bucket + 16
        a = primary(wp)
        b = check(wp)
        agree = nk.agreement_digits(a, b)
        need = nk.digits_for_bits(bucket)
        if agree < need:
            raise NonConvergenceError(
                f"routes for {id} agree to only {agree} digits, need {need}"
            )
        got = a.at(bucket)
        with _memo_lock:
            _memo.setdefault((id, bucket), got)
    return got.at(p)


def decimal_digits(id: str, digits: int) -> str:
    """Truncated decimal rendering with exactly ``digits`` significant digits."""
    if digits < 1:
        raise SpecError("digits must be >= 1")
    p = nk.bits_for_digits(digits, 64)
    return nk.truncated_decimal(constant(id, p), digits)
