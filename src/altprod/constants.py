"""Named fundamental constants with dual-route cross-validation.

Every constant is computed by two independent algorithms; a value is
released only when the routes agree to the full requested precision, which
makes silently wrong digits effectively impossible.  Released values are
memoized per (id, precision) and safe for concurrent readers.

Routes:

- PI            Machin arctangent series in integer fixed point / AGM iteration
- E             factorial Taylor series in integer fixed point / continued fraction
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

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import numkernel as nk
from .numkernel import (
    NonConvergenceError,
    Real,
    SpecError,
    to_real,
)

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


# -- PI --------------------------------------------------------------------------


def _atan_inv_fixed(k: int, wp: int) -> int:
    """atan(1/k) * 2^wp, truncated; k >= 2."""
    one = 1 << wp
    x = one // k
    k2 = k * k
    total = x
    n = 1
    while x:
        x //= k2
        t = x // (2 * n + 1)
        total += -t if n & 1 else t
        n += 1
    return total


def _pi_machin(wp: int) -> Real:
    fix = 16 * _atan_inv_fixed(5, wp + 16) - 4 * _atan_inv_fixed(239, wp + 16)
    return to_real(Fraction(fix, 1 << (wp + 16)), wp)


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
    w = wp + 16
    t = 1 << w
    total = t
    k = 1
    while t:
        t //= k
        total += t
        k += 1
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
    """Euler-Maclaurin on H_N with N = 2^t: gamma = H_N - ln N - 1/(2N) + tail."""
    w = wp + 24
    t = max(4, int(math.ceil(0.125 * w)).bit_length() + 1)
    t += cut_doubling
    while True:
        N = 1 << t
        H = Fraction(0)
        for k in range(1, N + 1):
            H += Fraction(1, k)
        acc = nk.sub(to_real(H, w), nk.mul(to_real(t, w), nk.ln2(w), w), w)
        acc = nk.sub(acc, to_real(Fraction(1, 2 * N), w), w)
        # + sum_{k>=1} B_2k / (2k N^2k), truncated when below 2^-w
        from .zetagamma import bernoulli_even

        k = 1
        term_prev = None
        ok = True
        while True:
            c = bernoulli_even(k) / (2 * k * Fraction(N) ** (2 * k))
            term = to_real(c, w)
            acc = nk.add(acc, term, w)
            mag = abs(term)
            if mag < nk.ldexp(to_real(1, w), -w - 4):
                break
            if term_prev is not None and mag >= term_prev:
                ok = False  # N too small for the asymptotic tail
                break
            term_prev = mag
            k += 1
        if ok:
            return acc.at(wp)
        t += 1


# -- CATALAN -----------------------------------------------------------------------


def _catalan_binomial(wp: int) -> Real:
    # 3/8 * sum_{n>=0} 1/(binom(2n,n) (2n+1)^2) + (pi/8) ln(2+sqrt(3))
    w = wp + 24
    term = to_real(1, w)  # n = 0
    acc = term
    n = 0
    tol = nk.ldexp(to_real(1, w), -w - 4)
    while abs(term) >= tol:
        # t_{n+1}/t_n = (n+1)^2 (2n+1) / ((2n+2)(2n+3)^2)
        num = (n + 1) * (n + 1) * (2 * n + 1)
        den = (2 * n + 2) * (2 * n + 3) * (2 * n + 3)
        term = nk.div(nk.mul(term, to_real(num, w), w), to_real(den, w), w)
        acc = nk.add(acc, term, w)
        n += 1
    pi = constant("PI", w)
    s3 = nk.sqrt(to_real(3, w), w)
    lnpart = nk.ln(nk.add(to_real(2, w), s3, w), w)
    out = nk.add(
        nk.mul(nk.ldexp(to_real(3, w), -3), acc, w),
        nk.mul(nk.ldexp(pi, -3), lnpart, w),
        w,
    )
    return out.at(wp)


def _catalan_crvz(wp: int) -> Real:
    # defining series sum (-1)^n / (2n+1)^2
    from .accel import ALTERNATING_TERMS, SequenceGen, alternating_sum

    w = wp + 8
    gen = SequenceGen(
        term_at=lambda n, q: to_real(Fraction(1, (2 * n + 1) ** 2), q),
        n0=0,
        kind=ALTERNATING_TERMS,
    )
    return alternating_sum(gen, w).value.at(wp)


# -- ZETA3 -------------------------------------------------------------------------


def _zeta3_binomial(wp: int) -> Real:
    # (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 binom(2n,n))
    w = wp + 24
    term = to_real(Fraction(1, 2), w)  # n = 1: 1/(1 * 2)
    acc = term
    n = 1
    tol = nk.ldexp(to_real(1, w), -w - 4)
    while abs(term) >= tol:
        # |t_{n+1}/t_n| = n^3 / ((n+1)(2n+1)(2n+2))
        num = n * n * n
        den = (n + 1) * (2 * n + 1) * (2 * n + 2)
        term = nk.div(nk.mul(term, to_real(-num, w), w), to_real(den, w), w)
        acc = nk.add(acc, term, w)
        n += 1
    return nk.mul(nk.ldexp(to_real(5, w), -1), acc, w).at(wp)


def _zeta3_crvz(wp: int) -> Real:
    # zeta(3) = (4/3) eta(3), eta(3) = sum (-1)^(n-1)/n^3
    from .accel import ALTERNATING_TERMS, SequenceGen, alternating_sum

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
    from .zetagamma import HurwitzQuery, hurwitz_zeta_sderiv

    w = wp + 16
    zd = hurwitz_zeta_sderiv(HurwitzQuery(Fraction(-1), Fraction(1)), w)
    return nk.sub(to_real(Fraction(1, 12), w), zd, w).at(wp)


def _ln_glaisher_zeta2(wp: int) -> Real:
    # ln A = (gamma + ln(2 pi))/12 - zeta'(2)/(2 pi^2),
    # zeta'(2) = 2 eta'(2) - (ln 2) zeta(2), eta'(2) = sum (-1)^n ln(n)/n^2
    from .accel import ALTERNATING_TERMS, SequenceGen, alternating_sum

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
