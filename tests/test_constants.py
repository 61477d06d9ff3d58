"""Checks for the dual-route constant registry.

Every constant is computed by two algorithmically independent routes and
released only when they agree; tests re-run both routes explicitly at several
precisions, pin the released values against an mpmath oracle and against the
defining series where one exists, and check decimal truncation stability.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altprod import numkernel as nk
from altprod.constants import (
    CONSTANT_IDS,
    _ROUTES,
    _series_fixed,
    constant,
    decimal_digits,
)
from altprod.numkernel import NonConvergenceError, SpecError

MP_DPS = 160  # mpmath digits for this module's tests (see conftest.py)

# each evaluated at the working precision of the caller
ORACLE = {
    "PI": lambda: +mp.pi,
    "E": lambda: +mp.e,
    "EULER_GAMMA": lambda: +mp.euler,
    "CATALAN": lambda: +mp.catalan,
    "ZETA3": lambda: mp.zeta(3),
    "LN_GLAISHER": lambda: mp.log(mp.glaisher),
}


def as_mpf(x):
    return mp.make_mpf(x.raw)


# ---------------------------------------------------------------------------
# registry shape


def test_registry_covers_six_ids_with_distinct_routes():
    assert set(CONSTANT_IDS) == set(ORACLE)
    for cid in CONSTANT_IDS:
        primary, check = _ROUTES[cid]
        assert primary is not check


# ---------------------------------------------------------------------------
# dual-route agreement (the release invariant, re-run explicitly)


@pytest.mark.parametrize("digits", [30, 60, 120])
@pytest.mark.parametrize("cid", sorted(ORACLE))
def test_routes_agree_to_target_digits(cid, digits):
    p = nk.bits_for_digits(digits)
    primary, check = _ROUTES[cid]
    assert nk.agreement_digits(primary(p), check(p)) >= digits


@pytest.mark.parametrize("cid", sorted(ORACLE))
def test_released_value_matches_oracle(cid):
    p = nk.bits_for_digits(120)
    truth = ORACLE[cid]()
    err = abs(as_mpf(constant(cid, p)) - truth)
    assert err <= mp.mpf(2) ** (nk.GUARD_BITS - p) * max(mp.mpf(1), abs(truth))


def _mp_truncated(x, digits):
    """``digits`` significant digits of x > 0, truncated toward zero."""
    with mp.workdps(digits + 30):
        e = int(mp.floor(mp.log10(x)))
        s = str(int(mp.floor(x * mp.mpf(10) ** (digits - 1 - e))))
    return s[: e + 1] + "." + s[e + 1 :] if e >= 0 else "0." + "0" * (-e - 1) + s


# SHA-256 of the released value's (sign, mantissa, exponent, bitcount) at
# every 64-bit bucket from 64 to 1536, recorded from the routes as they were
# before the primary series moved to integer fixed point: a route rewrite
# must release the same bits, not merely digits that pass the oracle
RELEASED_SHA256 = {
    "PI": "5414eda6a2a0cc2ba1459c5305209ad65ac18bf63b88db382d109ac3ef6141a3",
    "E": "1e3461ddfce89b4b0815c4dc3c38dc1fbec77582e8d94dc204771ffd8ec6bb2a",
    "EULER_GAMMA": "3e9cc192b7325ae82c6f23b18310f0c30572bfcd8c0330bd0259c37065866f38",
    "CATALAN": "cdfcf87f9cca1085e4c42a63d929ea6ca299e96379d2ce2588af4810460928dc",
    "ZETA3": "2c8e902da62762db3f7be7117e81ddd49d38d3c289e620a03e9e4b0c418480e7",
    "LN_GLAISHER": "89a37250dfaae6b665b1fe9145b975963f4779bd4399a2245b32e932ba2b93c8",
}


@pytest.mark.parametrize("cid", sorted(RELEASED_SHA256))
def test_released_bits_are_pinned_at_every_bucket_up_to_1536(cid):
    h = hashlib.sha256()
    for b in range(64, 1537, 64):
        sign, man, exp, bc = constant(cid, b).raw
        h.update(f"{b}:{sign}:{int(man):x}:{exp}:{bc}\n".encode())
    assert h.hexdigest() == RELEASED_SHA256[cid]


def test_every_constant_releases_300_digits_matching_mpmath():
    for cid in CONSTANT_IDS:
        with mp.workdps(340):
            want = _mp_truncated(ORACLE[cid](), 300)
        assert decimal_digits(cid, 300) == want, cid


def test_known_leading_digits():
    assert decimal_digits("PI", 15) == "3.14159265358979"
    assert decimal_digits("CATALAN", 12) == "0.915965594177"
    assert decimal_digits("ZETA3", 13) == "1.202056903159"
    # exp(ln A) = 1.282427129100...
    p = nk.bits_for_digits(40)
    a = nk.exp(constant("LN_GLAISHER", p), p)
    assert nk.truncated_decimal(a, 13) == "1.282427129100"
    assert decimal_digits("EULER_GAMMA", 10) == "0.5772156649"


# ---------------------------------------------------------------------------
# monotone refinement


@pytest.mark.parametrize("cid", sorted(ORACLE))
def test_digit_prefix_stable_under_precision_doubling(cid):
    for d in (10, 40):
        p = nk.bits_for_digits(d)
        lo = nk.truncated_decimal(constant(cid, p), d)
        hi = nk.truncated_decimal(constant(cid, 2 * p), d)
        assert lo == hi


# ---------------------------------------------------------------------------
# defining-series containment for CATALAN


def test_catalan_within_tail_bound_of_defining_series():
    # S_N = sum_{n<N} (-1)^n/(2n+1)^2 summed in 256-bit fixed point with
    # truncation toward zero: each term carries < 1 ulp of one-sided error.
    N = 10**4
    w = 256
    one = 1 << w
    s = 0
    for n in range(N):
        t = one // (2 * n + 1) ** 2
        s += -t if n & 1 else t
    partial = Fraction(s, one)
    slack = Fraction(N, one)  # accumulated truncation, one-sided
    bound = Fraction(1, (2 * N + 1) ** 2)
    v = constant("CATALAN", nk.bits_for_digits(100)).to_fraction()
    assert abs(v - partial) <= bound + slack


# ---------------------------------------------------------------------------
# the fixed-point series kernel behind the primary routes


@settings(deadline=None, max_examples=60)
@given(
    t0=st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000),
    ratios=st.lists(
        st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4), max_denominator=60),
        min_size=1,
        max_size=6,
    ),
    w=st.integers(8, 160),
)
def test_series_fixed_stays_within_its_stated_bound(t0, ratios, w):
    # t(n+1)/t(n) cycles through ``ratios``, so every ratio is at most r <= 3/4
    r = max(abs(q) for q in ratios)
    got = _series_fixed(
        t0, lambda n: (ratios[n % len(ratios)].numerator, ratios[n % len(ratios)].denominator), w
    )
    # N: the stated cap on the terms summed, the least n with r^n T(0) < 1
    n_cap, x = 0, Fraction((t0.numerator << w) // t0.denominator)
    while x >= 1:
        x *= r
        n_cap += 1
    # the exact partial sum, taken until the exact tail past it is below 2^-8
    partial, term, n = Fraction(0), t0, 0
    while term and abs(term) * (1 << w) >= Fraction(1 - r, 256):
        partial += term
        term *= ratios[n % len(ratios)]
        n += 1
    tail = abs(term) * (1 << w) / (1 - r)
    bound = (n_cap + 1 / (1 - r)) / (1 - r)
    assert abs(got - partial * (1 << w)) <= bound + tail


# ---------------------------------------------------------------------------
# decimal_digits contract


def test_decimal_digits_examples():
    assert decimal_digits("PI", 5) == "3.1415"
    assert decimal_digits("E", 3) == "2.71"
    assert decimal_digits("CATALAN", 6) == "0.915965"


def test_decimal_digits_is_truncation_not_rounding():
    # e = 2.718281828...: five significant digits truncate to 2.7182,
    # where round-half-up would give 2.7183
    assert decimal_digits("E", 5) == "2.7182"


def test_errors():
    with pytest.raises(KeyError):
        constant("SQRT2", 64)
    with pytest.raises(KeyError):
        decimal_digits("SQRT2", 5)
    with pytest.raises(SpecError):
        constant("PI", 8)
    with pytest.raises(SpecError):
        decimal_digits("PI", 0)


# ---------------------------------------------------------------------------
# memo behaviour


def test_memo_returns_identical_bits():
    p = nk.bits_for_digits(30)
    a = constant("ZETA3", p)
    b = constant("ZETA3", p)
    assert a.raw == b.raw


def test_concurrent_callers_see_one_value():
    p = nk.bits_for_digits(25)

    def job(_):
        return constant("E", p).raw

    with ThreadPoolExecutor(max_workers=8) as ex:
        raws = list(ex.map(job, range(16)))
    assert len(set(raws)) == 1


def test_requested_precision_is_respected():
    # asking for fewer bits than the memo bucket still returns p-bit values
    v = constant("PI", 100)
    assert v.precision_bits == 100
