"""Checks for the dual-route constant registry.

Every constant is computed by two algorithmically independent routes and
released only when they agree; tests re-run both routes explicitly at several
precisions, pin the released values against an mpmath oracle and against the
defining series where one exists, and check decimal truncation stability.
"""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest

from altprod import numkernel as nk
from altprod.constants import CONSTANT_IDS, REGISTRY, _ROUTES, constant, decimal_digits
from altprod.numkernel import NonConvergenceError, SpecError

mp.mp.dps = 160

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
        rec = REGISTRY[cid]
        assert rec.primary_route != rec.check_route
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
