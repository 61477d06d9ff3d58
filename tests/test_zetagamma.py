"""Checks for the special-function kernel: log-Gamma, Hurwitz zeta and its
s-derivative, Barnes log-G, and Gamma-ratio product limits.

Reference values come from two independent directions: exact rational or
classical closed forms asserted directly, and an mpmath oracle pinned well
above the tested precision.  Functional-equation invariants (recurrence,
reflection, the Barnes recurrence) cross-check the kernel against itself
along algorithmically unrelated code paths.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from bounded import cli_snippet, run_bounded

from altprod import numkernel as nk
from altprod import zetagamma as zg
from altprod.accel import PARTIAL_SUMS, RICHARDSON, SequenceGen, estimate_limit
from altprod.constants import constant
from altprod.numkernel import DomainError
from altprod.zetagamma import (
    HurwitzQuery,
    bernoulli_even,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    ln_barnesG,
    ln_gamma,
    zeta,
    zeta_sderiv,
)

MP_DPS = 160  # mpmath digits for this module's tests (see conftest.py)

P50 = nk.bits_for_digits(50)


def as_mpf(x):
    # exact: wraps the raw mantissa/exponent without rounding
    return mp.make_mpf(x.raw)


def check_against(value, ref, p, slack_bits=0):
    """Assert the contract bound |value - ref| <= 2^(g-p) * max(1, |ref|)."""
    err = abs(as_mpf(value) - ref)
    tol = mp.mpf(2) ** (nk.GUARD_BITS + slack_bits - p) * max(mp.mpf(1), abs(ref))
    assert err <= tol, f"err={mp.nstr(err, 5)} tol={mp.nstr(tol, 5)}"


# ---------------------------------------------------------------------------
# Bernoulli cache


def test_bernoulli_even_exact_values():
    # bernoulli_even(n) is B_{2n}
    assert bernoulli_even(1) == Fraction(1, 6)
    assert bernoulli_even(2) == Fraction(-1, 30)
    assert bernoulli_even(6) == Fraction(-691, 2730)
    assert bernoulli_even(0) == Fraction(1)


def test_bernoulli_cache_concurrent_readers():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as ex:
        vals = list(ex.map(bernoulli_even, [30] * 16))
    assert len(set(vals)) == 1


# ---------------------------------------------------------------------------
# log-Gamma


def test_ln_gamma_at_one_is_exactly_zero():
    assert ln_gamma(1, P50).is_zero()


def test_ln_gamma_half_is_log_sqrt_pi():
    check_against(ln_gamma(Fraction(1, 2), P50), mp.log(mp.sqrt(mp.pi)), P50)


def test_ln_gamma_quarter_against_oracle():
    ref = mp.loggamma(mp.mpf(1) / 4)
    assert mp.nstr(mp.e**ref, 11) == "3.6256099082"
    check_against(ln_gamma(Fraction(1, 4), P50), ref, P50)


def test_ln_gamma_large_and_tiny_arguments():
    for x in (Fraction(1, 1000), Fraction(97, 7), Fraction(40000), Fraction(123456)):
        check_against(ln_gamma(x, P50), mp.loggamma(mp.mpf(x.numerator) / x.denominator), P50)


def test_ln_gamma_integer_arguments_are_exact_factorials():
    v = ln_gamma(6, P50)
    # lnGamma(6) = ln 120, computed through the exact-rational log path
    check_against(v, mp.log(120), P50)
    assert ln_gamma(2, P50).is_zero()


def test_ln_gamma_domain_errors():
    with pytest.raises(DomainError):
        ln_gamma(0, P50)
    with pytest.raises(DomainError):
        ln_gamma(Fraction(-3, 2), P50)


def test_ln_gamma_recurrence_50_random_points():
    rng = random.Random(20260816)
    for _ in range(50):
        x = Fraction(rng.randrange(1, 640), 64)  # x in (0, 10)
        lhs = ln_gamma(x + 1, P50)
        rhs = nk.add(ln_gamma(x, P50), nk.ln_rational(x, P50), P50)
        err = abs(as_mpf(lhs) - as_mpf(rhs))
        tol = mp.mpf(2) ** (nk.GUARD_BITS + 2 - P50) * max(mp.mpf(1), abs(as_mpf(lhs)))
        assert err <= tol, f"x={x}"


def test_reflection_formula():
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(41, 100)):
        s = nk.add(ln_gamma(x, P50), ln_gamma(1 - x, P50), P50)
        prod = as_mpf(nk.exp(s, P50)) * mp.sin(mp.pi * mp.mpf(x.numerator) / x.denominator)
        assert abs(prod - mp.pi) <= mp.mpf(2) ** (nk.GUARD_BITS + 4 - P50) * mp.pi


def test_gamma_quarter_three_quarter_product():
    s = nk.add(ln_gamma(Fraction(1, 4), P50), ln_gamma(Fraction(3, 4), P50), P50)
    lhs = nk.exp(s, P50)
    rhs = nk.mul(constant("PI", P50), nk.sqrt(nk.to_real(2, P50), P50), P50)
    assert nk.agreement_digits(lhs, rhs) >= nk.digits_for_bits(P50) - 4


# ---------------------------------------------------------------------------
# Hurwitz zeta and plain zeta


def test_hurwitz_query_validation():
    with pytest.raises(DomainError):
        HurwitzQuery(Fraction(1), Fraction(1))  # pole at s = 1
    with pytest.raises(DomainError):
        HurwitzQuery(Fraction(2), Fraction(0))
    with pytest.raises(DomainError):
        HurwitzQuery(Fraction(2), Fraction(-1, 2))


def test_zeta_two_is_pi_squared_over_six():
    ref = mp.pi**2 / 6
    check_against(zeta(2, P50), ref, P50)


def test_zeta_at_negative_one_and_trivial_zero():
    check_against(zeta(-1, P50), -mp.mpf(1) / 12, P50)
    v = zeta(-2, P50)
    assert abs(as_mpf(v)) <= mp.mpf(2) ** (nk.GUARD_BITS - P50)


def test_hurwitz_matches_direct_series_with_tail_bound():
    # For s in {2,3,4}: 0 < zeta(s) - S_N < N^(1-s)/(s-1), S_N summed exactly.
    N = 120
    for s in (2, 3, 4):
        partial = sum(Fraction(1, n**s) for n in range(1, N + 1))
        bound = Fraction(1, (s - 1) * N ** (s - 1))
        v = hurwitz_zeta(HurwitzQuery(Fraction(s), Fraction(1)), P50).to_fraction()
        assert partial < v < partial + bound


def test_hurwitz_away_from_integer_arguments():
    q = HurwitzQuery(Fraction(3), Fraction(1, 4))
    check_against(hurwitz_zeta(q, P50), mp.zeta(3, mp.mpf(1) / 4), P50)
    q = HurwitzQuery(Fraction(-5, 2), Fraction(7, 3))
    check_against(hurwitz_zeta(q, P50), mp.zeta(mp.mpf(-5) / 2, mp.mpf(7) / 3), P50)


def test_hurwitz_precision_consistency():
    # doubling the precision must refine, not move, the value
    q = HurwitzQuery(Fraction(5, 2), Fraction(3, 7))
    lo = hurwitz_zeta(q, P50)
    hi = hurwitz_zeta(q, 2 * P50)
    assert nk.agreement_digits(lo, hi) >= nk.digits_for_bits(P50) - 4


# ---------------------------------------------------------------------------
# s-derivative of zeta


def test_zeta_sderiv_at_minus_one_matches_glaisher():
    # zeta'(-1) = 1/12 - ln A, with ln A from the oracle
    ref = mp.mpf(1) / 12 - mp.log(mp.glaisher)
    check_against(zeta_sderiv(-1, P50), ref, P50)


def test_zeta_sderiv_at_minus_two_is_zeta3_combination():
    # zeta'(-2) = -zeta(3)/(4 pi^2); zeta(3) and pi from dual-route constants
    z3 = constant("ZETA3", P50)
    pi = constant("PI", P50)
    rhs = nk.div(
        nk.sub(nk.to_real(0, P50), z3, P50),
        nk.mul(nk.to_real(4, P50), nk.pow_int(pi, 2, P50), P50),
        P50,
    )
    lhs = zeta_sderiv(-2, P50)
    err = abs(as_mpf(lhs) - as_mpf(rhs))
    assert err <= mp.mpf(2) ** (nk.GUARD_BITS + 2 - P50)


def test_zeta_sderiv_at_zero():
    # zeta'(0) = -(1/2) ln(2 pi)
    pi = constant("PI", P50)
    rhs = nk.ldexp(nk.ln(nk.mul(nk.to_real(2, P50), pi, P50), P50), -1)
    lhs = zeta_sderiv(0, P50)
    err = abs(as_mpf(lhs) + as_mpf(rhs))
    assert err <= mp.mpf(2) ** (nk.GUARD_BITS + 2 - P50)


def test_hurwitz_sderiv_lerch_formula_doubled_precision():
    # d/ds zeta(s, a) at s=0 equals lnGamma(a) - (1/2) ln(2 pi): ties the
    # differentiated Euler-Maclaurin path to the Stirling path
    p2 = 2 * P50
    for a in (Fraction(1, 3), Fraction(5, 4), Fraction(9, 2)):
        lhs = hurwitz_zeta_sderiv(HurwitzQuery(Fraction(0), a), p2)
        half_l2pi = nk.ldexp(nk.ln(nk.mul(nk.to_real(2, p2), constant("PI", p2), p2), p2), -1)
        rhs = nk.sub(ln_gamma(a, p2), half_l2pi, p2)
        assert nk.agreement_digits(lhs, rhs) >= nk.digits_for_bits(p2) - 4, f"a={a}"


def test_hurwitz_sderiv_generic_point_against_oracle():
    q = HurwitzQuery(Fraction(3, 2), Fraction(2, 5))
    ref = mp.zeta(mp.mpf(3) / 2, mp.mpf(2) / 5, 1)
    check_against(hurwitz_zeta_sderiv(q, P50), ref, P50)


HEAD_S = (0, -1, -2, -3)
HEAD_A = (Fraction(1), Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), Fraction(7, 3))
HEAD_P = (64, 200, 700)


def _ln_rational_head(k, a, N, wp):
    """-sum_{n<N} (n+a)^k ln(n+a), one ln_rational per term."""
    head = nk.to_real(0, wp)
    for n in range(N):
        base = n + a
        t = nk.mul(nk.ln_rational(base, wp), nk.pow_int(nk.to_real(base, wp), k, wp), wp)
        head = nk.sub(head, t, wp)
    return head


@pytest.mark.parametrize("p", HEAD_P)
@pytest.mark.parametrize("a", HEAD_A)
@pytest.mark.parametrize("s", HEAD_S)
def test_prime_log_head_equals_the_ln_rational_loop(s, a, p):
    # the term-by-term loop at p + 64 bits is far inside 2^-p of the head
    N = max(10, math.ceil(0.35 * p))
    got = as_mpf(zg._log_power_head(-s, a, N, p))
    want = as_mpf(_ln_rational_head(-s, a, N, p + 64))
    assert abs(got - want) <= abs(want) * mp.mpf(2) ** -p


@pytest.mark.parametrize("p", HEAD_P)
@pytest.mark.parametrize("a", HEAD_A)
@pytest.mark.parametrize("s", HEAD_S)
def test_hurwitz_sderiv_at_nonpositive_integers_against_oracle(s, a, p):
    with mp.workprec(p + 64):
        ref = mp.zeta(s, mp.mpf(a.numerator) / a.denominator, 1)
        check_against(hurwitz_zeta_sderiv(HurwitzQuery(s, a), p), ref, p)


# ---------------------------------------------------------------------------
# Barnes log-G


def test_ln_barnesG_small_integers_exact_zero():
    assert ln_barnesG(1, P50).is_zero()
    assert ln_barnesG(2, P50).is_zero()
    assert ln_barnesG(3, P50).is_zero()


def test_ln_barnesG_against_oracle():
    for x in (Fraction(1, 4), Fraction(3, 4), Fraction(39, 20), Fraction(15, 2)):
        ref = mp.log(mp.barnesg(mp.mpf(x.numerator) / x.denominator))
        check_against(ln_barnesG(x, P50), ref, P50)


def test_ln_barnesG_recurrence_50_random_points():
    rng = random.Random(1282427)
    for _ in range(50):
        x = Fraction(rng.randrange(1, 320), 64)  # x in (0, 5)
        lhs = nk.sub(ln_barnesG(x + 1, P50), ln_barnesG(x, P50), P50)
        rhs = ln_gamma(x, P50)
        err = abs(as_mpf(lhs) - as_mpf(rhs))
        tol = mp.mpf(2) ** (nk.GUARD_BITS + 2 - P50) * max(mp.mpf(1), abs(as_mpf(rhs)))
        assert err <= tol, f"x={x}"


def test_ln_barnesG_ratio_combination():
    # ln G(3/4) - ln G(1/4) - lnGamma(1/4) = ln(2^(-1/8) pi^(-1/4) e^(G/(2 pi)))
    lhs = nk.sub(
        nk.sub(ln_barnesG(Fraction(3, 4), P50), ln_barnesG(Fraction(1, 4), P50), P50),
        ln_gamma(Fraction(1, 4), P50),
        P50,
    )
    ref = (
        -mp.log(2) / 8 - mp.log(mp.pi) / 4 + mp.catalan / (2 * mp.pi)
    )
    assert mp.nstr(mp.e**ref, 5) == "0.79688"
    check_against(lhs, ref, P50, slack_bits=2)


def test_ln_barnesG_domain_error():
    with pytest.raises(DomainError):
        ln_barnesG(0, P50)
    with pytest.raises(DomainError):
        ln_barnesG(Fraction(-1, 2), P50)


@pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(3, 4), Fraction(7, 3), Fraction(2001, 2)])
def test_ln_barnesG_against_oracle_at_300_digits(x):
    p = nk.bits_for_digits(300)
    with mp.workdps(340):
        ref = mp.log(mp.barnesg(mp.mpf(x.numerator) / x.denominator))
        check_against(ln_barnesG(x, p), ref, p)


def test_ln_barnesG_large_integer_against_oracle():
    # G(2000) = prod_{k=2}^{1998} k^(1999-k), about e^(1.5e7), through the Hurwitz form
    check_against(ln_barnesG(2000, P50), mp.log(mp.barnesg(2000)), P50)


def test_barnesG_quarter_at_300_digits_through_the_cli_returns_in_time():
    run = run_bounded(cli_snippet("eval", "barnesG(1/4)", "--digits", "300"), budget_s=30)
    assert run.returncode == 0, run.stderr
    printed = run.stdout.strip()
    with mp.workdps(340):
        # 300 truncated significant digits of a value in (0.1, 1)
        gap = mp.barnesg(mp.mpf(1) / 4) - mp.mpf(printed)
        assert 0 <= gap < mp.mpf(10) ** -300


# ---------------------------------------------------------------------------
# the cost bounds of an Euler-Maclaurin plan


@pytest.mark.parametrize(
    "expr",
    # the first three took 159 s, 157 s and 46 s before the plan was bounded;
    # the last two are one past the largest admitted orders
    ["hzeta(-200, 10^200)", "hzeta(-3999, 1/10^20)", "zeta(-3999)", "zeta(-388)",
     "zeta(93623)"],
)
def test_a_costly_zeta_plan_is_refused_before_its_first_term(expr):
    run = run_bounded(cli_snippet("eval", expr, "--digits", "12"), budget_s=10)
    assert run.returncode == 3, run.stderr
    assert "zeta order" in run.stderr


@pytest.mark.parametrize(
    "expr,ref",
    [
        ("zeta(-387)", lambda: mp.zeta(-387)),  # a trivial zero
        ("zeta(-385)", lambda: mp.zeta(-385)),
        ("hzeta(-773/2, 1)", lambda: mp.zeta(mp.mpf(-773) / 2)),
        ("zeta(93622)", lambda: mp.zeta(93622)),
    ],
)
def test_the_largest_admitted_zeta_plans_evaluate_in_time(expr, ref):
    run = run_bounded(cli_snippet("eval", expr, "--digits", "12"), budget_s=60)
    assert run.returncode == 0, run.stderr
    got = mp.mpf(run.stdout.strip())
    want = ref()
    # 12 truncated significant digits, or an absolute 2^-120 at a zero
    assert abs(got - want) <= max(abs(want) * mp.mpf(10) ** -11, mp.mpf(2) ** -120)


@pytest.mark.parametrize("k", [40, 100, 200, 300])
def test_zeta_at_a_large_negative_order_keeps_its_contract(k):
    # the cut N grows with the bits bought for (N + a)^k, and those bits must
    # cover the final cut; zeta(-100) once came out as -13571.55, not 0
    with mp.workprec(P50 + 64):
        check_against(zeta(-k, P50), mp.zeta(-k), P50)
        ref = mp.zeta(-k + 1, mp.mpf(1) / 3)
        check_against(hurwitz_zeta(HurwitzQuery(-k + 1, Fraction(1, 3)), P50), ref, P50)


def test_zeta_plan_bounds_depend_on_the_order_not_the_caller_precision():
    # zeta'(-1) at 4000 digits keeps a plan far inside both bounds
    N, wp = zg._em_plan(Fraction(-1), Fraction(1), nk.bits_for_digits(4000))
    assert N < zg._EM_TERMS_CAP and wp - nk.bits_for_digits(4000) < 64
    with pytest.raises(nk.OracleRangeError, match="zeta order adds"):
        zg._em_plan(Fraction(-388), Fraction(1), 136)


# ---------------------------------------------------------------------------
# Gamma-ratio product limits


def gauss_limit(numer, denom, p):
    """Prod_j Gamma(b_j) / Prod_i Gamma(a_i): the limit of the balanced
    product Prod_{k>=0} Prod_i (k+a_i) / Prod_j (k+b_j), from ln_gamma."""
    assert sum(numer) == sum(denom)
    wp = p + 32
    acc = nk.to_real(0, wp)
    for b in denom:
        acc = nk.add(acc, ln_gamma(b, wp), wp)
    for a in numer:
        acc = nk.sub(acc, ln_gamma(a, wp), wp)
    return nk.exp(acc, wp).at(p)


def test_gauss_limit_quarters():
    ref = mp.gamma(mp.mpf(1) / 4) / (mp.gamma(mp.mpf(1) / 2) * mp.gamma(mp.mpf(3) / 4))
    assert mp.nstr(ref, 6) == "1.66925"
    value = gauss_limit((Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 4), Fraction(1)), P50)
    check_against(value, ref, P50)


def test_gauss_limit_wallis():
    value = gauss_limit((Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1)), P50)
    check_against(value, 2 / mp.pi, P50)


class _CachedLogPartial:
    """Incremental log-partial-product generator for Gamma-ratio products.

    partial(n) = sum_{k=0}^{n-1} ln f_k with rational f_k; the running sum is
    cached per precision so Richardson's doubled indices stay linear-time.
    """

    def __init__(self, factor):
        self._factor = factor  # k -> Fraction
        self._state = {}

    def __call__(self, n, p):
        k, acc = self._state.get(p, (0, None))
        if acc is None:
            acc = nk.to_real(0, p)
        while k < n:
            acc = nk.add(acc, nk.ln_rational(self._factor(k), p), p)
            k += 1
        self._state[p] = (k, acc)
        return acc


@pytest.mark.parametrize(
    "shifts,label",
    [
        (((Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 4), Fraction(1))), "quarters"),
        (((Fraction(1, 2), Fraction(3, 2)), (Fraction(1), Fraction(1))), "wallis"),
    ],
)
def test_gauss_limit_agrees_with_accelerated_product(shifts, label):
    numer, denom = shifts

    def factor(k):
        f = Fraction(1)
        for a in numer:
            f *= k + a
        for b in denom:
            f /= k + b
        return f

    seq = SequenceGen(term_at=_CachedLogPartial(factor), n0=1, kind=PARTIAL_SUMS)
    p = nk.bits_for_digits(36)
    est = estimate_limit(seq, RICHARDSON, 32, p)
    accelerated = nk.exp(est.value, p)
    closed = gauss_limit(numer, denom, p)
    assert nk.agreement_digits(accelerated, closed) >= 30, label
