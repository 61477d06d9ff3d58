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
import sys
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


def _bernfrac(n):
    p, q = mp.bernfrac(2 * n)
    return Fraction(int(p), int(q))


def test_bernoulli_table_matches_mpmath_across_its_blocks(monkeypatch):
    # a fresh table, grown through its block edges in this order
    monkeypatch.setattr(zg, "_bern_table", ())
    for n in (63, 64, 65, 127, 128, 300):
        assert bernoulli_even(n) == _bernfrac(n), n
    assert len(zg._bern_table) == 512
    assert [bernoulli_even(n) for n in range(301)] == [_bernfrac(n) for n in range(301)]


def test_nothing_is_built_at_import():
    code = "from altprod import zetagamma as zg; import altprod; print(len(zg._bern_table))"
    run = run_bounded(code, budget_s=30)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


def test_bernoulli_cache_concurrent_readers(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as ex:
        vals = list(ex.map(bernoulli_even, [30] * 16))
    assert len(set(vals)) == 1

    # readers on both sides of the block edges while the table grows
    monkeypatch.setattr(zg, "_bern_table", ())
    ns = [30, 63, 64, 65, 127, 128, 200, 64, 1, 129] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(bernoulli_even, ns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [_bernfrac(n) for n in ns]
    assert len(zg._bern_table) == 256


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
# the fixed-point tails against the mpf loops they replaced
#
# The references below are the Stirling and Euler-Maclaurin evaluators as
# they were when each tail term was a Fraction coefficient times an mpf
# power, added into an mpf sum at the working precision.  The integer tails
# change only rounding far below the working precision, so the results agree
# bit for bit once rounded to p.


def _ln_gamma_reference(x, p):
    x = Fraction(x)
    if x.denominator == 1 and x <= 40000:
        return nk.ln_rational(math.factorial(int(x) - 1), p)
    wp = p + 32
    xf = float(x) if x < 10**300 else 1e300
    thresh = 0.115 * (wp + 16) + 2.0
    m = 0 if xf >= thresh else int(math.ceil(thresh - xf))
    if m:
        wp += max(0, int(m * math.log2(m + xf + 2))).bit_length() + 8
    t = x + m
    lnt = nk.ln_rational(t, wp)
    tr = nk.to_real(t, wp)
    acc = nk.sub(nk.mul(nk.to_real(t - Fraction(1, 2), wp), lnt, wp), tr, wp)
    ln2pi = nk.add(nk.ln2(wp), nk.ln(nk.pi_ref(wp), wp), wp)
    acc = nk.add(acc, nk.ldexp(ln2pi, -1), wp)
    inv = nk.div(nk.to_real(1, wp), tr, wp)
    inv2 = nk.mul(inv, inv, wp)
    pw = inv
    tol = nk.ldexp(nk.to_real(1, wp), -wp - 4)
    prev = None
    for n in range(1, wp + 1):
        c = bernoulli_even(n) / ((2 * n) * (2 * n - 1))
        term = nk.mul(nk.to_real(c, wp), pw, wp)
        acc = nk.add(acc, term, wp)
        mag = abs(term)
        if mag < tol:
            break
        assert prev is None or mag < prev, "Stirling tail stalled"
        prev = mag
        pw = nk.mul(pw, inv2, wp)
    else:
        raise AssertionError("Stirling tail exceeded its cap")
    if m:
        prod = Fraction(1)
        for k in range(m):
            prod *= x + k
        acc = nk.sub(acc, nk.ln_rational(prod, wp), wp)
    return acc.at(p)


def _em_zeta_reference(s, a, p, derivative):
    s, a = Fraction(s), Fraction(a)
    N, wp = zg._em_plan(s, a, p)
    for _ in range(6):
        try:
            return _em_zeta_once_reference(s, a, wp, N, derivative).at(p)
        except nk.NonConvergenceError:
            N *= 2
            wp += 16
    raise AssertionError("Euler-Maclaurin failed to settle")


def _em_zeta_once_reference(s, a, wp, N, derivative):
    s_int = int(s) if s.denominator == 1 else None
    sr, one = nk.to_real(s, wp), nk.to_real(1, wp)

    def power_neg_s(base):
        if s_int is not None:
            return nk.pow_int(nk.to_real(base, wp), -s_int, wp)
        return nk.powr(nk.to_real(base, wp), -sr, wp)

    if derivative and s_int is not None and s_int <= 0:
        head = zg._log_power_head(-s_int, a, N, wp)
    else:
        head = nk.to_real(0, wp)
        for n in range(N):
            t = power_neg_s(n + a)
            if derivative:
                t = nk.mul(nk.sub(nk.to_real(0, wp), nk.ln_rational(n + a, wp), wp), t, wp)
            head = nk.add(head, t, wp)
    Na = N + a
    lnNa = nk.ln_rational(Na, wp)
    pm = power_neg_s(Na)
    s1 = nk.sub(sr, one, wp)
    p1ms = nk.mul(pm, nk.to_real(Na, wp), wp)
    if not derivative:
        acc = nk.add(nk.add(head, nk.div(p1ms, s1, wp), wp), nk.ldexp(pm, -1), wp)
    else:
        d1 = nk.div(nk.mul(p1ms, lnNa, wp), s1, wp)
        d2 = nk.div(p1ms, nk.mul(s1, s1, wp), wp)
        acc = nk.sub(nk.sub(head, d1, wp), d2, wp)
        acc = nk.sub(acc, nk.ldexp(nk.mul(lnNa, pm, wp), -1), wp)
    # B_2m/(2m)! P_m (N+a)^(-s-2m+1), P_m = s (s+1) ... (s+2m-2), D_m = dP_m/ds
    P, D, fact = Fraction(s), Fraction(1), 2
    pw = nk.mul(pm, nk.div(one, nk.to_real(Na, wp), wp), wp)
    inv2 = nk.pow_int(nk.to_real(Na, wp), -2, wp)
    tol = nk.ldexp(one, -wp - 4)
    prev = None
    for m in range(1, wp + 1):
        coef = bernoulli_even(m) / fact
        if not derivative:
            term = nk.mul(nk.to_real(coef * P, wp), pw, wp)
        else:
            lead = nk.sub(nk.to_real(D, wp), nk.mul(nk.to_real(P, wp), lnNa, wp), wp)
            term = nk.mul(nk.mul(nk.to_real(coef, wp), lead, wp), pw, wp)
        acc = nk.add(acc, term, wp)
        mag = abs(term)
        if mag < tol:
            return acc
        if prev is not None and mag >= prev:
            raise nk.NonConvergenceError(f"EM tail stalled at m={m}")
        prev = mag
        D = D * (s + 2 * m - 1) * (s + 2 * m) + P * (2 * s + 4 * m - 1)
        P = P * (s + 2 * m - 1) * (s + 2 * m)
        fact *= (2 * m + 1) * (2 * m + 2)
        pw = nk.mul(pw, inv2, wp)
    raise nk.NonConvergenceError("EM tail exceeded term cap")


TAIL_A = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(7, 3),
          Fraction(9, 2))
TAIL_P = tuple(q for d in (20, 30, 40, 100, 150, 300)
               for q in (nk.bits_for_digits(d), nk.bits_for_digits(d) + 64))


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize(
    "s", [0, -1, -2, -3, 2, 3, Fraction(-5, 2), Fraction(1, 3)], ids=str
)
def test_em_tails_equal_the_mpf_loop_at_p(s, derivative):
    for p in TAIL_P:
        for a in TAIL_A:
            got = zg._em_zeta(Fraction(s), a, p, derivative)
            want = _em_zeta_reference(s, a, p, derivative)
            trivial_zero = s in (0, -1, -2, -3) and zg._zeta_at_nonpositive_integer(-s, a) == 0
            if trivial_zero and not derivative:
                # now exact; the loop left noise far below 2^-p
                assert got.is_zero() and abs(as_mpf(want)) < mp.mpf(2) ** -(p + 40), (p, a)
            else:
                assert got.raw == want.raw, (p, a)


def test_em_tail_at_a_large_negative_order_equals_the_mpf_loop():
    # the differentiated tail at s = -387 runs to B_1734
    got = zg._em_zeta(Fraction(-387), Fraction(1), 136, derivative=True)
    assert got.raw == _em_zeta_reference(-387, 1, 136, True).raw


LN_GAMMA_POINTS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 1000), Fraction(97, 7),
                   Fraction(40000), Fraction(123456), Fraction(6), Fraction(2),
                   Fraction(1, 3), Fraction(41, 100), Fraction(3, 4))


def test_stirling_tail_equals_the_mpf_loop_at_p():
    rng = random.Random(20260816)
    steps = [Fraction(rng.randrange(1, 640), 64) for _ in range(50)]
    points = LN_GAMMA_POINTS + tuple(steps) + tuple(x + 1 for x in steps)
    for p in (P50, P50 + 64, 2 * P50):
        for x in points:
            assert ln_gamma(x, p).raw == _ln_gamma_reference(x, p).raw, (x, p)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 300])
@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(7, 3)], ids=str)
def test_zeta_at_a_nonpositive_integer_is_the_exact_bernoulli_value(k, a):
    with mp.workprec(P50 + 64):
        want = mp.zeta(-k, mp.mpf(a.numerator) / a.denominator)
    got = hurwitz_zeta(HurwitzQuery(-k, a), P50)
    exact = zg._zeta_at_nonpositive_integer(k, a)
    assert got.raw == nk.to_real(exact, P50).raw
    assert abs(mp.mpf(exact.numerator) / exact.denominator - want) <= abs(want) * mp.mpf(2) ** -P50


@pytest.mark.parametrize("expr", ["zeta(-2)", "hzeta(-2, 1/2)", "zeta(-386)"])
def test_a_trivial_zero_prints_as_an_exact_zero(expr):
    run = run_bounded(cli_snippet("eval", expr, "--digits", "12"), budget_s=30)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0.00000000000"


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
