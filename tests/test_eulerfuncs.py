"""Checks for the named limit functions.

The load-bearing claims: the three routes to the alternating-ratio limit
are separate algorithms yet must agree; every truncated product equals a
hand-multiplied rational; the two parameterized-Euler-constant families are
reindexings of one another; and the Lerch s-derivative's Hurwitz split
agrees both with an Euler-summed check series and, where the raw series
converges, with a long direct partial sum.
"""

import dataclasses
import hashlib
import random
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altprod import accel
from altprod import constants as cst
from altprod import eulerfuncs as ef
from altprod import harness as hz
from altprod import numkernel as nk
from altprod import products as pr
from altprod import zetagamma as zg
from altprod.eulerfuncs import (
    BARNES_CLOSED,
    D_ROUTES,
    GAMMA_SERIES,
    PRODUCT,
    LerchDerivQuery,
)
from altprod.numkernel import DomainError, NonConvergenceError, SpecError

MP_DPS = 80  # mpmath digits for this module's tests (see conftest.py)


def as_mpf(x):
    return mp.make_mpf(x.raw)


def mpq(f: Fraction):
    return mp.mpf(f.numerator) / f.denominator


def ref_ln_ratio_limit_at_one(p: int):
    """6 ln A - ln2/6 - ln(pi)/2 from independently dual-checked constants."""
    w = p + 32
    six_a = nk.mul(cst.constant("LN_GLAISHER", w), nk.to_real(6, w), w)
    tail = nk.add(
        nk.div(nk.ln2(w), nk.to_real(6, w), w),
        nk.ldexp(nk.ln(nk.pi_ref(w), w), -1),
        w,
    )
    return nk.sub(six_a, tail, w).at(p)


def ref_ln_ratio_limit_at_half(p: int):
    """ln2/6 + ln(pi)/2 + 3 ln A + G/pi - ln Gamma(1/4)."""
    w = p + 32
    acc = nk.div(nk.ln2(w), nk.to_real(6, w), w)
    acc = nk.add(acc, nk.ldexp(nk.ln(nk.pi_ref(w), w), -1), w)
    acc = nk.add(acc, nk.mul(cst.constant("LN_GLAISHER", w), nk.to_real(3, w), w), w)
    acc = nk.add(acc, nk.div(cst.constant("CATALAN", w), nk.pi_ref(w), w), w)
    return nk.sub(acc, zg.ln_gamma(Fraction(1, 4), w), w).at(p)


# ---------------------------------------------------------------------------
# query and argument validation


def test_lerch_query_validation():
    with pytest.raises(DomainError, match="z = -1"):
        LerchDerivQuery(2, 1, z=1)
    with pytest.raises(DomainError, match="u > 0"):
        LerchDerivQuery(2, 0)
    with pytest.raises(DomainError, match="u > 0"):
        LerchDerivQuery(2, Fraction(-1, 3))
    with pytest.raises(DomainError, match="pole"):
        LerchDerivQuery(1, 1)
    q = LerchDerivQuery(-0.5, 0.25)
    assert q.s == Fraction(-1, 2) and q.u == Fraction(1, 4) and q.z == -1


def test_ratio_limit_validation():
    with pytest.raises(SpecError, match="route"):
        ef.D(1, "NEWTON", 96, 20)
    with pytest.raises(DomainError, match="x > -1"):
        ef.D(-1, PRODUCT, 96, 20)
    with pytest.raises(DomainError, match="x > -1"):
        ef.D(Fraction(-3, 2), BARNES_CLOSED, 96, 20)
    with pytest.raises(SpecError, match="target_digits"):
        ef.D(1, PRODUCT, 96, 0)


def test_gamma_series_validation():
    with pytest.raises(DomainError, match="alpha > -1"):
        ef.gamma_param(-1, 0, 96, 20)
    with pytest.raises(DomainError, match="z in"):
        ef.gamma_param(1, 1, 96, 20)
    with pytest.raises(DomainError, match="z in"):
        ef.gamma_param_deriv(1, Fraction(-3, 2), 96, 20)
    with pytest.raises(DomainError, match="alpha > -1"):
        ef.gamma_param_deriv(Fraction(-5, 4), 0, 96, 20)
    with pytest.raises(DomainError, match="a > 0"):
        ef.gamma_ab(0, 1, 0, 96, 20)
    with pytest.raises(DomainError, match="a > 0"):
        ef.gamma_ab(1, Fraction(-1, 2), 0, 96, 20)
    with pytest.raises(DomainError, match="z in"):
        ef.gamma_ab(1, 1, 1, 96, 20)


def test_squared_ratio_limit_validation():
    with pytest.raises(DomainError, match=r"\|x\| <= 1/2"):
        ef.E(Fraction(3, 5), 96, 20)
    with pytest.raises(DomainError, match=r"\|x\| <= 1/2"):
        ef.E(Fraction(-51, 100), 96, 20)


# ---------------------------------------------------------------------------
# the alternating-ratio limit D


def test_ratio_limit_is_one_at_zero_on_every_route():
    p = nk.bits_for_digits(40)
    for route in D_ROUTES:
        v = ef.D(0, route, p, 40)
        assert abs(as_mpf(v) - 1) < mp.mpf(10) ** -38, route


@pytest.mark.parametrize(
    "x", [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(-1, 4)]
)
def test_ratio_limit_routes_agree_pairwise(x):
    p = nk.bits_for_digits(36)
    vals = {route: ef.D(x, route, p, 36) for route in D_ROUTES}
    for i, a in enumerate(D_ROUTES):
        for b in D_ROUTES[i + 1 :]:
            agree = nk.agreement_digits(vals[a], vals[b])
            assert agree >= 30, (x, a, b, agree)


def test_ratio_limit_at_one_matches_closed_form():
    p = nk.bits_for_digits(46)
    ref = nk.exp(ref_ln_ratio_limit_at_one(p), p)
    for route in (PRODUCT, GAMMA_SERIES):
        v = ef.D(1, route, p, 46)
        assert nk.agreement_digits(v, ref) >= 42, route


def test_ratio_limit_at_half_matches_closed_form():
    # the half-parameter point separates the correct series exponent from a
    # version with a constant first term: those differ by a factor e^(1/2)
    p = nk.bits_for_digits(46)
    ref = nk.exp(ref_ln_ratio_limit_at_half(p), p)
    for route in (PRODUCT, GAMMA_SERIES):
        v = ef.D(Fraction(1, 2), route, p, 46)
        assert nk.agreement_digits(v, ref) >= 42, route


@pytest.mark.parametrize("x", [Fraction(1), Fraction(1, 2), Fraction(-1, 4), Fraction(3)])
def test_truncated_ratio_product_equals_hand_built_rational(x):
    spec = pr.builtin("BD_D", x)
    for n in range(0, 7):
        hand = Fraction(1)
        e_channel = x  # leading e^x, then e^(-x) per factor, signed
        for k in range(1, 2 * n + 2):
            sign = 1 if k % 2 == 1 else -1
            hand *= (1 + Fraction(x) / k) ** (k * sign)
            e_channel += sign * (-x)
        assert e_channel == 0
        got = pr.partial_exact(spec, n)
        assert got.rational_part == hand
        assert got.e_power == 0


def test_ln_glaisher_recovered_from_ratio_product():
    p = nk.bits_for_digits(40)
    w = p + 32
    v = ef.D(1, PRODUCT, w, 40)
    # invert the closed form: ln A = (ln D(1) + ln2/6 + ln(pi)/2) / 6
    ln_a = nk.add(nk.ln(v, w), nk.div(nk.ln2(w), nk.to_real(6, w), w), w)
    ln_a = nk.add(ln_a, nk.ldexp(nk.ln(nk.pi_ref(w), w), -1), w)
    ln_a = nk.div(ln_a, nk.to_real(6, w), w)
    assert nk.agreement_digits(ln_a, cst.constant("LN_GLAISHER", w)) >= 34


# ---------------------------------------------------------------------------
# parameterized-Euler-constant series


def test_gamma_series_vanish_identically_at_alpha_zero():
    for z in (-1, 0, Fraction(1, 2)):
        assert ef.gamma_param(0, z, 128, 30).is_zero()
        assert ef.gamma_param_deriv(0, z, 128, 30).is_zero()


def test_gamma_series_at_z_zero_reduce_to_first_coefficient():
    p = nk.bits_for_digits(40)
    w = p + 16
    v = ef.gamma_param(1, 0, p, 40)
    ref = nk.sub(nk.to_real(1, w), nk.ln2(w), w)
    assert nk.agreement_digits(v, ref) >= 38

    vd = ef.gamma_param_deriv(1, 0, p, 40)
    refd = nk.sub(nk.to_real(Fraction(1, 2), w), nk.ln_rational(Fraction(3, 2), w), w)
    assert nk.agreement_digits(vd, refd) >= 38

    vb = ef.gamma_ab(7, Fraction(5, 3), 0, p, 40)
    refb = nk.sub(
        nk.to_real(Fraction(3, 5), w), nk.ln_rational(Fraction(8, 5), w), w
    )
    assert nk.agreement_digits(vb, refb) >= 38


# SHA-256 prefixes of each value's raw binary tuple, recorded before the
# three series shared one summation path; a refactor of it must keep them
SERIES_ALPHAS = (Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))
SERIES_AB = ((Fraction(1), Fraction(1)), (Fraction(7), Fraction(5, 3)), (Fraction(2), Fraction(1, 2)))
SERIES_DIGESTS = {
    ("gamma_param", 40, "-1"): ('cb453ef8e65f', 'a9dfc15fe9bd', 'e28f39dc90be', '1aedf38d73b9'),
    ("gamma_param_deriv", 40, "-1"): ('f7dcdce5d122', 'f4c86f06e56c', 'e7848d1f54cb', '0c5b90a4943a'),
    ("gamma_ab", 40, "-1"): ('cb453ef8e65f', '6242cb7f1f5d', '1dfe2fed535a'),
    ("gamma_param", 40, "-1/2"): ('c4b3f718bd1a', '985d200874b7', '131443bdb655', '6cac2545687b'),
    ("gamma_param_deriv", 40, "-1/2"): ('4a9d87a3704d', 'c58939247aec', 'c5978ef7337c', 'd9ed4ddb114a'),
    ("gamma_ab", 40, "-1/2"): ('c4b3f718bd1a', '946f207a6d44', 'a0d590161c5a'),
    ("gamma_param", 40, "0"): ('b0f0a6fd773d', '28edda6ace70', 'fe15bc4e5417', '6c0849fb9d53'),
    ("gamma_param_deriv", 40, "0"): ('28edda6ace70', '69355a11ad11', 'b70777fa1933', 'e04317cfb287'),
    ("gamma_ab", 40, "0"): ('b0f0a6fd773d', '9e7b2c0be536', '9dbe7e31a144'),
    ("gamma_param", 40, "1/2"): ('48b2e93b0a5c', '64039d9910a4', '159fb84c5bd2', '72d115afff92'),
    ("gamma_param_deriv", 40, "1/2"): ('3c0241b93961', 'b9e06c36bc1e', 'c6469877e99c', '4956ac96ac70'),
    ("gamma_ab", 40, "1/2"): ('48b2e93b0a5c', 'cd1f9d8f40ee', '101f482e6e67'),
    ("gamma_param", 100, "-1"): ('c7de374de58a', '0feb5629008b', '3a3f9e8ff474', '6651980934e0'),
    ("gamma_param_deriv", 100, "-1"): ('01a8c6fa95a4', '41775eb93c70', 'fb38babbd635', '1e28a858059c'),
    ("gamma_ab", 100, "-1"): ('c7de374de58a', '1e36f0de33b9', '880bedc8b99a'),
    ("gamma_param", 100, "-1/2"): ('8881edad6ef2', 'c6d78c6ca608', 'd799323ff1de', '5c85d9e00bfd'),
    ("gamma_param_deriv", 100, "-1/2"): ('1f6b53d958a7', '003be19e8693', 'a95b46b6040a', 'd0cb44107d2b'),
    ("gamma_ab", 100, "-1/2"): ('8881edad6ef2', '769bd3638ba1', '390abd8f4eb8'),
    ("gamma_param", 100, "0"): ('ff3c45940af0', '7170441372c3', '546d5349ccaf', '99e7d858f62d'),
    ("gamma_param_deriv", 100, "0"): ('7170441372c3', 'ee7afb0c4a2d', '3d1a0b8e61c9', '6c3b1178d6b9'),
    ("gamma_ab", 100, "0"): ('ff3c45940af0', 'ffb6bfda8894', '976bc676b1e8'),
    ("gamma_param", 100, "1/2"): ('ca0d0eaf999b', '4a899d632f0e', '630be9b980a2', 'a4d30551762b'),
    ("gamma_param_deriv", 100, "1/2"): ('6f5160efbd5c', '8d71de169ca6', '0c435b2ed29e', 'a11782e6808a'),
    ("gamma_ab", 100, "1/2"): ('ca0d0eaf999b', 'f9603f3fc892', '901a8943ab13'),
}


def raw_digest(v):
    sign, man, exp, bc = v.raw
    return hashlib.sha256(f"{sign}:{int(man)}:{exp}:{bc}".encode()).hexdigest()[:12]


@pytest.mark.parametrize("digits", [40, 100])
def test_gamma_series_values_are_pinned_bit_for_bit(digits):
    p = nk.bits_for_digits(digits)
    for z in ("-1", "-1/2", "0", "1/2"):
        zf = Fraction(z)
        got = {
            "gamma_param": tuple(raw_digest(ef.gamma_param(a, zf, p, digits))
                                 for a in SERIES_ALPHAS),
            "gamma_param_deriv": tuple(raw_digest(ef.gamma_param_deriv(a, zf, p, digits))
                                       for a in SERIES_ALPHAS),
            "gamma_ab": tuple(raw_digest(ef.gamma_ab(a, b, zf, p, digits))
                              for a, b in SERIES_AB),
        }
        for fn, digests in got.items():
            assert digests == SERIES_DIGESTS[fn, digits, z], (fn, z)


@pytest.mark.parametrize(
    "t_at,weight,n0,terms",
    [
        (lambda n: (1, 2 * n), lambda n: n - 1, 2, 2048),  # gamma_param_deriv at 1/2
        (lambda n: (-1, 3 * n), lambda n: 1, 1, 1024),  # gamma_param at -1/3
        (lambda n: (3, 21 * n + 5), lambda n: 1, 0, 1024),  # gamma_ab(7, 5/3)
    ],
)
def test_paired_direct_sum_matches_mpmath(t_at, weight, n0, terms):
    # the directed check's direct sum, the +-1 vector of the weighted sum:
    # the exact exponent vector and the fixed-point rational part keep it
    # within 2^-(w+30) of the true sum
    w = 200
    signs = [(-1) ** i for i in range(terms)]
    got = ef._weighted_t_sum(t_at, weight, n0 + terms - 1, w, (signs,), 1)[0]
    with mp.workprec(w + 64):
        ts = [mpq(Fraction(*t_at(n0 + i))) for i in range(terms)]
        want = mp.fsum(
            (-1) ** i * weight(n0 + i) * (t - mp.log1p(t)) for i, t in enumerate(ts)
        )
        assert abs(as_mpf(got) - want) <= mp.mpf(2) ** -(w + 30) + abs(want) * mp.mpf(2) ** -w


@pytest.mark.parametrize(
    "t_at,weight,n0",
    [
        (lambda n: (1, 2 * n), lambda n: n - 1, 2),  # gamma_param_deriv at 1/2
        (lambda n: (-1, 3 * n), lambda n: 1, 1),  # gamma_param at -1/3
        (lambda n: (3, 21 * n + 5), lambda n: 1, 0),  # gamma_ab(7, 5/3)
    ],
)
def test_weighted_t_sum_of_two_crvz_vectors_matches_mpmath(t_at, weight, n0):
    # CRVZ's two vectors at n = 40 over den = d d1: the 40-term sum and its
    # difference from the 39-term sum, each within 2^-(w+30) of the truth
    w, n = 200, 40
    d, cs = accel._crvz_weights(n)
    d1, cs1 = accel._crvz_weights(n - 1)
    value = [c * d1 for c in cs]
    spread = [v - c * d for v, c in zip(value, cs1 + [0])]
    got = ef._weighted_t_sum(t_at, weight, n0 + n - 1, w, (value, spread), d * d1)
    with mp.workprec(w + 64):
        ts = [weight(n0 + k) * (t - mp.log1p(t))
              for k, t in enumerate(mpq(Fraction(*t_at(n0 + k))) for k in range(n))]
        for vec, g in zip((value, spread), got):
            want = mp.fsum(c * t for c, t in zip(vec, ts)) / (d * d1)
            assert abs(as_mpf(g) - want) <= mp.mpf(2) ** -(w + 30) + abs(want) * mp.mpf(2) ** -w


def test_directed_check_refuses_a_total_off_by_more_than_the_first_omitted_term():
    alpha, wp = Fraction(1, 2), 240
    w = wp // 2 + 32

    def t_at(n):
        return alpha.numerator, alpha.denominator * n

    combine = partial(ef._weighted_t_sum, t_at, lambda n: n - 1)
    direct = as_mpf(combine(2 + 2048 - 1, w, ([(-1) ** i for i in range(2048)],), 1)[0])
    n = 2 + 2048
    bound = as_mpf(ef._t_minus_log1p(*t_at(n), w)) * (n - 1)
    for shift, ok in ((mp.mpf("0.9"), True), (mp.mpf("1.1"), False)):
        for sign in (1, -1):
            total = nk.Real(mp.mpf(direct + sign * shift * bound)._mpf_, wp)
            args = (combine, 2, wp, total, 2048)
            if ok:
                ef._directed_check(*args)
            else:
                with pytest.raises(NonConvergenceError, match="direct partial sum"):
                    ef._directed_check(*args)


def test_the_directed_checks_shared_table_leaves_each_request_its_bits():
    # _z_series binds the check's combine to one table for both of its
    # requests; each value is still the one a fresh table gives
    alpha, wp, terms = Fraction(1, 2), 240, 2048
    w = wp // 2 + 32

    def t_at(n):
        return alpha.numerator, alpha.denominator * n

    combine = partial(ef._weighted_t_sum, t_at, lambda n: n - 1)
    shared = partial(combine, logs=nk.PrimeLogTable())
    for args in ((2 + terms - 1, w, ([(-1) ** i for i in range(terms)],), 1),
                 (2 + terms, w, ((1,),), 1)):
        assert shared(*args)[0].raw == combine(*args)[0].raw


@pytest.mark.parametrize("alpha", [Fraction(1, 10**30), Fraction(-1, 10**12), Fraction(1, 10**6)])
def test_series_of_tiny_terms_keep_their_relative_precision(alpha):
    # the weighted sums have an absolute error bound, scaled to the first
    # term; the values are the power series in alpha, with eta(1) = ln 2:
    # gamma_param = sum_j (-alpha)^j eta(j) / j and
    # gamma_param_deriv = sum_j (-alpha)^j (eta(j) - eta(j-1)) / j
    p = nk.bits_for_digits(30)
    with mp.workprec(4 * p):
        a = mpq(alpha)
        eta = [mp.log(2)] + [mp.altzeta(j) for j in range(2, 40)]
        want = (mp.fsum((-a) ** j * eta[j - 1] / j for j in range(2, 40)),
                mp.fsum((-a) ** j * (eta[j - 1] - eta[j - 2]) / j for j in range(2, 40)))
        for f, w in zip((ef.gamma_param, ef.gamma_param_deriv), want):
            got = as_mpf(f(alpha, -1, p, 30))
            assert abs(got - w) <= abs(w) * mp.mpf(10) ** -30


@pytest.mark.parametrize("digits", [30, 40, 100, 300])
def test_crvz_value_from_the_weighted_sum_is_the_sampled_terms_value(monkeypatch, digits):
    # the series' CRVZ value comes from its combine hook; the same generator
    # with term_at alone samples its one-node terms; the two must not drift
    seen = []

    def both_paths(gen, bits):
        est = accel.alternating_sum(gen, bits)
        sampled = accel.alternating_sum(dataclasses.replace(gen, combine=None), bits)
        seen.append((est.value.raw, sampled.value.raw))
        return est

    monkeypatch.setattr(ef, "alternating_sum", both_paths)
    p = nk.bits_for_digits(digits)
    for alpha in SERIES_ALPHAS:
        ef.gamma_param(alpha, -1, p, digits)
        ef.gamma_param_deriv(alpha, -1, p, digits)
    assert len(seen) == 2 * len(SERIES_ALPHAS)
    for combined, sampled in seen:
        assert combined == sampled


@pytest.mark.parametrize(
    "num,den",
    [
        (1, 2), (-1, 3), (5, 2), (-2, 3),  # alpha/n at n = 1
        (-999, 1000), (-1, 7 * 10**6),  # alpha in (-1, 0), near -1 and tiny
        (1, 10**40), (-3, 7 * 10**45),  # tiny t, deep cancellation
        (3, 21 * 500 + 5), (1, 10**6 + 1), (2, 4 * 10**30 + 1),  # 1/(an + b)
    ],
)
def test_t_minus_log1p_matches_mpmath(num, den):
    # the one coefficient of both families, against mpmath's t - log1p(t)
    # well above the working precision: relative error below 2^-(wp-2)
    wp = 160
    got = as_mpf(ef._t_minus_log1p(num, den, wp))
    with mp.workprec(8 * wp):
        t = mp.mpf(num) / den
        want = t - mp.log1p(t)
        assert want > 0
        assert abs(got - want) <= abs(want) * mp.mpf(2) ** -(wp - 2)


def test_reindexed_family_matches_single_parameter_family():
    rng = random.Random(20260816)
    p = nk.bits_for_digits(34)
    pairs_checked = 0
    while pairs_checked < 10:
        alpha = Fraction(rng.randrange(1, 60), rng.randrange(1, 20))
        z = Fraction(rng.randrange(-12, 11), 12)
        one = ef.gamma_param(alpha, z, p, 34)
        other = ef.gamma_ab(1 / alpha, 1 / alpha, z, p, 34)
        if one.is_zero() and other.is_zero():
            pairs_checked += 1
            continue
        assert nk.agreement_digits(one, other) >= 30, (alpha, z)
        pairs_checked += 1


@settings(deadline=None, max_examples=40)
@given(num=st.integers(1, 40), den=st.integers(1, 12))
def test_reindexed_family_first_coefficient_property(num, den):
    b = Fraction(num, den)
    p = nk.bits_for_digits(36)
    w = p + 16
    v = ef.gamma_ab(1, b, 0, p, 36)
    ref = nk.sub(nk.to_real(1 / b, w), nk.ln_rational((b + 1) / b, w), w)
    assert nk.agreement_digits(v, ref) >= 33


def test_alternating_gamma_series_reproduce_product_logarithm():
    # x + gamma'_x(-1) - gamma_x(-1) must equal the log of the product limit
    # at a point where the two candidate series exponents disagree
    x = Fraction(1, 4)
    p = nk.bits_for_digits(36)
    w = p + 16
    g = ef.gamma_param(x, -1, w, 38)
    gd = ef.gamma_param_deriv(x, -1, w, 38)
    lhs = nk.add(nk.to_real(x, w), nk.sub(gd, g, w), w)
    rhs = nk.ln(ef.D(x, PRODUCT, w, 38), w)
    assert nk.agreement_digits(lhs, rhs) >= 32


# ---------------------------------------------------------------------------
# the squared-ratio limit E


def test_squared_ratio_limit_is_even_in_its_parameter():
    p = nk.bits_for_digits(36)
    assert ef.E(Fraction(3, 10), p, 36).raw == ef.E(Fraction(-3, 10), p, 36).raw
    assert ef.E(Fraction(1, 2), p, 36).raw == ef.E(Fraction(-1, 2), p, 36).raw


def test_squared_ratio_limit_is_one_at_zero():
    v = ef.E(0, 128, 30)
    assert abs(as_mpf(v) - 1) < mp.mpf(10) ** -28


def test_squared_ratio_limit_at_half_matches_closed_form():
    p = nk.bits_for_digits(46)
    w = p + 32
    ln_ref = nk.sub(nk.ln(nk.pi_ref(w), w), nk.ldexp(nk.ln2(w), 1), w)
    ln_ref = nk.add(ln_ref, nk.to_real(Fraction(1, 2), w), w)
    pi2 = nk.mul(nk.pi_ref(w), nk.pi_ref(w), w)
    ln_ref = nk.add(
        ln_ref,
        nk.div(nk.mul(cst.constant("ZETA3", w), nk.to_real(7, w), w), pi2, w),
        w,
    )
    ref = nk.exp(ln_ref, w).at(p)
    v = ef.E(Fraction(1, 2), p, 46)
    assert nk.agreement_digits(v, ref) >= 42


# ---------------------------------------------------------------------------
# Lerch s-derivative


def test_lerch_sderiv_at_minus_two_matches_zeta3_form():
    p = nk.bits_for_digits(36)
    w = p + 32
    v = ef.phi_sderiv(LerchDerivQuery(-2, 1), p, 36)
    pi2 = nk.mul(nk.pi_ref(w), nk.pi_ref(w), w)
    ref = nk.div(
        nk.mul(cst.constant("ZETA3", w), nk.to_real(7, w), w),
        nk.ldexp(pi2, 2),
        w,
    )
    assert nk.agreement_digits(v, ref) >= 32


def test_lerch_sderiv_at_minus_one_matches_catalan_form():
    p = nk.bits_for_digits(36)
    w = p + 32
    v = ef.phi_sderiv(LerchDerivQuery(-1, Fraction(1, 2)), p, 36)
    ref = nk.div(cst.constant("CATALAN", w), nk.pi_ref(w), w)
    assert nk.agreement_digits(v, ref) >= 32


def test_lerch_sderiv_convergent_point_matches_long_direct_sum():
    # at s = 2 the raw series converges; a paired 10^5-term partial sum pins
    # the value to about ln(N)/N^2 ~ 1.2e-9
    v = ef.phi_sderiv(LerchDerivQuery(2, 1), nk.bits_for_digits(30), 30)
    with mp.workdps(25):
        total = mp.mpf(0)
        for n in range(0, 100_000, 2):
            total += mp.log(n + 1) / (n + 1) ** 2 - mp.log(n + 2) / (n + 2) ** 2
        oracle = -total
    assert abs(as_mpf(v) - oracle) < mp.mpf("3e-9")


@pytest.mark.parametrize(
    "s,u", [(-2, Fraction(1)), (-1, Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 5))]
)
def test_lerch_sderiv_routes_agree(s, u):
    q = LerchDerivQuery(s, u)
    split = ef._phi_sderiv_split(q, nk.bits_for_digits(30))
    series = ef._phi_sderiv_series(q, nk.bits_for_digits(27, guard=24))
    assert nk.agreement_digits(split, series) >= 25


def test_a_faulty_prime_log_table_fails_both_check_routes(monkeypatch):
    # zeta'(-1) (LN_GLAISHER's primary) and the Hurwitz split (phi_sderiv's
    # value) take their heads from PrimeLogTable; their check routes, the
    # eta'(2) series and the Euler-summed Lerch series, take ln_rational.
    # A wrong atom log must move only the primaries, and both gates refuse.
    p = nk.bits_for_digits(30)
    q = LerchDerivQuery(-2, 1)
    glaisher_check = cst._ln_glaisher_zeta2(p)
    lerch_check = ef._phi_sderiv_series(q, nk.bits_for_digits(25, guard=24))
    fill = nk._FixedLogs.fill

    def off_by_2_to_minus_40(logs, atoms):
        # fill makes every atom entry; the fault enters the one for 3
        fresh = 3 not in logs
        fill(logs, atoms)
        if fresh and 3 in logs:
            logs[3] += 1 << (logs.bucket - 40)

    monkeypatch.setattr(nk._FixedLogs, "fill", off_by_2_to_minus_40)
    monkeypatch.setattr(cst, "_memo", {})
    assert cst._ln_glaisher_zeta2(p).raw == glaisher_check.raw
    assert ef._phi_sderiv_series(q, nk.bits_for_digits(25, guard=24)).raw == lerch_check.raw
    with pytest.raises(NonConvergenceError, match="routes for LN_GLAISHER agree"):
        cst.constant("LN_GLAISHER", p)
    with pytest.raises(NonConvergenceError, match="disagree"):
        ef.phi_sderiv(q, p, 30)


def test_a_faulty_prime_log_table_fails_dgamma_one(monkeypatch):
    # GAMMA_SERIES's value sums its logs through a table too, so the fault of
    # the test above fails DGAMMA_ONE even when the constant memo already
    # holds a correct Glaisher constant; with the memo cleared, LN_GLAISHER's
    # dual-route gate refuses the right-hand side's constant as well
    monkeypatch.setattr(cst, "_memo", {})
    assert hz.verify("DGAMMA_ONE", 30).passed
    fill = nk._FixedLogs.fill

    def off_by_2_to_minus_40(logs, atoms):
        # fill makes every atom entry; the fault enters the one for 3
        fresh = 3 not in logs
        fill(logs, atoms)
        if fresh and 3 in logs:
            logs[3] += 1 << (logs.bucket - 40)

    monkeypatch.setattr(nk._FixedLogs, "fill", off_by_2_to_minus_40)
    assert hz.verify("DGAMMA_ONE", 30).passed is False
    monkeypatch.setattr(cst, "_memo", {})
    assert hz.verify("DGAMMA_ONE", 30).passed is False
    with pytest.raises(NonConvergenceError, match="routes for LN_GLAISHER agree"):
        cst.constant("LN_GLAISHER", nk.bits_for_digits(30))


# ---------------------------------------------------------------------------
# determinism


def test_repeated_evaluations_are_bit_identical():
    p = nk.bits_for_digits(32)
    a = ef.D(Fraction(1, 2), GAMMA_SERIES, p, 32)
    b = ef.D(Fraction(1, 2), GAMMA_SERIES, p, 32)
    assert a.raw == b.raw
    qa = ef.phi_sderiv(LerchDerivQuery(-2, 1), p, 32)
    qb = ef.phi_sderiv(LerchDerivQuery(-2, 1), p, 32)
    assert qa.raw == qb.raw
