"""Checks for the sequence-limit machinery: the CRVZ sum and the Euler
transform for alternating series, the epsilon algorithm and polynomial
extrapolation for partial-sum sequences, and the escalating dispatcher.

Alongside the classical convergent cases, this file pins the machinery's
honest failure modes on logarithmically converging product sequences: the
epsilon algorithm stalls (with a deceptively small empirical error estimate),
and the Euler transform on one-signed or cluster-oscillating differences
either refuses or converges to the wrong mean.  Those stay as regression
tests because the verification harness relies on them failing loudly rather
than quietly.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from altprod import accel
from altprod import numkernel as nk
from altprod import products as pr
from altprod.accel import (
    ALTERNATING_TERMS,
    EULER,
    PARTIAL_SUMS,
    RAW,
    RICHARDSON,
    WYNN,
    LimitEstimate,
    SequenceGen,
    alternating_sum,
    estimate_limit,
    euler_transform_sum,
    richardson_limit,
    wynn_epsilon_limit,
)
from altprod.constants import constant
from altprod.numkernel import NonConvergenceError, SpecError

mp.mp.dps = 80


def as_mpf(x):
    return mp.make_mpf(x.raw)


def product_log_seq(name, x=None):
    spec = pr.builtin(name, x)
    session = pr.ProductEvalSession(spec)
    return SequenceGen(term_at=session.log_partial, n0=1, kind=PARTIAL_SUMS)


# ---------------------------------------------------------------------------
# input validation


def test_sequence_gen_validates_kind_and_n0():
    f = lambda n, p: nk.to_real(1, p)
    with pytest.raises(SpecError):
        SequenceGen(term_at=f, n0=0, kind="SOMETHING")
    with pytest.raises(SpecError):
        SequenceGen(term_at=f, n0=-1, kind=PARTIAL_SUMS)


def test_limit_estimate_rejects_negative_error():
    with pytest.raises(SpecError):
        LimitEstimate(
            value=nk.to_real(1, 64),
            error_estimate=nk.to_real(-1, 64),
            terms_used=3,
            method=RAW,
        )


def test_methods_demand_matching_kind():
    sums = SequenceGen(term_at=lambda n, p: nk.to_real(n, p), n0=1, kind=PARTIAL_SUMS)
    terms = SequenceGen(
        term_at=lambda n, p: nk.to_real(Fraction(1, n + 1), p),
        n0=0,
        kind=ALTERNATING_TERMS,
    )
    with pytest.raises(SpecError):
        euler_transform_sum(sums, 64, 16)
    with pytest.raises(SpecError):
        alternating_sum(sums, 64)
    with pytest.raises(SpecError):
        wynn_epsilon_limit(terms, 64, 16)
    with pytest.raises(SpecError):
        richardson_limit(terms, 64, 16, 4)


# ---------------------------------------------------------------------------
# Euler transform


def test_euler_alternating_harmonic_reaches_30_digits_within_120_terms():
    terms = SequenceGen(
        term_at=lambda k, p: nk.to_real(Fraction(1, k), p), n0=1, kind=ALTERNATING_TERMS
    )
    p = nk.bits_for_digits(30, guard=10)
    est = euler_transform_sum(terms, p, 120)
    assert est.terms_used <= 120
    assert abs(as_mpf(est.value) - mp.log(2)) < mp.mpf(10) ** -30
    assert est.method == EULER


def test_euler_zero_terms_give_zero():
    terms = SequenceGen(
        term_at=lambda k, p: nk.to_real(0, p), n0=1, kind=ALTERNATING_TERMS
    )
    est = euler_transform_sum(terms, 128, 16)
    assert est.value.is_zero()
    assert est.error_estimate.is_zero()


def test_euler_product_tail_series_matches_closed_form():
    # b_k = -1 + k*ln(1 + 1/k): the alternating sum, plus 1, is the log of
    # the limit of the x=1 alternating-ratio product; closed form
    # 6*lnA - (1/6) ln2 - (1/2) ln pi
    def term(k, p):
        return nk.sub(
            nk.mul(nk.ln_rational(Fraction(k + 1, k), p), nk.to_real(k, p), p),
            nk.to_real(1, p),
            p,
        )

    terms = SequenceGen(term_at=term, n0=1, kind=ALTERNATING_TERMS)
    p = nk.bits_for_digits(32, guard=12)
    est = euler_transform_sum(terms, p, 400)
    got = nk.add(nk.to_real(1, p), est.value, p)

    pbig = nk.bits_for_digits(40)
    ref = nk.sub(
        nk.mul(nk.to_real(6, pbig), constant("LN_GLAISHER", pbig), pbig),
        nk.add(
            nk.div(nk.ln2(pbig), nk.to_real(6, pbig), pbig),
            nk.ldexp(nk.ln(constant("PI", pbig), pbig), -1),
            pbig,
        ),
        pbig,
    )
    assert abs(as_mpf(got) - as_mpf(ref)) < mp.mpf(10) ** -30


def test_euler_non_convergence_carries_best_estimate():
    terms = SequenceGen(
        term_at=lambda k, p: nk.to_real(Fraction(1, k), p), n0=1, kind=ALTERNATING_TERMS
    )
    with pytest.raises(NonConvergenceError) as info:
        euler_transform_sum(terms, nk.bits_for_digits(40), 12)
    best = info.value.best
    assert best is not None
    assert abs(as_mpf(best.value) - mp.log(2)) < mp.mpf(10) ** -3


# ---------------------------------------------------------------------------
# Cohen-Rodriguez Villegas-Zagier alternating sum


def test_crvz_weights_are_the_exact_integer_recurrence():
    for n in (1, 2, 3, 7, 40, 101):
        d, cs = accel._crvz_weights(n)
        # T_n(3) is the rational part of (3 + 2 sqrt 2)^n
        a, b = 1, 0
        for _ in range(n):
            a, b = 3 * a + 4 * b, 2 * a + 3 * b
        assert d == a
        # the published recurrence in rational arithmetic stays integral
        bk, ck = Fraction(-1), Fraction(-d)
        assert len(cs) == n
        for k in range(n):
            ck = bk - ck
            assert ck.denominator == 1 and cs[k] == ck
            assert abs(cs[k]) < d
            bk = (k + n) * (k - n) * bk / ((k + Fraction(1, 2)) * (k + 1))


class _CountingTerms:
    """term_at for b_k = f(k) that records every index asked for."""

    def __init__(self, f):
        self.f = f
        self.indices = set()

    def __call__(self, k, p):
        self.indices.add(k)
        return nk.to_real(self.f(k), p)


_ALTERNATING_CASES = {
    "ln2": (lambda k: Fraction(1, k + 1), lambda: mp.log(2)),
    "catalan": (lambda k: Fraction(1, (2 * k + 1) ** 2), lambda: mp.catalan),
    "eta3": (lambda k: Fraction(1, (k + 1) ** 3), lambda: 3 * mp.zeta(3) / 4),
}


@pytest.mark.parametrize("p", [128, 600, 1100])
@pytest.mark.parametrize("name", sorted(_ALTERNATING_CASES))
def test_alternating_sum_matches_mpmath_with_linear_term_count(name, p):
    f, truth = _ALTERNATING_CASES[name]
    term_at = _CountingTerms(f)
    est = alternating_sum(SequenceGen(term_at=term_at, n0=0, kind=ALTERNATING_TERMS), p)
    assert len(term_at.indices) <= math.ceil(p / 2.5) + 8
    assert est.terms_used == max(term_at.indices)
    with mp.workprec(p + 64):
        assert abs(as_mpf(est.value) - truth()) < mp.mpf(2) ** (1 - p)
        assert as_mpf(est.error_estimate) < mp.mpf(2) ** -(p + 2)


@pytest.mark.parametrize("p", [64, 128, 333])
def test_alternating_sum_agrees_bit_for_bit_with_euler_on_alternating_harmonic(p):
    terms = SequenceGen(
        term_at=lambda k, q: nk.to_real(Fraction(1, k), q), n0=1, kind=ALTERNATING_TERMS
    )
    assert alternating_sum(terms, p).value.raw == euler_transform_sum(terms, p, 4 * p).value.raw


def test_alternating_sum_zero_terms_give_zero():
    terms = SequenceGen(
        term_at=lambda k, p: nk.to_real(0, p), n0=1, kind=ALTERNATING_TERMS
    )
    est = alternating_sum(terms, 128)
    assert est.value.is_zero()
    assert est.error_estimate.is_zero()


def test_alternating_sum_refuses_growing_terms():
    # sum (-2)^k has the Abel mean 1/3, but the weighted sums sit at 0 and
    # 2/3 by the parity of the term count and never converge
    terms = SequenceGen(
        term_at=lambda k, p: nk.to_real(2**k, p), n0=0, kind=ALTERNATING_TERMS
    )
    with pytest.raises(NonConvergenceError) as info:
        alternating_sum(terms, 128)
    assert info.value.best is not None
    assert as_mpf(info.value.best.error_estimate) > mp.mpf("0.5")


def test_alternating_sum_eta_prime_2_from_n_2():
    # sum_{n>=2} (-1)^n ln(n)/n^2 = eta'(2); from n = 2 the sequence is not
    # completely monotone (its fourth forward difference is negative), so it
    # is no moment sequence, yet the LN_GLAISHER check route sums it
    terms = SequenceGen(
        term_at=lambda n, q: nk.div(nk.ln_rational(n, q), nk.to_real(n * n, q), q),
        n0=2,
        kind=ALTERNATING_TERMS,
    )
    p = 600
    est = alternating_sum(terms, p)
    with mp.workprec(p + 64):
        truth = mp.pi**2 / 12 * (mp.euler + mp.log(4 * mp.pi) - 12 * mp.log(mp.glaisher))
        assert abs(as_mpf(est.value) - truth) < mp.mpf(2) ** (1 - p)


# ---------------------------------------------------------------------------
# Wynn epsilon


def test_wynn_geometric_is_fast_and_sharp():
    seq = SequenceGen(
        term_at=lambda n, p: nk.sub(nk.to_real(1, p), nk.ldexp(nk.to_real(1, p), -n), p),
        n0=1,
        kind=PARTIAL_SUMS,
    )
    p = nk.bits_for_digits(30, guard=10)
    est = wynn_epsilon_limit(seq, p, 40)
    assert abs(as_mpf(est.value) - 1) < mp.mpf(10) ** -28
    assert est.method == WYNN


def test_wynn_alternating_harmonic_partials():
    class Partials:
        def __init__(self):
            self.state = {}

        def __call__(self, n, p):
            k, acc = self.state.get(p, (0, nk.to_real(0, p)))
            while k < n:
                k += 1
                t = nk.to_real(Fraction((-1) ** (k + 1), k), p)
                acc = nk.add(acc, t, p)
            self.state[p] = (k, acc)
            return acc

    seq = SequenceGen(term_at=Partials(), n0=1, kind=PARTIAL_SUMS)
    est = wynn_epsilon_limit(seq, nk.bits_for_digits(30, guard=10), 40)
    assert abs(as_mpf(est.value) - mp.log(2)) < mp.mpf(10) ** -25


def test_wynn_constant_sequence_shortcut():
    # 7/4 is dyadic, so the constant survives rounding and the shortcut
    # can return it exactly
    seq = SequenceGen(
        term_at=lambda n, p: nk.to_real(Fraction(7, 4), p), n0=1, kind=PARTIAL_SUMS
    )
    est = wynn_epsilon_limit(seq, 128, 12)
    assert est.value.to_fraction() == Fraction(7, 4)
    assert est.error_estimate.is_zero()


def test_wynn_stalls_on_log_type_product_sequence():
    # Logarithmic (O(1/n)-error) sequences defeat the epsilon algorithm: at
    # 400 terms the true error is still ~1e-10 while the last-step estimate
    # reads ~1e-16.  The window below pins the stall without being brittle.
    seq = product_log_seq("KT3")
    p = nk.bits_for_digits(32)
    est = wynn_epsilon_limit(seq, p, 400)
    truth = 2 * mp.catalan / mp.pi - mp.mpf(1) / 2
    err = abs(as_mpf(est.value) - truth)
    assert mp.mpf(10) ** -15 < err < mp.mpf(10) ** -6
    assert as_mpf(est.error_estimate) < err  # the empirical estimate is deceptive


# ---------------------------------------------------------------------------
# Richardson extrapolation


def test_richardson_exact_on_its_model():
    seq = SequenceGen(
        term_at=lambda n, p: nk.to_real(1 + Fraction(1, n), p), n0=1, kind=PARTIAL_SUMS
    )
    p = nk.bits_for_digits(40)
    est = richardson_limit(seq, p, 8, 1)
    assert abs(as_mpf(est.value) - 1) < mp.mpf(2) ** (-p + 16)
    assert est.method == RICHARDSON


def test_richardson_log_factor_tending_to_one():
    # s_n = -(2n+1) * ln(1 - 2/(4n+3)) -> 1
    def term(n, p):
        return nk.mul(
            nk.to_real(-(2 * n + 1), p),
            nk.ln_rational(Fraction(4 * n + 1, 4 * n + 3), p),
            p,
        )

    seq = SequenceGen(term_at=term, n0=1, kind=PARTIAL_SUMS)
    p = nk.bits_for_digits(40)
    est = richardson_limit(seq, p, 48, 47)
    assert abs(as_mpf(est.value) - 1) < mp.mpf(10) ** -35


def test_richardson_half_power_sequence():
    # s_n = 2n * ln(4n/(4n+1)) -> -1/2
    def term(n, p):
        return nk.mul(
            nk.to_real(2 * n, p), nk.ln_rational(Fraction(4 * n, 4 * n + 1), p), p
        )

    seq = SequenceGen(term_at=term, n0=1, kind=PARTIAL_SUMS)
    p = nk.bits_for_digits(40)
    est = richardson_limit(seq, p, 48, 47)
    assert abs(as_mpf(est.value) + mp.mpf(1) / 2) < mp.mpf(10) ** -35


def test_richardson_constant_sequence_shortcut():
    seq = SequenceGen(
        term_at=lambda n, p: nk.to_real(Fraction(-5, 8), p), n0=2, kind=PARTIAL_SUMS
    )
    est = richardson_limit(seq, 128, 10, 6)
    assert est.value.to_fraction() == Fraction(-5, 8)
    assert est.error_estimate.is_zero()


def test_lagrange_weights_reproduce_polynomials_in_one_over_n_exactly():
    # sum_i w_i / n_i^k is m! for k = 0 and 0 for 1 <= k <= m: the weights
    # extrapolate every polynomial in 1/n of degree <= m to its constant term
    for n0 in (1, 2, 7):
        for m in (1, 2, 5, 16):
            weights = accel._lagrange_weights(n0, m)
            for k in range(m + 1):
                total = sum(Fraction(w, (n0 + i) ** k) for i, w in enumerate(weights))
                assert total == (math.factorial(m) if k == 0 else 0), (n0, m, k)


def test_richardson_recovers_the_constant_of_a_polynomial_in_one_over_n():
    rng = random.Random(5)
    for J in (1, 4, 12):
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(J + 1)]
        seq = SequenceGen(
            term_at=lambda n, p: nk.to_real(
                sum(c / Fraction(n) ** k for k, c in enumerate(coeffs)), p
            ),
            n0=3,
            kind=PARTIAL_SUMS,
        )
        p = 200
        est = richardson_limit(seq, p, J + 1, J)
        assert abs(est.value.to_fraction() - coeffs[0]) <= abs(coeffs[0]) * Fraction(2) ** (2 - p)


def _neville_reference(nodes, samples):
    """Exact Neville tableau at 0 through (1/n_i, t_i): the values through
    all nodes and through all but the last."""
    xs = [Fraction(1, n) for n in nodes]
    t = list(samples)
    diag = [t[0]]
    for j in range(1, len(t)):
        for i in range(len(t) - j):
            t[i] = (xs[i + j] * t[i] - xs[i] * t[i + 1]) / (xs[i + j] - xs[i])
        diag.append(t[0])
    return diag[-1], diag[-2]


def test_richardson_matches_an_exact_neville_reference_on_random_samples():
    rng = random.Random(11)
    for case in range(12):
        n0 = rng.randint(1, 6)
        J = rng.randint(1, 14)
        table = {n: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
                 for n in range(n0, n0 + J + 1)}
        if case % 3 == 0:
            table[n0 + J] = Fraction(0)  # a zero sample has no exponent to align
        taken = {}

        def term(n, p):
            taken[n] = nk.to_real(table[n], p)
            return taken[n]

        p = 96
        est = richardson_limit(SequenceGen(term_at=term, n0=n0, kind=PARTIAL_SUMS), p, J + 1, J)
        nodes = range(n0, n0 + J + 1)
        top, below = _neville_reference(nodes, [taken[n].to_fraction() for n in nodes])
        # both sums are exact and rounded once, so the bits agree exactly
        assert est.value.raw == nk.to_real(top, p).raw, case
        assert est.error_estimate.raw == nk.to_real(abs(top - below), p).raw, case


def _old_node_condition_bits(n0, count):
    """The O(count^2) float estimate the closed form replaced."""
    xs = [1.0 / (n0 + i) for i in range(count)]
    worst = 0.0
    for i in range(count):
        lw = 0.0
        for j in range(count):
            if j != i:
                lw += math.log2(abs(xs[j])) - math.log2(abs(xs[j] - xs[i]))
        worst = max(worst, lw)
    return max(0, int(worst) + count.bit_length() + 4)


def test_node_condition_bits_never_fall_below_the_old_estimate():
    counts = [*range(2, 34), 63, 64, 65, 127, 128, 129, 255, 256, 257, 512]
    for n0 in range(1, 9):
        for count in counts:
            new = accel._node_condition_bits(n0, count)
            old = _old_node_condition_bits(n0, count)
            assert old <= new <= old + 2, (n0, count, old, new)


# ---------------------------------------------------------------------------
# dispatcher


def test_estimate_limit_geometric_wynn_30_digits():
    seq = SequenceGen(
        term_at=lambda n, p: nk.sub(nk.to_real(1, p), nk.ldexp(nk.to_real(1, p), -n), p),
        n0=1,
        kind=PARTIAL_SUMS,
    )
    est = estimate_limit(seq, WYNN, 30, nk.bits_for_digits(34))
    assert abs(as_mpf(est.value) - 1) < mp.mpf(10) ** -30


def test_estimate_limit_richardson_product_sequence():
    seq = product_log_seq("KT1")
    p = nk.bits_for_digits(44)
    est = estimate_limit(seq, RICHARDSON, 42, p)
    truth = 7 * mp.zeta(3) / (4 * mp.pi**2) + mp.mpf(1) / 4
    assert abs(as_mpf(est.value) - truth) < mp.mpf(10) ** -42
    assert est.terms_used <= 130


def test_estimate_limit_starts_richardson_at_the_budget_the_target_needs(monkeypatch):
    budgets = []
    real = accel.richardson_limit

    def counting(seq, p, max_terms, order):
        budgets.append(max_terms)
        return real(seq, p, max_terms, order)

    monkeypatch.setattr(accel, "richardson_limit", counting)
    est = estimate_limit(product_log_seq("KT3"), RICHARDSON, 100, nk.bits_for_digits(100))
    assert budgets == [128]  # no 64-node round thrown away
    assert est.terms_used == 128
    firsts = [accel._first_budget(RICHARDSON, d) for d in (30, 56, 57, 100, 114, 115)]
    assert firsts == [64, 64, 128, 128, 128, 256]
    assert accel._first_budget(WYNN, 100) == 64


def test_estimate_limit_wynn_refuses_30_digits_on_log_type_sequence():
    # the epsilon algorithm cannot reach 30 digits on these sequences within
    # any reasonable budget; the dispatcher must say so rather than return
    seq = product_log_seq("MELZAK")
    p = nk.bits_for_digits(32)
    with pytest.raises(NonConvergenceError) as info:
        estimate_limit(seq, WYNN, 30, p, max_terms_cap=256)
    best = info.value.best
    assert best is not None
    truth = mp.log(mp.pi * mp.e / 2)
    assert abs(as_mpf(best.value) - truth) < mp.mpf(10) ** -3  # stalled, not wild


@pytest.mark.parametrize("cap, cause", [(64, "at term cap 64"), (2048, "out of reach")])
def test_non_convergence_message_shows_an_estimate_below_the_float_range(cap, cause):
    # partials 1 + n * 2^-1100 stop shrinking at 2^-1100 ~ 7.36e-332, which
    # a float flushes to 0; the message keeps its mantissa
    seq = SequenceGen(
        term_at=lambda n, p: nk.to_real(1 + Fraction(n, 1 << 1100), p), n0=0, kind=PARTIAL_SUMS
    )
    with pytest.raises(NonConvergenceError, match=cause) as info:
        estimate_limit(seq, RAW, 400, nk.bits_for_digits(400), max_terms_cap=cap)
    assert "error estimate 7.36e-332 above goal 10^-400" in str(info.value)


def test_estimate_limit_euler_refuses_one_signed_differences():
    # differences of the n-indexed partial sequence are one-signed, so the
    # alternating-terms adapter refuses them and no estimate is produced
    seq = product_log_seq("KT1")
    p = nk.bits_for_digits(32)
    with pytest.raises(NonConvergenceError) as info:
        estimate_limit(seq, EULER, 30, p, max_terms_cap=256)
    assert info.value.best is None


def test_euler_false_convergence_on_cluster_oscillating_differences():
    # Factor-at-a-time partial sums of the same product DO have alternating
    # differences, but they oscillate between two cluster values; the Euler
    # transform then settles on a value far from the product's limit while
    # its own error estimate reads small.  Pinned as a regression: this is
    # why empirical error estimates are never trusted alone.
    spec = pr.builtin("KT1")

    class FactorPartials:
        def __init__(self):
            self.partials = {}  # p -> [S_0, S_1, ...]

        def __call__(self, j, p):
            # log of the product of the first j factors (j factors, not the
            # paired truncation the product sequence uses)
            sums = self.partials.setdefault(p, [nk.to_real(0, p)])
            while len(sums) <= j:
                k = len(sums)
                term = nk.mul(
                    nk.ln_rational(spec.factor(k), p), nk.to_real(spec.exponent(k), p), p
                )
                acc = nk.add(sums[-1], term, p)
                sums.append(nk.add(acc, nk.to_real(spec.e_exponent(k), p), p))
            return sums[j]

    seq = SequenceGen(term_at=FactorPartials(), n0=1, kind=PARTIAL_SUMS)
    p = nk.bits_for_digits(32)
    with pytest.raises(NonConvergenceError) as info:
        estimate_limit(seq, EULER, 30, p, max_terms_cap=512)
    best = info.value.best
    truth = 7 * mp.zeta(3) / (4 * mp.pi**2) + mp.mpf(1) / 4
    realised = abs(as_mpf(best.value) - truth)
    assert realised > mp.mpf("0.1")  # far from the limit
    assert as_mpf(best.error_estimate) < realised  # and the estimate says otherwise


def test_method_consistency_euler_vs_wynn_on_alternating_harmonic():
    terms = SequenceGen(
        term_at=lambda k, p: nk.to_real(Fraction(1, k), p), n0=1, kind=ALTERNATING_TERMS
    )

    class Partials:
        def __init__(self):
            self.state = {}

        def __call__(self, n, p):
            k, acc = self.state.get(p, (0, nk.to_real(0, p)))
            while k < n:
                k += 1
                acc = nk.add(acc, nk.to_real(Fraction((-1) ** (k + 1), k), p), p)
            self.state[p] = (k, acc)
            return acc

    sums = SequenceGen(term_at=Partials(), n0=1, kind=PARTIAL_SUMS)
    p = nk.bits_for_digits(30, guard=10)
    a = euler_transform_sum(terms, p, 200)
    b = wynn_epsilon_limit(sums, p, 40)
    worse = max(as_mpf(a.error_estimate), as_mpf(b.error_estimate))
    digits = int(mp.floor(-mp.log10(worse))) if worse > 0 else 25
    assert abs(as_mpf(a.value) - as_mpf(b.value)) < mp.mpf(10) ** -min(digits, 25)


def _decay_ratios(name, points=(32, 64, 128)):
    spec = pr.builtin(name)
    session = pr.ProductEvalSession(spec)
    seq = SequenceGen(term_at=session.log_partial, n0=1, kind=PARTIAL_SUMS)
    p = nk.bits_for_digits(50)
    s_lim = estimate_limit(seq, RICHARDSON, 45, p).value
    out = []
    for n in points:
        lo = abs(as_mpf(session.log_partial(n, p)) - as_mpf(s_lim))
        hi = abs(as_mpf(session.log_partial(2 * n, p)) - as_mpf(s_lim))
        out.append(hi / lo)
    return out


@pytest.mark.parametrize("name", ["KT1", "MELZAK"])
def test_raw_decay_is_first_order_where_the_tail_has_a_1_over_n_term(name):
    # |s_2n - s| / |s_n - s| sits near 1/2 when the truncation error
    # carries a genuine c/n leading term
    for n, ratio in zip((32, 64, 128), _decay_ratios(name)):
        assert 0.4 <= ratio <= 0.6, f"{name} n={n}: ratio={mp.nstr(ratio, 6)}"


def test_raw_decay_is_second_order_for_the_odd_ratio_product():
    # The tail of the log partials here is built from k*ln((2k-1)/(2k+1)) =
    # -2k*atanh(1/(2k)), odd in 1/k, so consecutive-pair cancellation kills
    # the c/n term: the truncation error is ~1/(96 n^2) and the doubling
    # ratio sits at 1/4, not 1/2.  Pinned so nobody "fixes" an extrapolator
    # around the wrong decay model.
    for n, ratio in zip((32, 64, 128), _decay_ratios("KT3")):
        assert 0.2 <= ratio <= 0.3, f"KT3 n={n}: ratio={mp.nstr(ratio, 6)}"


def test_term_evaluation_is_deterministic():
    spec = pr.builtin("KT2")
    session = pr.ProductEvalSession(spec)
    a = session.log_partial(17, 200)
    b = session.log_partial(17, 200)
    c = pr.log_partial(spec, 17, 200)
    assert a.raw == b.raw == c.raw
