"""Tests for the arbitrary-precision substrate.

Reference values come from mpmath evaluated at a much higher working
precision than the function under test, or from exact Fraction arithmetic
where the quantity is rational.
"""

import gc
import math
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import isprime

from altprod import numkernel as nk

# -- strategies ------------------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**6
)
positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def mp_ref(fn, *args, dps=120):
    with mp.workdps(dps):
        return fn(*args)


def as_mpf(x: nk.Real):
    return mp.make_mpf(x.raw)  # exact: wraps the underlying binary value


# -- Real basics -----------------------------------------------------------


def test_real_is_immutable():
    x = nk.to_real(Fraction(1, 3), 64)
    with pytest.raises(AttributeError):
        x._bits = 128  # type: ignore[attr-defined]


def test_to_real_exact_for_dyadics():
    for q in (Fraction(3, 8), Fraction(-7, 16), Fraction(5), Fraction(0)):
        assert nk.to_real(q, 64).to_fraction() == q


@given(q=small_fractions, p=st.integers(min_value=16, max_value=300))
@settings(max_examples=60)
def test_to_real_rounding_bound(q, p):
    x = nk.to_real(q, p).to_fraction()
    if q == 0:
        assert x == 0
    else:
        assert abs(x - q) <= abs(q) * Fraction(2) ** (1 - p)


def test_operator_precision_is_max_of_operands():
    a = nk.to_real(Fraction(1, 3), 64)
    b = nk.to_real(Fraction(1, 5), 200)
    assert (a + b).precision_bits == 200
    assert (a * b).precision_bits == 200


def test_comparisons_are_exact():
    a = nk.to_real(Fraction(1, 3), 64)
    b = nk.to_real(Fraction(1, 3), 300)
    assert a != b  # different roundings of 1/3
    assert (a < b) or (a > b)
    assert nk.to_real(1, 64) == nk.to_real(1, 300)  # 1 is exact at both


def test_int_and_fraction_coercion():
    a = nk.to_real(Fraction(1, 4), 64)
    assert (a + 1).to_fraction() == Fraction(5, 4)
    assert (1 - a).to_fraction() == Fraction(3, 4)
    assert (a * Fraction(3, 2)).to_fraction() == Fraction(3, 8)
    assert (Fraction(1, 2) / a).to_fraction() == 2


def test_pow_int_matches_fraction_power():
    a = nk.to_real(Fraction(3, 2), 128)
    assert (a**5).to_fraction() == Fraction(3, 2) ** 5
    assert (a**-3).to_fraction() == pytest.approx(float(Fraction(2, 3) ** 3))


def test_at_rerounds():
    a = nk.to_real(Fraction(1, 3), 300)
    b = a.at(64)
    assert b.precision_bits == 64
    assert abs(b.to_fraction() - Fraction(1, 3)) <= Fraction(2) ** -63


# -- precision policy -------------------------------------------------------


def test_policy_for_digits_meets_bound():
    p = nk.bits_for_digits(40)
    assert p == math.ceil(40 * math.log2(10)) + 64
    assert nk.digits_for_bits(p) >= 40


@given(d=st.integers(min_value=1, max_value=500), g=st.integers(min_value=0, max_value=128))
@settings(max_examples=40)
def test_policy_bound_property(d, g):
    p = nk.bits_for_digits(d, guard=g)
    assert p == math.ceil(d * math.log2(10)) + g
    assert nk.digits_for_bits(p) >= d


# -- elementary operations vs high-precision references ----------------------


@given(q=positive_fractions)
@settings(max_examples=60)
def test_ln_rational_matches_reference(q):
    p = 220
    got = nk.ln_rational(q, p)
    ref = mp_ref(lambda: mp.log(mp.mpf(q.numerator) / q.denominator))
    err = abs(as_mpf(got) - ref)
    tol = mp.mpf(2) ** (nk.GUARD_BITS - p) * (abs(ref) + mp.mpf(2) ** -p)
    assert err <= tol


def test_ln_rational_exact_zero_at_one():
    assert nk.ln_rational(1, 128).is_zero()
    assert nk.ln_rational(Fraction(7, 7), 128).is_zero()


def test_ln_rational_domain():
    with pytest.raises(nk.DomainError):
        nk.ln_rational(0, 64)
    with pytest.raises(nk.DomainError):
        nk.ln_rational(Fraction(-3, 2), 64)


def test_ln_rational_survives_cancellation_near_one():
    # ln(1 + 10^-40): naive evaluation at 220 bits loses ~133 bits to
    # cancellation; the kernel must still deliver full relative accuracy.
    q = Fraction(10**40 + 1, 10**40)
    p = 220
    got = as_mpf(nk.ln_rational(q, p))
    ref = mp_ref(lambda: mp.log(mp.mpf(q.numerator)) - mp.log(mp.mpf(q.denominator)), dps=200)
    assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** (nk.GUARD_BITS - p)


def test_ln_rational_huge_arguments():
    q = Fraction(10**500, 3**100)
    got = as_mpf(nk.ln_rational(q, 160))
    ref = mp_ref(lambda: 500 * mp.log(10) - 100 * mp.log(3), dps=80)
    assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** (nk.GUARD_BITS - 160)


@given(q=positive_fractions)
@settings(max_examples=40)
def test_sqrt_exp_roundtrip(q):
    p = 200
    x = nk.to_real(q, p)
    s = nk.sqrt(x, p)
    back = nk.mul(s, s, p)
    assert abs(back.to_fraction() - q) <= abs(q) * Fraction(2) ** (4 - p)


def test_exp_ln_inverse():
    p = 200
    x = nk.to_real(Fraction(17, 5), p)
    y = nk.exp(nk.ln(x, p), p)
    assert abs(y.to_fraction() - Fraction(17, 5)) <= Fraction(17, 5) * Fraction(2) ** (4 - p)


def test_ln_domain():
    with pytest.raises(nk.DomainError):
        nk.ln(nk.to_real(-1, 64), 64)
    with pytest.raises(nk.DomainError):
        nk.sqrt(nk.to_real(-1, 64), 64)
    with pytest.raises(nk.DomainError):
        nk.powr(nk.to_real(-2, 64), nk.to_real(Fraction(1, 2), 64), 64)


def test_powr_matches_reference():
    p = 200
    a = nk.to_real(Fraction(7, 3), p)
    b = nk.to_real(Fraction(-5, 11), p)
    got = as_mpf(nk.powr(a, b, p))
    ref = mp_ref(lambda: mp.power(mp.mpf(7) / 3, mp.mpf(-5) / 11))
    assert abs(got - ref) <= abs(ref) * mp.mpf(2) ** (nk.GUARD_BITS - p)


def test_ldexp_exact():
    a = nk.to_real(Fraction(3, 7), 128)
    assert nk.ldexp(a, 10).to_fraction() == a.to_fraction() * 1024
    assert nk.ldexp(a, -3).to_fraction() == a.to_fraction() / 8


# -- agreement metric --------------------------------------------------------


def test_agreement_identical_values_hit_sentinel():
    x = nk.to_real(Fraction(22, 7), 128)
    assert nk.agreement_digits(x, x) == nk.MAX_AGREEMENT
    z1 = nk.to_real(0, 64)
    z2 = nk.to_real(0, 300)
    assert nk.agreement_digits(z1, z2) == nk.MAX_AGREEMENT


@given(k=st.integers(min_value=1, max_value=60))
@settings(max_examples=30)
def test_agreement_counts_matching_digits(k):
    p = 400
    a = nk.to_real(1, p)
    b = nk.to_real(Fraction(10**k + 3, 10**k), p)  # 1 + 3*10^-k
    got = nk.agreement_digits(a, b)
    # rel = 3*10^-k / (1+3*10^-k): -log10 is k - log10(3) - eps, floor k-1
    assert got == k - 1


def test_agreement_exact_power_of_ten_boundary():
    p = 400
    a = nk.to_real(1, p)
    b = nk.to_real(Fraction(10**12 + 1, 10**12), p)
    # rel slightly below 10^-12 after dividing by max(|a|,|b|) > 1
    assert nk.agreement_digits(a, b) == 12


def test_agreement_can_go_negative():
    a = nk.to_real(1, 64)
    b = nk.to_real(-1, 64)
    # rel = 2 -> floor(-log10 2) = -1
    assert nk.agreement_digits(a, b) == -1


def test_agreement_is_symmetric():
    a = nk.to_real(Fraction(355, 113), 128)
    b = nk.to_real(Fraction(314159, 100000), 128)
    assert nk.agreement_digits(a, b) == nk.agreement_digits(b, a)
    assert nk.agreement_digits(a, b) == 6  # differ in the 7th significant digit


@given(q=small_fractions, k=st.integers(min_value=5, max_value=40))
@settings(max_examples=40)
def test_agreement_property_random_center(q, k):
    if q == 0:
        return
    p = 400
    a = nk.to_real(q, p)
    b = nk.to_real(q * (1 + Fraction(1, 10**k) / 3), p)
    got = nk.agreement_digits(a, b)
    assert k - 1 <= got <= k + 1


def reference_agreement(a, b):
    """agreement_digits from exact Fractions: the same 53-bit relative
    difference, then floor(-log10) by stepping through exact powers of ten."""
    if a.to_fraction() == b.to_fraction():
        return nk.MAX_AGREEMENT
    p = max(a.precision_bits, b.precision_bits) + 16
    diff = abs(nk.sub(a, b, p))
    denom = max(abs(a), abs(b))
    rel = nk.div(diff, denom, 53).to_fraction()
    d = 0  # find d with 10^-(d+1) < rel <= 10^-d
    while rel <= Fraction(1, 10 ** (d + 1)):
        d += 1
    while rel > Fraction(10) ** -d:
        d -= 1
    return d


@given(
    q=small_fractions,
    k=st.integers(min_value=0, max_value=130),
    shape=st.sampled_from(["near", "scaled", "zero", "free"]),
    r=small_fractions,
    pa=st.sampled_from([64, 128, 400]),
    pb=st.sampled_from([64, 128, 400]),
)
@settings(max_examples=300)
def test_agreement_matches_exact_reference(q, k, shape, r, pa, pb):
    if shape == "near":  # a relative gap of exactly +-10^-k before rounding
        other = q * (1 + Fraction(1 if r >= 0 else -1, 10**k))
    elif shape == "scaled":
        other = q * (1 + r / 10**k)
    elif shape == "zero":
        other = Fraction(0)
    else:
        other = r
    a, b = nk.to_real(q, pa), nk.to_real(other, pb)
    assert nk.agreement_digits(a, b) == reference_agreement(a, b)


# -- truncating decimal renderer ---------------------------------------------


def test_truncated_decimal_formats():
    p = 256
    assert nk.truncated_decimal(nk.to_real(Fraction(355, 113), p), 10) == "3.141592920"
    assert nk.truncated_decimal(nk.to_real(123456, p), 4) == "123400"
    assert nk.truncated_decimal(nk.to_real(Fraction(1234, 10**6), p), 3) == "0.00123"
    assert nk.truncated_decimal(nk.to_real(Fraction(-1, 7), p), 8) == "-0.14285714"
    assert nk.truncated_decimal(nk.to_real(0, p), 5) == "0.0000"
    assert nk.truncated_decimal(nk.to_real(1, p), 1) == "1"
    assert nk.truncated_decimal(nk.to_real(Fraction(999999, 1000), p), 3) == "999"


def test_truncated_decimal_never_rounds_up():
    # 2/3 = 0.6666...: every prefix ends in 6, never 7
    p = 512
    x = nk.to_real(Fraction(2, 3), p)
    for d in (1, 5, 20, 50):
        s = nk.truncated_decimal(x, d)
        assert set(s) <= {"0", ".", "6"}


@given(q=small_fractions, d=st.integers(min_value=1, max_value=30))
@settings(max_examples=60)
def test_truncated_decimal_is_exact_prefix(q, d):
    if q == 0:
        return
    x = nk.to_real(q, 400)
    s = nk.truncated_decimal(x, d)
    v = Fraction(s)
    exact = abs(x.to_fraction())
    approx = abs(v)
    # truncation: approx <= exact < approx + one unit in the last place
    assert approx <= exact
    # ulp = 10^(e - d + 1) where e is the decimal exponent of exact
    ulp = Fraction(10) ** (len(str(int(approx))) if approx >= 1 else 0)
    # cheap but sound bound: difference below 10x the leading-digit scale
    assert exact - approx < exact / Fraction(10) ** (d - 2) if d >= 2 else True


def test_truncated_decimal_rejects_zero_digits():
    with pytest.raises(nk.SpecError):
        nk.truncated_decimal(nk.to_real(1, 64), 0)


# -- purity under threads -----------------------------------------------------


def test_threaded_calls_match_sequential():
    qs = [Fraction(k**3 + 1, k + 1) for k in range(1, 40)]
    expect = [nk.ln_rational(q, 200).to_fraction() for q in qs]
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(lambda q: nk.ln_rational(q, 200).to_fraction(), qs))
    assert got == expect


# -- exact log sums over prime exponents -------------------------------------


def test_spf_sieve_holds_smallest_prime_factors():
    spf = nk._spf_sieve(3000)
    primes = [q for q in range(2, 3000) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    for x in range(2, 3000):
        assert spf[x] == next(q for q in primes if x % q == 0)


def test_sieve_grown_in_place_equals_the_sieve_built_at_once():
    table = nk.PrimeLogTable()
    for x in (255, 256, 1000, 40_000, 65_535):
        table.add({}, x, 1)
        assert len(table._spf) > x
    assert table._spf == nk._spf_sieve(1 << 16)


def test_prime_log_table_splits_integers_into_atoms():
    table = nk.PrimeLogTable()
    counts = {}
    table.add(counts, 360, 2)  # 2^3 3^2 5
    table.add(counts, 1, 5)
    table.add(counts, 65521, 1)  # the largest prime below the cap
    table.add(counts, 65534, 1)  # 2 * 7 * 31 * 151, split by the sieve
    assert counts == {2: 7, 3: 4, 5: 2, 7: 1, 31: 1, 151: 1, 65521: 1}

    def split(x):
        counts = {}
        table.add(counts, x, 1)
        return counts

    assert split(65537) == {65537: 1}  # prime past the sieve cap
    assert split(2 * 65537) == {2: 1, 65537: 1}  # split by trial division
    # past 2^32 with no prime below the cap: kept whole
    assert split(65537 * 65539) == {65537 * 65539: 1}


@given(x=st.integers(1, 1 << 40), m=st.integers(-3, 3).filter(bool))
@settings(max_examples=200, deadline=None)
def test_prime_log_table_counts_multiply_back(x, m):
    counts = {}
    nk.PrimeLogTable().add(counts, x, m)
    assert math.prod(q ** (c // m) for q, c in counts.items()) == x
    assert all(c % m == 0 for c in counts.values())
    assert all(isprime(q) for q in counts if q < 1 << 32)


atom_counts = st.dictionaries(
    st.one_of(st.integers(2, 70000), st.integers(2, 10**30)),
    st.integers(-(10**12), 10**12),
    max_size=12,
)


@given(vectors=st.lists(atom_counts, min_size=1, max_size=3),
       offset=small_fractions, p=st.sampled_from([53, 160, 600]))
@settings(max_examples=60, deadline=None)
def test_log_sum_is_the_exact_sum_rounded_once(vectors, offset, p):
    table = nk.PrimeLogTable()
    split = []
    for atoms in vectors:
        counts = {}
        for q, c in atoms.items():
            table.add(counts, q, c)
        split.append(counts)
    got = table.log_sum(p, split, offset)
    assert got.precision_bits == p
    with mp.workprec(p + 160):
        want = mp.fsum(c * mp.log(q) for atoms in vectors for q, c in atoms.items())
        want += mp.mpf(offset.numerator) / offset.denominator
        # below 2^-(p+32) before the one rounding, then half an ulp at p bits
        assert abs(as_mpf(got) - want) <= mp.mpf(2) ** -(p + 31) + abs(want) * mp.mpf(2) ** -p


def test_log_sum_bits_do_not_depend_on_earlier_requests():
    counts = {3: 10**9, 7: -(10**9), 65537: 5}
    fresh = {p: nk.PrimeLogTable().log_sum(p, [counts], Fraction(1, 3)).raw for p in (100, 164)}
    table = nk.PrimeLogTable()
    assert table.log_sum(164, [counts], Fraction(1, 3)).raw == fresh[164]
    assert table.log_sum(100, [counts], Fraction(1, 3)).raw == fresh[100]
    assert table.log_sum(100, [{}], 0).is_zero()


# -- atom logs from the fixed-point recurrence ---------------------------------

SIEVE_PRIMES = [q for q, s in enumerate(nk._spf_sieve(nk._SIEVE_CAP)) if q > 1 and s == q]


def _fixed_logs_at(table, bucket):
    # bound 0 puts a request at p bits into the bucket ceil((p + 32) / 64) * 64
    logs = table.fixed_logs(bucket - 32, 0)
    assert logs.bucket == bucket
    return logs


def _ln_rational_fixed(q, bucket):
    """The entry every atom log must equal: ln_rational(q, F) as man << (exp + F)."""
    _, man, exp, _ = nk.ln_rational(q, bucket).raw
    return man << (exp + bucket)


def _count_ln_rational(monkeypatch):
    calls = []
    real = nk.ln_rational

    def counted(q, p):
        calls.append(q)
        return real(q, p)

    monkeypatch.setattr(nk, "ln_rational", counted)
    return calls


@pytest.mark.parametrize("bucket", [64, 128, 256, 384, 512, 1024])
def test_every_sieve_prime_log_equals_ln_rational(monkeypatch, bucket):
    calls = _count_ln_rational(monkeypatch)
    logs = _fixed_logs_at(nk.PrimeLogTable(), bucket)
    got = {q: logs[q] for q in SIEVE_PRIMES}
    derived = len(calls)  # the anchors below 64, and any fallback
    monkeypatch.undo()
    assert got == {q: _ln_rational_fixed(q, bucket) for q in SIEVE_PRIMES}
    assert derived < 30  # the other 6,500 come from the recurrence


@given(
    primes=st.lists(st.sampled_from(SIEVE_PRIMES), min_size=1, max_size=6, unique=True),
    bucket=st.integers(1, 64).map(lambda j: 64 * j),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_atom_logs_do_not_depend_on_the_request_order(primes, bucket, order):
    table = nk.PrimeLogTable()
    table.add({}, 1000, 1)  # a sieve built before the logs, as a walk does
    logs = _fixed_logs_at(table, bucket)
    shuffled = list(primes)
    order.shuffle(shuffled)
    got = {q: logs[q] for q in shuffled}
    for q in primes:
        assert got[q] == _fixed_logs_at(nk.PrimeLogTable(), bucket)[q]
        assert got[q] == _ln_rational_fixed(q, bucket)


def test_a_wide_log_on_a_rounding_boundary_falls_back_to_ln_rational(monkeypatch):
    q, bucket = 101, 256
    want = _ln_rational_fixed(q, bucket)
    # want is ln q rounded to 256 bits, times 2^256, so 2^(t-1) <= ln q < 2^t
    # for t = bitlen(want) - 256; in units of 2^-(256 + 32) its ulp is
    # 2^(32 + t), and half of it above is the boundary to the next value up
    ulp = 1 << (32 + want.bit_length() - bucket)
    boundary = (want << 32) + ulp // 2
    assert nk._round_fixed(boundary, 0, bucket) is None
    # just clear of the boundary by the error bound plus 2^-16 ulp, it rounds
    margin = 7 + (ulp >> 16)
    assert nk._round_fixed(boundary - margin - 1, 7, bucket) == want
    assert nk._round_fixed(boundary - margin, 7, bucket) is None
    assert nk._round_fixed(boundary + margin + 1, 7, bucket) == want + (ulp >> 32)
    # a wide value whose binary exponent is ambiguous
    assert nk._round_fixed(1 << (bucket + 32 + 2), 1, bucket) is None

    logs = _fixed_logs_at(nk.PrimeLogTable(), bucket)
    logs._wide[q] = (boundary, 0)
    calls = _count_ln_rational(monkeypatch)
    assert logs[q] == want
    assert calls == [q]


def test_log_caches_hold_no_reference_back_to_their_table():
    # without a cycle, reference counting alone frees a table and its caches
    table = nk.PrimeLogTable()
    table.log_sum(200, [{3: 2, 101: -1, 65537: 1}])
    refs = [weakref.ref(table), weakref.ref(table.fixed_logs(200, 0))]
    gc.disable()
    try:
        del table
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
