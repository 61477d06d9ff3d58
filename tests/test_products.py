"""Checks for the declarative product evaluator.

The exact-rational oracle (`partial_exact`) is the ground truth here: the
small partials are checked against hand-multiplied fractions, the log-space
evaluator is checked against the oracle, the bridge identities between
catalog entries are checked as exact rational identities, and only then are
accelerated limits compared against independently computed closed forms.
"""

import hashlib
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from bounded import cli_snippet, run_bounded
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from altprod import accel
from altprod import numkernel as nk
from altprod import products as pr
from altprod.accel import RAW
from altprod.numkernel import DomainError, NonConvergenceError, OracleRangeError, SpecError

mp.mp.dps = 80


def as_mpf(x):
    return mp.make_mpf(x.raw)


def mpq(f: Fraction):
    return mp.mpf(f.numerator) / mp.mpf(f.denominator)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_requires_mandatory_fields():
    with pytest.raises(SpecError, match="missing"):
        pr.parse_product_spec("name = x\nfactor = k/(k+1)\nexponent = k")
    with pytest.raises(SpecError, match="missing"):
        pr.parse_product_spec("name = x\nfactor = k/(k+1)\nupper = 2*n")


def test_parse_rejects_unknown_duplicate_and_malformed_fields():
    base = "name = x\nfactor = k/(k+1)\nexponent = k\nupper = 2*n"
    with pytest.raises(SpecError, match="unknown product field"):
        pr.parse_product_spec(base + "\ncolor = red")
    with pytest.raises(SpecError, match="duplicate"):
        pr.parse_product_spec(base + "\nfactor = k")
    with pytest.raises(SpecError, match="key = value"):
        pr.parse_product_spec("name x\nfactor = k\nexponent = k\nupper = n")


def test_parse_error_messages_name_the_field():
    base = "name = x\nfactor = k/(k+1)\nexponent = k\nupper = 2*n"
    cases = [
        (base + "\ncolor = red", "unknown product field 'color'"),
        (base + "\n\nfactor = k", "duplicate product field 'factor'"),
        ("# spec\nname x", "expected 'key = value', got 'name x'"),
        (base + "\nk_start = x", "k_start must be an integer, got 'x'"),
    ]
    for text, message in cases:
        with pytest.raises(SpecError) as info:
            pr.parse_product_spec(text)
        assert str(info.value) == message


def test_parse_rejects_bad_bridge_shape():
    base = "name = x\nfactor = k/(k+1)\nexponent = k\nupper = 2*n"
    with pytest.raises(SpecError, match="bridge"):
        pr.parse_product_spec(base + "\nbridge = 1 ; 2")


def test_grammar_rejects_variable_power_outside_bridge():
    base = "name = x\nexponent = k\nupper = 2*n"
    with pytest.raises(SpecError):
        pr.parse_product_spec(base + "\nfactor = k^k")
    with pytest.raises(SpecError):
        pr.parse_product_spec(base.replace("exponent = k", "exponent = k^k") + "\nfactor = k")


def test_grammar_rejects_alternation_outside_exponent():
    with pytest.raises(SpecError):
        pr.parse_product_spec(
            "name = x\nfactor = (-1)^k\nexponent = k\nupper = 2*n"
        )


def test_grammar_rejects_unknown_symbols():
    with pytest.raises(SpecError):
        pr.parse_product_spec("name = x\nfactor = j/(j+1)\nexponent = k\nupper = 2*n")
    with pytest.raises(SpecError, match="unreadable|malformed"):
        pr.parse_product_spec("name = x\nfactor = k$2\nexponent = k\nupper = 2*n")


def test_exponent_must_evaluate_to_integer():
    spec = pr.parse_product_spec(
        "name = halves\nfactor = k/(k+1)\nexponent = k/2\nupper = 2*n"
    )
    assert spec.exponent(2) == 1
    with pytest.raises(SpecError, match="integer"):
        spec.exponent(1)


def test_factor_must_stay_positive_and_the_error_names_the_index():
    spec = pr.parse_product_spec(
        "name = bad\nfactor = (k-3)/k\nexponent = k\nupper = 2*n"
    )
    with pytest.raises(DomainError, match="k=1"):
        pr.partial_exact(spec, 2)


def spec_with(**fields):
    base = {"name": "x", "factor": "k/(k+1)", "exponent": "k", "upper": "2*n"}
    base.update(fields)
    return pr.parse_product_spec("\n".join(f"{k} = {v}" for k, v in base.items()))


def test_bridge_base_must_stay_positive_in_both_forms():
    # the exact bridge and its split into powers refuse the same bases
    for base in ("1-2*n", "(1-2*n)^3*(n+1)", "(n-1)*(n+2)"):
        spec = spec_with(bridge=f"{base} ; 1 ; 0")
        for form in (lambda: spec.bridge(1), lambda: pr.log_partial(spec, 1, 64)):
            with pytest.raises(DomainError, match="bridge base at n=1"):
                form()
    spec = spec_with(bridge="2/(n-1) ; 1 ; 0")
    for form in (lambda: spec.bridge(1), lambda: pr.log_partial(spec, 1, 64)):
        with pytest.raises(SpecError, match="division by zero"):
            form()
    # an even power of a negative integer is positive
    spec = spec_with(bridge="(1-2*n)^2/(n+1) ; n ; 1/2")
    exact = pr.partial_exact(spec, 3)
    with mp.workprec(260):
        want = mp.log(mpq(exact.rational_part)) + mpq(exact.e_power)
        assert abs(as_mpf(pr.log_partial(spec, 3, 200)) - want) <= abs(want) * mp.mpf(2) ** -199


def test_syntax_error_names_the_field_and_byte_offset():
    with pytest.raises(SpecError, match=r"^factor: malformed expression at byte 1\b"):
        spec_with(factor="k$2")
    with pytest.raises(SpecError, match=r"^upper: malformed expression at byte 3\b"):
        spec_with(upper="2*n)")


def test_unary_plus_is_accepted():
    spec = spec_with(factor="+k/(+k+1)", exponent="+k*(-1)^+k")
    assert spec.factor(3) == Fraction(3, 4)
    assert spec.exponent(3) == -3


def test_decimal_literals_are_exact():
    a = spec_with(factor="1.5*k")
    b = spec_with(factor="3*k/2")
    for k in range(1, 9):
        assert a.factor(k) == b.factor(k) == Fraction(3 * k, 2)


@pytest.mark.parametrize("text", ["pi*k", "e", "exp(k)", "k*Catalan"])
def test_constants_and_functions_are_unknown_symbols(text):
    with pytest.raises(SpecError, match=r"^factor: unknown symbol"):
        spec_with(factor=text)


def test_constant_exponent_must_be_integral():
    with pytest.raises(SpecError, match="integer"):
        spec_with(factor="k^(1/2)")


def test_oversized_exact_power_is_refused_at_parse_time():
    with pytest.raises(OracleRangeError, match="^factor: exact power"):
        spec_with(factor="k*2^(10^9)")
    # powers of -1 stay one bit wide however large the index
    assert spec_with(exponent="k*(-1)^k").exponent(10**9 + 1) == -(10**9 + 1)


@pytest.mark.parametrize("upper", ["100-n", "5", "n*(n-3)", "(n-8)^2"])
def test_upper_must_increase_strictly(upper):
    with pytest.raises(SpecError, match="increase strictly"):
        spec_with(upper=upper)


# ---------------------------------------------------------------------------
# builtin catalog


def test_builtin_name_validation():
    assert set(pr.BUILTIN_NAMES) == {
        "KT1", "KT2", "KT3", "KT4", "MELZAK", "BD_D", "ADAMCHIK_E",
        "ADAMCHIK_P5", "GS53R", "GS55R", "HOLCOMBE",
    }
    with pytest.raises(SpecError, match="unknown product"):
        pr.builtin("NOPE")
    with pytest.raises(SpecError, match="takes no parameter"):
        pr.builtin("KT1", Fraction(1, 2))
    with pytest.raises(SpecError, match="needs a parameter"):
        pr.builtin("BD_D")


def test_parameterized_domain_limits():
    with pytest.raises(DomainError):
        pr.builtin("BD_D", -1)
    with pytest.raises(DomainError):
        pr.builtin("BD_D", Fraction(-3, 2))
    with pytest.raises(DomainError):
        pr.builtin("ADAMCHIK_E", 1)
    with pytest.raises(DomainError):
        pr.builtin("ADAMCHIK_P5", Fraction(-1, 2))
    # the first factor is dropped exactly when |2x| >= 1
    assert pr.builtin("ADAMCHIK_E", Fraction(1, 2)).k_start == 2
    assert pr.builtin("ADAMCHIK_E", Fraction(1, 4)).k_start == 1


def test_parameter_accepts_real_exactly():
    via_real = pr.builtin("BD_D", nk.to_real(Fraction(1, 2), 64))
    via_fraction = pr.builtin("BD_D", Fraction(1, 2))
    assert via_real.name == via_fraction.name == "BD_D(1/2)"
    assert pr.partial_exact(via_real, 5) == pr.partial_exact(via_fraction, 5)


def test_builtin_field_shapes():
    kt3 = pr.builtin("KT3")
    assert kt3.factor(1) == Fraction(1, 3)
    assert kt3.factor(2) == Fraction(3, 5)
    assert kt3.exponent(1) == -1
    assert kt3.exponent(2) == 2
    assert kt3.e_exponent(1) == 0
    assert kt3.upper_index(3) == 6
    assert kt3.bridge(3) is None

    hol = pr.builtin("HOLCOMBE")
    assert hol.k_start == 2
    assert hol.factor(2) == Fraction(3, 4)
    assert hol.exponent(3) == 9
    assert hol.e_exponent(5) == 1
    base, power, epower = hol.bridge(7)
    assert (base, power, epower) == (Fraction(1), 1, Fraction(3, 2))

    gs55 = pr.builtin("GS55R")
    base, power, epower = gs55.bridge(0)
    assert base == Fraction(7**3, 5**7)
    assert power == 1 and epower == 0


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_partial_examples():
    assert pr.partial_exact(pr.builtin("KT3"), 1) == pr.ExactPartial(
        Fraction(27, 25), Fraction(0)
    )
    assert pr.partial_exact(pr.builtin("KT2"), 1) == pr.ExactPartial(
        Fraction(16, 27), Fraction(1, 2)
    )
    assert pr.partial_exact(pr.builtin("MELZAK"), 1) == pr.ExactPartial(
        Fraction(125, 36), Fraction(0)
    )
    assert pr.partial_exact(pr.builtin("HOLCOMBE"), 2) == pr.ExactPartial(
        Fraction(81, 256), Fraction(5, 2)
    )


def test_exact_partial_edges():
    # truncation map with upper(0) < k_start: genuinely empty product
    assert pr.partial_exact(pr.builtin("KT2"), 0) == pr.ExactPartial(
        Fraction(1), Fraction(0)
    )
    # truncation map whose n=0 partial already holds one factor: (1/2)^(-1)
    # times the e-channel contribution, not an empty product
    assert pr.partial_exact(pr.builtin("KT1"), 0) == pr.ExactPartial(
        Fraction(2), Fraction(-1, 4)
    )
    with pytest.raises(SpecError):
        pr.partial_exact(pr.builtin("KT1"), -1)


def test_exact_partial_budget_guard(monkeypatch):
    monkeypatch.setattr(pr, "ORACLE_BITS_CAP", 5_000)
    with pytest.raises(OracleRangeError, match="integer budget"):
        pr.partial_exact(pr.builtin("GS53R"), 6)
    # the guard also covers the closing factor
    spec = pr.parse_product_spec(
        "name = bigbridge\nfactor = 2\nexponent = 0\nupper = n\nbridge = 3 ; 100000 ; 0"
    )
    with pytest.raises(OracleRangeError, match="integer budget"):
        pr.partial_exact(spec, 1)


def test_bridge_between_odd_ratio_products_is_exact():
    # the two odd-ratio entries differ by the single closing factor
    # (1 - 2/(4n+3))^(-(2n+1)), exactly, for every n
    kt3, kt4 = pr.builtin("KT3"), pr.builtin("KT4")
    for n in range(9):
        a = pr.partial_exact(kt3, n)
        b = pr.partial_exact(kt4, n)
        closing = Fraction(4 * n + 1, 4 * n + 3) ** -(2 * n + 1)
        assert b.rational_part == a.rational_part * closing
        assert b.e_power == a.e_power == 0


def test_bridge_between_consecutive_ratio_products_is_exact():
    # the quarter-e entries differ by e^(-n-1/4) ((2n+1)/(2n+2))^(-(n+1)(2n+1))
    kt1, kt2 = pr.builtin("KT1"), pr.builtin("KT2")
    for n in range(9):
        a = pr.partial_exact(kt1, n)
        b = pr.partial_exact(kt2, n)
        swing = Fraction(2 * n + 1, 2 * n + 2) ** (-(n + 1) * (2 * n + 1))
        assert a.rational_part == b.rational_part * swing
        assert a.e_power == b.e_power - n - Fraction(1, 4)


def test_fourth_power_decomposition_is_exact():
    # The fourth power of the quarter-e even partial splits into an explicit
    # swing factor, the even partial of the squared-ratio product at
    # parameter 1/2, and a telescoping tail product, exactly as rationals,
    # with the e-channel matching e^(2n) on the nose.
    kt2 = pr.builtin("KT2")
    mid = pr.builtin("ADAMCHIK_E", Fraction(1, 2))
    tail = pr.parse_product_spec(
        "name = telescoping-tail\nfactor = (k-1)/k\nexponent = (-1)^k\n"
        "k_start = 2\nupper = 2*n+1"
    )
    for n in range(1, 7):
        a = pr.partial_exact(kt2, n)
        lhs = a.rational_part**4
        assert a.e_power * 4 == 2 * n
        rhs = (
            2
            * Fraction(2 * n, 2 * n + 1) ** ((2 * n + 1) ** 2)
            * pr.partial_exact(mid, n).rational_part
            * pr.partial_exact(tail, n).rational_part
        )
        assert pr.partial_exact(mid, n).e_power == 0
        assert lhs == rhs


# ---------------------------------------------------------------------------
# log-space evaluation against the oracle


def test_log_partial_matches_ln_of_exact_rational():
    got = pr.log_partial(pr.builtin("KT3"), 1, 128)
    want = nk.ln_rational(Fraction(27, 25), 128)
    assert nk.agreement_digits(got, want) >= nk.digits_for_bits(128) - 4
    assert nk.truncated_decimal(got, 5).startswith("0.076961")


def test_log_partial_includes_e_channel_and_bridge():
    p = 160
    got = pr.log_partial(pr.builtin("HOLCOMBE"), 2, p)
    want = nk.add(
        nk.to_real(Fraction(5, 2), p),
        nk.mul(nk.ln_rational(Fraction(3, 4), p), nk.to_real(4, p), p),
        p,
    )
    assert nk.agreement_digits(got, want) >= nk.digits_for_bits(p) - 4


ORACLE_CASES = [
    ("KT1", None), ("KT2", None), ("KT3", None), ("KT4", None),
    ("MELZAK", None), ("GS53R", None), ("GS55R", None), ("HOLCOMBE", None),
    ("BD_D", Fraction(1)), ("ADAMCHIK_E", Fraction(1, 2)),
    ("ADAMCHIK_P5", Fraction(1, 4)),
]


@pytest.mark.parametrize("name,x", ORACLE_CASES, ids=lambda v: str(v))
def test_oracle_equivalence_small_partials(name, x):
    # exp(log partial) must match the exact rational times e^(e_power)
    # to working-digits - 8 for every catalog entry and n <= 8
    p = 192
    spec = pr.builtin(name, x)
    session = pr.ProductEvalSession(spec)
    need = int(p * mp.log(2, 10)) - 8
    with mp.workdps(140):
        for n in range(9):
            exact = pr.partial_exact(spec, n)
            want = mpq(exact.rational_part) * mp.exp(mpq(exact.e_power))
            got = mp.exp(as_mpf(session.log_partial(n, p)))
            rel = abs(got - want) / want
            digits = mp.inf if rel == 0 else -mp.log10(rel)
            assert digits >= need, f"n={n}: only {mp.nstr(digits, 5)} digits"


def test_incremental_session_matches_from_scratch_bit_for_bit():
    spec = pr.builtin("GS55R")
    session = pr.ProductEvalSession(spec)
    walked = [session.log_partial(n, 160) for n in range(13)]
    fresh = [pr.log_partial(spec, n, 160) for n in range(13)]
    assert [w.raw for w in walked] == [f.raw for f in fresh]


def test_session_restarts_when_the_truncation_map_goes_backward():
    spec = pr.builtin("KT2")
    session = pr.ProductEvalSession(spec)
    session.log_partial(8, 160)
    again = session.log_partial(2, 160)
    assert again.raw == pr.log_partial(spec, 2, 160).raw


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _prime_factors(x: int) -> set:
    out, q = set(), 2
    while q * q <= x:
        while x % q == 0:
            out.add(q)
            x //= q
        q += 1
    return out | ({x} if x > 1 else set())


def _distinct_atoms(spec, ns) -> set:
    # every prime of a factor's numerator or denominator, and of the bridge's
    # integers: the atoms, since every integer splits into primes
    atoms = set()
    for k in range(spec.k_start, spec.upper_index(max(ns)) + 1):
        f = spec.factor(k)
        atoms |= _prime_factors(f.numerator) | _prime_factors(f.denominator)
    for n in ns:
        br = spec.bridge_log(n)
        for v, _ in br[0] if br is not None else ():
            atoms |= _prime_factors(v)
    return atoms


@pytest.mark.parametrize("name", ["KT3", "GS53R"])
def test_one_limit_is_one_extrapolation_over_one_factor_walk(monkeypatch, name):
    spec = pr.builtin(name)
    rounds = _count_calls(monkeypatch, accel, "richardson_limit")
    factors = _count_calls(monkeypatch, pr.BridgedProductSpec, "factor_log")
    logs = _count_calls(monkeypatch, nk, "ln_rational")
    est = pr.limit(spec, nk.bits_for_digits(100), 100)
    assert len(rounds) == 1
    n0, J = 1, est.terms_used - 1
    assert len(factors) == spec.upper_index(n0 + J) - spec.k_start + 1
    assert 0 < len(logs) <= len(_distinct_atoms(spec, range(n0, n0 + J + 1)))


def test_raw_limit_walks_the_factors_once(monkeypatch):
    spec = pr.builtin("MELZAK")
    factors = _count_calls(monkeypatch, pr.BridgedProductSpec, "factor_log")
    logs = _count_calls(monkeypatch, nk, "ln_rational")
    with pytest.raises(NonConvergenceError):
        pr.limit(spec, nk.bits_for_digits(30), 30, method=RAW, max_terms_cap=512)
    assert len(factors) == spec.upper_index(512) - spec.k_start + 1
    assert 0 < len(logs) <= len(_distinct_atoms(spec, [512]))


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        sign, man, exp, bc = v.raw
        h.update(f"{sign},{int(man)},{exp},{bc};".encode())
    return h.hexdigest()[:16]


# SHA-256 prefixes of the raw log partials of the walk that summed one
# ln_rational per factor, pinned when the walk became an exponent vector
_TABLE_PINS = {
    ("KT1", None): "55f23ca69323246a",
    ("KT3", None): "994a870d7b76f858",
    ("MELZAK", None): "0ec2ff5aaaf38e47",
    ("GS53R", None): "d958cffa2b043133",
    ("BD_D", Fraction(1)): "b8b02b7227c3ca2e",
}
_SMALL_PINS = {
    ("KT1", None): "eeaee95690852c65",
    ("KT2", None): "7d36a20b6af1a46b",
    ("KT3", None): "a1d260764317b764",
    ("KT4", None): "efb144271b3eb8a6",
    ("MELZAK", None): "f772a8b0d90d1b93",
    ("GS53R", None): "0b78fcad5fb8501c",
    ("GS55R", None): "de7ac090106f1eab",
    ("HOLCOMBE", None): "40e2bd0302df414a",
    ("BD_D", Fraction(1)): "c7c30de685260366",
    ("ADAMCHIK_E", Fraction(1, 2)): "14daa0373389daee",
    ("ADAMCHIK_P5", Fraction(1, 4)): "be9e26a648bf6af4",
}


@pytest.mark.parametrize("name,x", list(_TABLE_PINS), ids=lambda v: str(v))
def test_table_walk_log_partials_are_pinned_bit_for_bit(name, x):
    session = pr.ProductEvalSession(pr.builtin(name, x))
    p = nk.bits_for_digits(30)
    values = [session.log_partial(n, p) for n in (9, 99, 990, 9900)]
    assert _digest(values) == _TABLE_PINS[name, x]


@pytest.mark.parametrize("name,x", list(_SMALL_PINS), ids=lambda v: str(v))
def test_small_log_partials_are_pinned_bit_for_bit(name, x):
    session = pr.ProductEvalSession(pr.builtin(name, x))
    p = nk.bits_for_digits(100)
    values = [session.log_partial(n, p) for n in range(1, 131)]
    assert _digest(values) == _SMALL_PINS[name, x]


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(["BD_D", "ADAMCHIK_P5"]),
    a=st.integers(min_value=-7, max_value=30),
    b=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=0, max_value=40),
)
def test_exponent_vector_is_the_exact_partial(name, a, b, n):
    x = Fraction(a, b)
    assume(x > -1 if name == "BD_D" else 2 * x > -1)
    spec = pr.builtin(name, x)
    session = pr.ProductEvalSession(spec)
    p = 600
    got = session.log_partial(n, p)
    exact = pr.partial_exact(spec, n)
    counts = session._counts
    product = Fraction(1)
    for q, c in counts.items():
        product *= Fraction(q) ** c
    assert product == exact.rational_part
    with mp.workprec(p + 64):
        want = mp.log(mpq(exact.rational_part)) + mpq(exact.e_power)
        vector = mp.fsum(c * mp.log(q) for q, c in counts.items()) + mpq(exact.e_power)
        scale = max(1, abs(want))
        assert abs(vector - want) <= scale * mp.mpf(2) ** -(p + 32)
        assert abs(as_mpf(got) - want) <= scale * mp.mpf(2) ** (1 - p)


def _reference_counts(spec, ks) -> dict:
    # f(k)'s reduced numerator and denominator, split into atoms, times m_k
    logs, counts = nk.PrimeLogTable(), {}
    for k in ks:
        f, m = spec.factor(k), spec.exponent(k)
        logs.add(counts, f.numerator, m)
        logs.add(counts, f.denominator, -m)
    return {q: c for q, c in counts.items() if c}


def _negated_parts_spec():
    return pr.parse_product_spec(
        "name = negated\nfactor = (-k)/(-k-1)\nexponent = (k*(k+1)/2)*(-1)^k\n"
        "e_exponent = -1/4\nupper = 2*n+1"
    )


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(["BD_D", "ADAMCHIK_E", "ADAMCHIK_P5", "negated"]),
    a=st.integers(min_value=-7, max_value=30),
    b=st.integers(min_value=1, max_value=12),
    ns=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=4),
)
def test_walked_counts_are_the_split_of_the_reduced_factors(name, a, b, ns):
    # the walk over factor_log's pairs gives the atoms of f(k)'s reduced
    # numerator and denominator, on both sides of the sieve cap, forward
    # and backward, and the running dot product is the table's log_sum
    x = Fraction(a, b)
    if name == "negated":
        spec = _negated_parts_spec()
    else:
        assume({"BD_D": x > -1, "ADAMCHIK_E": abs(2 * x) < 2,
                "ADAMCHIK_P5": 2 * x > -1}[name])
        spec = pr.builtin(name, x)
    session = pr.ProductEvalSession(spec)
    p = 200
    for n in ns:
        got = session.log_partial(n, p)
        ks = range(spec.k_start, spec.upper_index(n) + 1)
        want = _reference_counts(spec, ks)
        assert {q: c for q, c in session._counts.items() if c} == want
        e_power = sum((spec.e_exponent(k) for k in ks), Fraction(0))
        assert got.raw == nk.PrimeLogTable().log_sum(p, [want], e_power).raw


def test_factor_log_takes_negated_parts_in_absolute_value():
    spec = _negated_parts_spec()
    assert spec.factor_log(5) == [(5, 1), (6, -1)]
    assert spec.factor(5) == Fraction(5, 6)
    kt1 = pr.builtin("KT1")
    for n in (0, 7, 40):
        assert pr.log_partial(spec, n, 160).raw == pr.log_partial(kt1, n, 160).raw


def test_factor_log_raises_what_the_factor_raises():
    zero = pr.parse_product_spec("name = z\nfactor = (k-3)/k\nexponent = k\nupper = 2*n")
    with pytest.raises(DomainError, match="k=3"):
        zero.factor_log(3)
    pole = pr.parse_product_spec("name = p\nfactor = k/(k-3)\nexponent = k\nupper = 2*n")
    with pytest.raises(SpecError, match="division by zero"):
        pole.factor_log(3)
    inner = pr.parse_product_spec(
        "name = i\nfactor = (1/(k-3) + 1)*k\nexponent = k\nupper = 2*n"
    )
    with pytest.raises(SpecError, match="division by zero"):
        inner.factor_log(3)
    negative = pr.parse_product_spec("name = m\nfactor = (k-5)/k\nexponent = k\nupper = 2*n")
    with pytest.raises(DomainError, match="k=2 is not positive"):
        negative.factor_log(2)


@settings(deadline=None, max_examples=25)
@given(
    name=st.sampled_from(["KT1", "KT3", "MELZAK", "GS53R", "HOLCOMBE", "evar"]),
    ns=st.lists(st.integers(min_value=0, max_value=400), min_size=2, max_size=6),
    boundary=st.integers(min_value=3, max_value=6),
)
def test_a_session_crossing_a_bucket_returns_the_fresh_values(name, ns, boundary):
    if name == "evar":  # an e-exponent that depends on k, so it is walked
        spec = pr.parse_product_spec(
            "name = evar\nfactor = (k+1)/k\nexponent = k*(-1)^k\n"
            "e_exponent = 1/(k+1)\nupper = 2*n"
        )
    else:
        spec = pr.builtin(name)
    # the bounds the smallest and the largest request hand to fixed_logs
    probe = pr.ProductEvalSession(spec)
    bounds, fixed_logs = [], probe._logs.fixed_logs
    probe._logs.fixed_logs = lambda p, bound: bounds.append(bound) or fixed_logs(p, bound)
    for n in (min(ns), max(ns)):
        probe.log_partial(n, 64)
    lo_bits, hi_bits = (b.bit_length() for b in bounds)
    assume(hi_bits > lo_bits)
    # p + 32 + hi_bits = 64*boundary + 1: the largest request needs the next
    # fixed point up, the smallest one does not
    p = 64 * boundary + 1 - 32 - hi_bits
    session = pr.ProductEvalSession(spec)
    buckets = set()
    for n in ns:
        assert session.log_partial(n, p).raw == pr.log_partial(spec, n, p).raw
        buckets.add(session._fixed.bucket)
    assert buckets == {64 * boundary, 64 * boundary + 64}


@pytest.mark.parametrize("name", ["KT1", "GS53R", "HOLCOMBE"])
def test_session_bits_do_not_depend_on_the_request_order(name):
    spec = pr.builtin(name)
    p, ns = 200, [3, 17, 40, 41, 90]
    fresh = {(n, q): pr.log_partial(spec, n, q).raw for n in ns for q in (p, p + 64)}
    higher_first = pr.ProductEvalSession(spec)
    for n in ns:
        assert higher_first.log_partial(n, p + 64).raw == fresh[n, p + 64]
        assert higher_first.log_partial(n, p).raw == fresh[n, p]
    backward = pr.ProductEvalSession(spec)
    for n in reversed(ns):
        assert backward.log_partial(n, p).raw == fresh[n, p]
        assert backward.log_partial(n, p + 64).raw == fresh[n, p + 64]


# GS53R's bridge on a walk of one trivial factor: GS53R's own factors exhaust
# the oracle's integer budget long before n = 240000
_GS53R_BRIDGE_ONLY = """
    name = GS53R-bridge
    factor = 1
    exponent = 0
    k_start = 480000
    upper = 2*n
    bridge = (2*n+2)^(4*n+5)/(2*n+1)^(12*n+9) ; n ; 0
"""


def test_gs53r_bridge_log_past_the_exact_power_cap_matches_mpmath():
    # (2n+2)^(4n+5)/(2n+1)^(12n+9) at n = 240000 has about 2^26 bits, past
    # the exact-power cap; its log form never builds it
    n, p = 240_000, 256
    spec = pr.parse_product_spec(_GS53R_BRIDGE_ONLY)
    assert spec.bridge_log(n) == pr.builtin("GS53R").bridge_log(n)
    got = pr.log_partial(spec, n, p)
    with mp.workprec(p + 64):
        want = n * ((4 * n + 5) * mp.log(2 * n + 2) - (12 * n + 9) * mp.log(2 * n + 1))
        assert abs(as_mpf(got) - want) <= abs(want) * mp.mpf(2) ** (1 - p)


def test_partial_exact_refuses_gs53r_at_240000_before_multiplying():
    # the factor powers alone pass the budget at k = 162; adding up the whole
    # estimate first refuses at once instead of building ~48 Mbit rationals
    code = (
        "from altprod import products as pr\n"
        "try:\n"
        "    pr.partial_exact(pr.builtin('GS53R'), 240_000)\n"
        "except pr.OracleRangeError as err:\n"
        "    print(err)\n"
    )
    run = run_bounded(code, budget_s=30)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "GS53R: exact partial at n=240000 exceeds the integer budget"


def test_table_walks_past_the_sieve_cap_within_its_budget():
    # k runs to 80001, past 2^16, where trial division splits every integer
    run = run_bounded(cli_snippet("table", "KT1", "--n", "40000", "--digits", "20"), budget_s=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[1].split()[0] == "40000"


def test_gs53r_table_past_the_sieve_cap_keeps_its_row_and_memory():
    # k runs to 480000 and the bridge integers to 480002, all split into
    # primes by trial division; the child reports its own peak RSS in kB
    code = (
        "import resource, sys\n"
        "from altprod.cli import main\n"
        "code = main(['table', 'GS53R', '--n', '240000', '--digits', '20'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    run = run_bounded(code, budget_s=60)
    assert run.returncode == 0, run.stderr
    header, row, peak_kb = run.stdout.strip().split("\n")
    assert row.split() == ["240000", "2.34563040097", "5"]
    if sys.platform.startswith("linux"):  # ru_maxrss is in kB there
        assert int(peak_kb) < 120 * 1024


def test_partial_exact_still_refuses_the_bridge_past_the_exact_power_cap():
    with pytest.raises(OracleRangeError, match="exact power"):
        pr.builtin("GS53R").bridge(240_000)
    with pytest.raises(OracleRangeError, match="exact power"):
        pr.partial_exact(pr.parse_product_spec(_GS53R_BRIDGE_ONLY), 240_000)


def test_a_divergent_limit_stops_after_two_rounds(monkeypatch):
    # log partials grow like ln(n)/2: every doubling halves Richardson's
    # error estimate, far too slowly to reach 40 digits by the term cap
    spec = pr.parse_product_spec("name = div\nfactor = k+1\nexponent = (-1)^k\nupper = 2*n")
    rounds = _count_calls(monkeypatch, accel, "richardson_limit")
    with pytest.raises(NonConvergenceError, match="out of reach") as info:
        pr.limit(spec, 200, 40)
    assert len(rounds) <= 2
    assert info.value.best is not None
    assert info.value.best.terms_used <= 128


@settings(deadline=None, max_examples=60)
@given(
    a=st.integers(min_value=-3, max_value=8),
    b=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=0, max_value=3),
)
def test_parameterized_oracle_equivalence_property(a, b, n):
    x = Fraction(a, b)
    assume(x > -1)
    spec = pr.builtin("BD_D", x)
    exact = pr.partial_exact(spec, n)
    p = 160
    got = pr.log_partial(spec, n, p)
    with mp.workdps(100):
        want = mp.log(mpq(exact.rational_part)) + mpq(exact.e_power)
        scale = max(1, abs(want))
        assert abs(as_mpf(got) - want) / scale < mp.mpf(2) ** (16 - p)


# ---------------------------------------------------------------------------
# accelerated limits against independently computed closed forms


def limit_value(name, x=None, digits=42):
    spec = pr.builtin(name, x)
    est = pr.limit(spec, nk.bits_for_digits(digits + 2), digits)
    return as_mpf(est.value), est


def test_limit_error_estimate_is_honest_for_catalog_entries():
    value, est = limit_value("KT3")
    truth = mp.exp(2 * mp.catalan / mp.pi - mp.mpf(1) / 2)
    assert abs(value - truth) <= 4 * as_mpf(est.error_estimate) + mp.mpf(10) ** -41


LIMIT_CASES = [
    ("KT1", None, lambda: mp.exp(7 * mp.zeta(3) / (4 * mp.pi**2) + mp.mpf(1) / 4)),
    ("KT2", None, lambda: mp.exp(7 * mp.zeta(3) / (4 * mp.pi**2) - mp.mpf(1) / 4)),
    ("KT3", None, lambda: mp.exp(2 * mp.catalan / mp.pi - mp.mpf(1) / 2)),
    ("KT4", None, lambda: mp.exp(2 * mp.catalan / mp.pi + mp.mpf(1) / 2)),
    ("MELZAK", None, lambda: mp.pi * mp.e / 2),
    ("HOLCOMBE", None, lambda: mp.pi),
    ("GS53R", None, lambda: mp.exp(7 * mp.zeta(3) / mp.pi**2)),
    ("GS55R", None, lambda: mp.exp(4 * mp.catalan / mp.pi)),
    ("BD_D", Fraction(1), lambda: mp.glaisher**6 / (mp.root(2, 6) * mp.sqrt(mp.pi))),
    (
        "ADAMCHIK_E",
        Fraction(1, 2),
        lambda: mp.pi / 4 * mp.exp(mp.mpf(1) / 2 + 7 * mp.zeta(3) / mp.pi**2),
    ),
]


@pytest.mark.parametrize("name,x,ref", LIMIT_CASES, ids=lambda v: str(v) if not callable(v) else "")
def test_limits_match_closed_forms_to_40_digits(name, x, ref):
    value, est = limit_value(name, x)
    want = ref()
    assert abs(value - want) < abs(want) * mp.mpf(10) ** -40
    assert est.terms_used <= 1000


def test_limit_reflection_ratio_for_half_shifted_products():
    # ratio of the two half-shifted limits at +-1/4 has its own closed form
    plus, _ = limit_value("ADAMCHIK_P5", Fraction(1, 4))
    minus, _ = limit_value("ADAMCHIK_P5", Fraction(-1, 4))
    want = mp.exp(-mp.mpf(1) / 2 + 2 * mp.catalan / mp.pi)
    assert abs(plus / minus - want) < abs(want) * mp.mpf(10) ** -38


def test_limit_pair_relations():
    v1, _ = limit_value("KT1")
    v2, _ = limit_value("KT2")
    v3, _ = limit_value("KT3")
    v4, _ = limit_value("KT4")
    assert abs(v1 / v2 - mp.exp(mp.mpf(1) / 2)) < mp.mpf(10) ** -38
    assert abs(v4 / v3 - mp.e) < mp.mpf(10) ** -38


def test_limit_decimal_prefixes():
    spec = pr.builtin("KT3")
    est = pr.limit(spec, nk.bits_for_digits(44), 42)
    assert nk.truncated_decimal(est.value, 6).startswith("1.08667")
    spec = pr.builtin("KT2")
    est = pr.limit(spec, nk.bits_for_digits(44), 42)
    assert nk.truncated_decimal(est.value, 6).startswith("0.96381")
