"""Checks for the constant-expression language.

Grammar shape (precedence, right-associative power, unary binding), exact
literal handling, diagnostics with offsets into the source, the
print/reparse round trip, and evaluation against independent mpmath
references for every right-hand-side text the identity registry uses.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altprod import exprlang as ex
from altprod import numkernel as nk
from altprod.exprlang import (
    Binary,
    Call,
    ConstExpr,
    ConstRef,
    ParseDiagnostic,
    RationalLit,
    Unary,
)
from altprod.numkernel import DomainError, OracleRangeError, SpecError

mp.mp.dps = 80


def as_mpf(x):
    return mp.make_mpf(x.raw)


def tree(text):
    e = ex.parse(text)
    assert isinstance(e, ConstExpr), e
    return e


def value(text, p=256):
    return as_mpf(ex.eval_expr(tree(text), p))


def diagnostic(text):
    d = ex.parse(text)
    assert isinstance(d, ParseDiagnostic), d
    return d


RHS_TEXTS = [
    "exp(7*zeta3/(4*pi^2) + 1/4)",
    "exp(7*zeta3/(4*pi^2) - 1/4)",
    "exp(2*catalan/pi - 1/2)",
    "exp(2*catalan/pi + 1/2)",
    "pi*e/2",
    "pi",
    "glaisher^6/(2^(1/6)*sqrt(pi))",
    "2^(1/6)*sqrt(pi)*glaisher^3*exp(catalan/pi)/gamma(1/4)",
    "(pi/4)*exp(1/2 + 7*zeta3/pi^2)",
    "2^(-1/8)*pi^(-1/4)*exp(catalan/(2*pi))",
    "7*zeta3/(4*pi^2)",
    "catalan/pi",
    "exp(7*zeta3/pi^2)",
    "exp(4*catalan/pi)",
]


# ---------------------------------------------------------------------------
# parsing and structure


def test_simple_arithmetic_evaluates():
    assert value("1+2^3") == 9
    assert abs(value("1/2/3") - mp.mpf(1) / 6) < mp.mpf(2) ** -250
    assert value("2^-3") == mp.mpf("0.125")


def test_power_is_right_associative():
    assert value("2^3^2") == 512
    left = tree("(2^3)^2")
    right = tree("2^3^2")
    assert left != right
    assert as_mpf(ex.eval_expr(left, 64)) == 64


def test_unary_minus_binds_looser_than_power():
    assert value("-2^2") == -4
    assert value("(-2)^2") == 4
    t = tree("-2^2")
    assert isinstance(t.root, Unary) and isinstance(t.root.operand, Binary)
    t2 = tree("(-2)^2")
    assert isinstance(t2.root, Binary) and isinstance(t2.root.left, Unary)


def test_expected_tree_shape_for_a_registry_rhs():
    t = tree("exp(2*catalan/pi - 1/2)").root
    assert isinstance(t, Call) and t.name == "exp" and len(t.args) == 1
    body = t.args[0]
    assert isinstance(body, Binary) and body.op == "sub"
    assert isinstance(body.left, Binary) and body.left.op == "div"
    assert isinstance(body.right, Binary) and body.right.op == "div"
    assert isinstance(body.right.left, RationalLit)
    assert body.right.left.value == 1


def test_decimal_literals_are_exact_fractions():
    t = tree("0.1").root
    assert isinstance(t, RationalLit) and t.value == Fraction(1, 10)
    assert tree("2.50").root.value == Fraction(5, 2)
    assert tree("007").root.value == 7


def test_names_are_case_insensitive():
    assert tree("PI") == tree("pi")
    assert tree("Exp(1)") == tree("exp(1)")
    assert tree("barnesg(2)") == tree("BARNESG(2)")
    assert isinstance(tree("EulerGamma").root, ConstRef)


def test_structural_equality_ignores_spacing_and_spans():
    assert tree("1 + 2") == tree("1+2")
    assert tree("hzeta(2, 1/2)") == tree("hzeta( 2 ,1/2 )")
    assert tree("1+2") != tree("2+1")


def test_parse_rejects_non_string_input():
    with pytest.raises(SpecError, match="string"):
        ex.parse(42)


# ---------------------------------------------------------------------------
# diagnostics


def test_implicit_multiplication_is_rejected():
    d = diagnostic("2pi")
    assert d.byte_offset == 1
    assert "pi" in d.message


def test_unknown_names_report_position_and_candidates():
    d = diagnostic("frob + 1")
    assert d.byte_offset == 0
    assert "unknown constant" in d.message
    assert "glaisher" in d.expected
    d = diagnostic("1 + foo(2)")
    assert d.byte_offset == 4
    assert "unknown function" in d.message
    assert "hzeta" in d.expected


def test_function_used_as_constant_and_vice_versa():
    d = diagnostic("exp + 1")
    assert "needs arguments" in d.message
    d = diagnostic("pi(2)")
    assert "takes no arguments" in d.message


def test_arity_mismatch_points_at_the_call():
    d = diagnostic("1 + hzeta(2)")
    assert d.byte_offset == 4
    assert d.expected == "2 argument(s)"
    d = diagnostic("exp(1, 2)")
    assert "got 2" in d.message


def test_syntax_error_positions():
    assert diagnostic("1+").byte_offset == 2
    assert diagnostic("").byte_offset == 0
    assert diagnostic("1+2)").byte_offset == 3
    assert diagnostic("(1+2").byte_offset == 4
    d = diagnostic("2$3")
    assert d.byte_offset == 1 and "'$'" in d.message
    assert diagnostic("1/ /2").byte_offset == 3


def test_every_registry_rhs_text_parses():
    for text in RHS_TEXTS:
        assert isinstance(ex.parse(text), ConstExpr), text


def test_unary_plus_is_dropped_from_the_tree():
    assert tree("+pi") == tree("pi")
    assert tree("2*+3") == tree("2*3")
    assert ex.print_expr(tree("-+pi")) == "-pi"


def test_product_field_variables_are_not_names_in_a_right_hand_side():
    assert isinstance(ex.parse("k"), ex.ParseDiagnostic)
    assert isinstance(ex.parse("2*n"), ex.ParseDiagnostic)


def test_compile_field_is_exact_and_folds_constants():
    expr, f = ex.compile_field("(2^3 - 1.5)*k/(k+1) + (-1)^k", "k")
    assert ex.print_expr(expr) == "(2^3 - 1.5)*k/(k + 1) + (-1)^k"
    for k in range(-3, 9):
        if k != -1:
            got = f(k)
            assert type(got) is Fraction
            assert got == Fraction(13, 2) * k / (k + 1) + (-1) ** k
    with pytest.raises(SpecError, match="division by zero"):
        f(-1)
    _, c = ex.compile_field("7/2", "n")
    assert c(5) == Fraction(7, 2)


def test_eval_expr_refuses_a_tree_with_a_variable():
    expr, _ = ex.compile_field("k + 1", "k")
    with pytest.raises(SpecError, match="variable 'k'"):
        ex.eval_expr(expr, 64)


# ---------------------------------------------------------------------------
# printer round trip


@pytest.mark.parametrize("text", RHS_TEXTS)
def test_print_reparse_is_identity_on_registry_texts(text):
    t = tree(text)
    printed = ex.print_expr(t)
    assert ex.parse(printed) == t
    # and printing is a fixed point from then on
    assert ex.print_expr(ex.parse(printed)) == printed


@pytest.mark.parametrize(
    "text",
    [
        "2^3^2",
        "(2^3)^2",
        "-2^2",
        "(-2)^2",
        "1 - (2 - 3)",
        "1 - 2 - 3",
        "2*(3/4)*5",
        "-(1+2)*3",
        "2^-3",
        "--4",
        "hzeta(2, 1/2) - -1",
        "0.125^2",
        "1/2/3",
    ],
)
def test_print_reparse_is_identity_on_tricky_shapes(text):
    t = tree(text)
    assert ex.parse(ex.print_expr(t)) == t


def test_printed_text_is_canonical():
    assert ex.print_expr(tree("1+2 ^ 3")) == "1 + 2^3"
    assert ex.print_expr(tree("-(1+2)*3")) == "-(1 + 2)*3"
    assert ex.print_expr(tree("BARNESG(0.5)")) == "barnesG(0.5)"
    assert ex.print_expr(tree("PI*E")) == "pi*e"


# ---------------------------------------------------------------------------
# evaluation


def test_gamma_reflection_product():
    got = value("gamma(1/4)*gamma(3/4)")
    assert abs(got - mp.pi * mp.sqrt(2)) < mp.mpf(10) ** -60


def test_half_circle_times_e():
    got = value("pi*e/2")
    assert abs(got - mp.pi * mp.e / 2) < mp.mpf(10) ** -60
    assert mp.nstr(got, 5) == "4.2699"


def test_zeta_two_identity_cancels():
    got = value("zeta(2) - pi^2/6", p=256)
    assert abs(got) < mp.mpf(2) ** -250


def test_constants_match_mpmath():
    refs = {
        "pi": mp.pi,
        "e": mp.e,
        "catalan": mp.catalan,
        "glaisher": mp.glaisher,
        "zeta3": mp.zeta(3),
        "eulergamma": mp.euler,
    }
    for name, ref in refs.items():
        assert abs(value(name) - ref) < mp.mpf(10) ** -60, name


def test_functions_match_mpmath():
    assert abs(value("hzeta(3, 1/4)") - mp.zeta(3, mp.mpf(1) / 4)) < mp.mpf(10) ** -55
    assert abs(value("zeta(1/2)") - mp.zeta(mp.mpf(1) / 2)) < mp.mpf(10) ** -55
    assert abs(value("barnesG(1/2)") - mp.barnesg(mp.mpf(1) / 2)) < mp.mpf(10) ** -55
    assert abs(value("lngamma(1/3)") - mp.loggamma(mp.mpf(1) / 3)) < mp.mpf(10) ** -55
    assert abs(value("ln(2)") - mp.log(2)) < mp.mpf(10) ** -60
    assert abs(value("sqrt(2)") - mp.sqrt(2)) < mp.mpf(10) ** -60


@pytest.mark.parametrize("text", RHS_TEXTS)
def test_registry_rhs_values_match_mpmath(text):
    z3 = mp.zeta(3)
    refs = {
        "exp(7*zeta3/(4*pi^2) + 1/4)": mp.exp(7 * z3 / (4 * mp.pi**2) + mp.mpf(1) / 4),
        "exp(7*zeta3/(4*pi^2) - 1/4)": mp.exp(7 * z3 / (4 * mp.pi**2) - mp.mpf(1) / 4),
        "exp(2*catalan/pi - 1/2)": mp.exp(2 * mp.catalan / mp.pi - mp.mpf(1) / 2),
        "exp(2*catalan/pi + 1/2)": mp.exp(2 * mp.catalan / mp.pi + mp.mpf(1) / 2),
        "pi*e/2": mp.pi * mp.e / 2,
        "pi": mp.pi,
        "glaisher^6/(2^(1/6)*sqrt(pi))": mp.glaisher**6 / (2 ** mp.mpf("1/6") * mp.sqrt(mp.pi)),
        "2^(1/6)*sqrt(pi)*glaisher^3*exp(catalan/pi)/gamma(1/4)": (
            2 ** mp.mpf("1/6") * mp.sqrt(mp.pi) * mp.glaisher**3
            * mp.exp(mp.catalan / mp.pi) / mp.gamma(mp.mpf(1) / 4)
        ),
        "(pi/4)*exp(1/2 + 7*zeta3/pi^2)": (mp.pi / 4) * mp.exp(mp.mpf(1) / 2 + 7 * z3 / mp.pi**2),
        "2^(-1/8)*pi^(-1/4)*exp(catalan/(2*pi))": (
            2 ** mp.mpf("-1/8") * mp.pi ** mp.mpf("-1/4") * mp.exp(mp.catalan / (2 * mp.pi))
        ),
        "7*zeta3/(4*pi^2)": 7 * z3 / (4 * mp.pi**2),
        "catalan/pi": mp.catalan / mp.pi,
        "exp(7*zeta3/pi^2)": mp.exp(7 * z3 / mp.pi**2),
        "exp(4*catalan/pi)": mp.exp(4 * mp.catalan / mp.pi),
    }
    got = value(text)
    assert abs(got - refs[text]) / abs(refs[text]) < mp.mpf(10) ** -55


def test_exact_dyadic_decimal_product():
    # 2.5 * 0.4 is 1, up to the rounding of the non-dyadic 0.4
    got = value("2.5*0.4", p=128)
    assert abs(got - 1) < mp.mpf(2) ** -120


def test_eval_requires_parsed_expression_and_sane_precision():
    with pytest.raises(SpecError, match="diagnostic"):
        ex.eval_expr(ex.parse("1+"), 64)
    with pytest.raises(SpecError, match="ConstExpr"):
        ex.eval_expr("1+1", 64)
    with pytest.raises(SpecError, match="precision"):
        ex.eval_expr(tree("1"), 8)


# ---------------------------------------------------------------------------
# evaluation errors carry source spans


def test_domain_errors_name_the_offending_span():
    with pytest.raises(DomainError, match=r"ln\(1-1\)' at bytes 4\.\.11"):
        ex.eval_expr(tree("2 + ln(1-1)"), 96)
    with pytest.raises(DomainError, match="division by zero"):
        ex.eval_expr(tree("1/(2-2)"), 96)
    with pytest.raises(DomainError, match="sqrt"):
        ex.eval_expr(tree("sqrt(2-3)"), 96)
    with pytest.raises(DomainError, match="pole"):
        ex.eval_expr(tree("zeta(1)"), 96)
    with pytest.raises(DomainError, match="positive base"):
        ex.eval_expr(tree("(0-2)^(1/2)"), 96)
    with pytest.raises(DomainError, match="bytes 0..12"):
        ex.eval_expr(tree("hzeta(2, -1)"), 96)


def test_overflow_is_a_range_error_not_infinity():
    with pytest.raises(OracleRangeError, match="barnesG"):
        ex.eval_expr(tree("barnesG(10^6)"), 96)
    with pytest.raises(OracleRangeError, match="exceeds the supported range"):
        ex.eval_expr(tree("exp(10^9)"), 96)
    with pytest.raises(OracleRangeError, match="exponent"):
        ex.eval_expr(tree("2^(10^30)"), 96)
    with pytest.raises(OracleRangeError, match="zeta order"):
        ex.eval_expr(tree("zeta(0-10^5)"), 96)


# ---------------------------------------------------------------------------
# properties


@settings(deadline=None, max_examples=80)
@given(
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
    op=st.sampled_from(["+", "-", "*", "/"]),
)
def test_integer_arithmetic_matches_exact_fractions(a, b, op):
    if op == "/" and b == 0:
        return
    text = f"({a}) {op} ({b})" if a < 0 or b < 0 else f"{a} {op} {b}"
    got = ex.eval_expr(tree(text), 128)
    table = {
        "+": Fraction(a) + b,
        "-": Fraction(a) - b,
        "*": Fraction(a) * b,
        "/": Fraction(a, b) if b else None,
    }
    want = mp.mpf(table[op].numerator) / table[op].denominator
    assert abs(as_mpf(got) - want) < mp.mpf(2) ** -120


@settings(deadline=None, max_examples=60)
@given(
    num=st.integers(0, 10**6),
    shift=st.integers(0, 5),
)
def test_decimal_literal_round_trip_property(num, shift):
    text = str(num) if shift == 0 else f"{num // 10**shift}.{str(num % 10**shift).zfill(shift)}"
    t = tree(text)
    assert ex.parse(ex.print_expr(t)) == t
    assert t.root.value == Fraction(num, 10**shift)


_FIELD_TEXTS = st.recursive(
    st.sampled_from(["k", "1", "2", "3", "7", "1.5"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        inner.map(lambda a: f"({a})^2"),
        inner.map(lambda a: f"({a})^(0-1)"),
        inner.map(lambda a: f"-{a}*(-1)^k"),
    ),
    max_leaves=8,
)


@settings(deadline=None, max_examples=120)
@given(text=_FIELD_TEXTS, k=st.integers(-6, 40))
def test_compiled_field_matches_the_constant_evaluator(text, k):
    # the exact compiler against the Real evaluator on the text with k spelled out
    try:
        want = ex.compile_field(text, "k")[1](k)
    except SpecError:  # division by zero, folded or at this k
        return
    assert type(want) is Fraction
    got = as_mpf(ex.eval_expr(tree(text.replace("k", f"({k})")), 256))
    ref = mp.mpf(want.numerator) / want.denominator
    assert abs(got - ref) <= mp.mpf(2) ** -180 * (1 + abs(ref))


_EXPONENT_TEXTS = st.sampled_from(
    ["k", "k/2", "k*3 - 7", "(k + 1)/(k - 2)", "k^2", "2*k/(k + 1)", "0", "5"]
)


def _outcome(fn, *args):
    try:
        v = fn(*args)
    except (SpecError, OracleRangeError) as err:
        return type(err), str(err)
    return Fraction(v)


def _exact_at(expr, k: int):
    exact = ex.compile_exact(expr)  # the value itself when k does not occur
    return exact(k) if callable(exact) else exact


def _reference_pow(base: str, exponent: str, k: int):
    # _exact_pow on the two sides, each compiled on its own
    def run():
        a = ex.compile_field(base, "k")[1](k)
        e = ex.compile_field(exponent, "k")[1](k)
        return ex._exact_pow(a.numerator if a.denominator == 1 else a, e)

    return _outcome(run)


@settings(deadline=None, max_examples=150)
@given(sign=st.sampled_from(["1", "(-1)"]), exponent=_EXPONENT_TEXTS, k=st.integers(-6, 40))
def test_sign_power_is_the_exact_power(sign, exponent, k):
    # (+-1)^<expr> compiles to a parity test
    text = f"{sign}^({exponent})"
    expr, field = ex.compile_field(text, "k")
    want = _reference_pow(sign, exponent, k)
    assert _outcome(_exact_at, expr, k) == want
    assert _outcome(field, k) == want


@settings(deadline=None, max_examples=150)
@given(
    base=st.sampled_from(["k", "k - 3", "(k + 1)/(k - 2)", "2*k^2 - 50", "k/4"]),
    power=st.sampled_from(["0", "1", "2", "3", "7", "(0-2)", "16777217"]),
    k=st.integers(-6, 40),
)
def test_constant_power_is_the_exact_power(base, power, k):
    # <expr>^<integer >= 0> is raised directly behind the exact-power cap;
    # a negative constant keeps _exact_pow, zero base included
    text = f"({base})^{power}"
    expr, field = ex.compile_field(text, "k")
    want = _reference_pow(base, power, k)
    assert _outcome(_exact_at, expr, k) == want
    assert _outcome(field, k) == want


def test_fast_powers_refuse_as_the_exact_power_does():
    # the three refusals the fast closures share with _exact_pow
    _, half = ex.compile_field("(-1)^(k/2)", "k")
    with pytest.raises(SpecError, match="exponent in \\^ must be an integer"):
        half(3)
    _, inverse = ex.compile_field("(k - 3)^(0-2)", "k")
    with pytest.raises(SpecError, match="division by zero"):
        inverse(3)
    _, huge = ex.compile_field("k^16777217", "k")
    with pytest.raises(OracleRangeError, match="exact power"):
        huge(2)
    assert huge(1) == 1 and huge(0) == 0


def _power_product(pairs) -> Fraction:
    out = Fraction(1)
    for v, m in pairs:
        out *= Fraction(v) ** m
    return out


def test_compile_powers_keeps_exponents_exact_and_builds_no_power():
    expr, exact = ex.compile_field("(2*n+2)^(4*n+5)/(2*n+1)^(12*n+9)", "n")
    pairs = ex.compile_powers(expr)
    assert pairs(3) == [(8, 17), (7, -45)]
    assert _power_product(pairs(3)) == exact(3)
    n = 10**7  # the exact power would have about 2^30 bits
    assert pairs(n) == [(2 * n + 2, 4 * n + 5), (2 * n + 1, -(12 * n + 9))]
    with pytest.raises(OracleRangeError, match="exact power"):
        exact(n)
    # sums and decimals are evaluated exactly, then split into numerator and denominator
    expr, exact = ex.compile_field("(n + 1/2)*3^n/1.5", "n")
    assert ex.compile_powers(expr)(2) == [(5, 1), (2, -1), (3, 2), (3, -1), (2, 1)]
    assert _power_product(ex.compile_powers(expr)(2)) == exact(2)


@settings(deadline=None, max_examples=120)
@given(text=_FIELD_TEXTS, k=st.integers(-6, 40))
def test_compiled_powers_multiply_to_the_exact_field(text, k):
    try:
        expr, exact = ex.compile_field(text, "k")
        want = exact(k)
    except SpecError:  # division by zero, folded or at this k
        return
    assert _power_product(ex.compile_powers(expr)(k)) == want
