"""A small closed expression language.

Every identity's right-hand side is stated as text in this language, so the
registry stays declarative and auditable. `parse` builds an immutable tree
(or returns a `ParseDiagnostic` instead of raising), `print_expr`
regenerates canonical text that reparses to a structurally identical tree,
and `eval_expr` delegates each special value to the dual-route constant
table and the zeta/gamma kernel. The vocabulary of a right-hand side is
closed: six named constants, eight functions, no variables.

The fields of a product spec are written in the same grammar, as exact
rational functions of one integer variable.  Each field has two compiled
forms.  `compile_field` binds the variable, admits no other name, and
compiles the tree once into a function from an int to a `Fraction`: the
exact scalar form, the reference that names a failing value.
`compile_column` is the column form: it maps a list of the variable's values
to the list of exact values with one list operation per tree node, which is
how a product walk evaluates thousands of factors at once; it tests the
parity of the exponent of (+-1)^<expr> and raises a column to a constant
power directly.  `compile_power_columns` is the column form of a field's
log form, its integer powers as (integers, exponent) pairs, so that a power
is never built.
"""

import dataclasses
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Dict, Iterator, Tuple, Union

from . import constants as cst
from . import numkernel as nk
from . import zetagamma as zg
from .numkernel import DomainError, OracleRangeError, Real, SpecError
from .zetagamma import HurwitzQuery

CONSTANT_NAMES = ("PI", "E", "CATALAN", "GLAISHER", "ZETA3", "EULERGAMMA")
FUNCTION_ARITY = {
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "gamma": 1,
    "lngamma": 1,
    "barnesg": 1,
    "zeta": 1,
    "hzeta": 2,
}
_PRINT_FN = {name: name for name in FUNCTION_ARITY}
_PRINT_FN["barnesg"] = "barnesG"
_PRINT_CONST = {name: name.lower() for name in CONSTANT_NAMES}

# values whose binary exponent passes this are a configuration error, not
# mathematics; refusing them keeps overflow explicit instead of saturating
_MAX_MAG_BITS = 1 << 27
# barnesG arguments past this bound either overflow the magnitude cap or
# cost unbounded time; refuse them up front with a range error
_BARNES_ARG_CAP = 8192


@dataclass(frozen=True)
class Span:
    """Half-open character range [start, end) into the source text."""

    start: int
    end: int


@dataclass(frozen=True)
class RationalLit:
    value: Fraction
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class ConstRef:
    name: str  # canonical upper-case id from CONSTANT_NAMES
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    """The integer variable a product field is written in (see compile_field)."""

    name: str
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str  # "neg"
    operand: "Node"
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "Node"
    right: "Node"
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    name: str  # canonical lower-case key from FUNCTION_ARITY
    args: Tuple["Node", ...]
    span: Span = field(compare=False, repr=False)


Node = Union[RationalLit, ConstRef, Var, Unary, Binary, Call]


@dataclass(frozen=True)
class ConstExpr:
    """A parsed expression; equality is structural (spans and source
    text are carried for error reporting but never compared)."""

    root: Node
    source: str = field(compare=False, repr=False)


@dataclass(frozen=True)
class ParseDiagnostic:
    """Why a text failed to parse; byte_offset points into the source."""

    byte_offset: int
    expected: str
    message: str


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "var" | one of "+-*/^(),", or "end"
    text: str
    pos: int  # character offset

    @property
    def end(self) -> int:
        return self.pos + len(self.text)


class _Diag(Exception):
    def __init__(self, pos: int, expected: str, message: str):
        super().__init__(message)
        self.pos = pos
        self.expected = expected
        self.message = message


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])"
)


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _lex(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise _Diag(
                i,
                "a number, a name, or one of + - * / ^ ( ) ,",
                f"unexpected character {text[i]!r}",
            )
        if m.lastgroup == "op":
            toks.append(_Token(m.group(), m.group(), i))
        else:
            toks.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    toks.append(_Token("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# parser (recursive descent mirroring the grammar)


def _describe(tok: _Token) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


def _parse_expr(toks, i):
    node, i = _parse_term(toks, i)
    while toks[i].kind in ("+", "-"):
        op = "add" if toks[i].kind == "+" else "sub"
        rhs, j = _parse_term(toks, i + 1)
        node = Binary(op, node, rhs, Span(node.span.start, rhs.span.end))
        i = j
    return node, i


def _parse_term(toks, i):
    node, i = _parse_unary(toks, i)
    while toks[i].kind in ("*", "/"):
        op = "mul" if toks[i].kind == "*" else "div"
        rhs, j = _parse_unary(toks, i + 1)
        node = Binary(op, node, rhs, Span(node.span.start, rhs.span.end))
        i = j
    return node, i


def _parse_unary(toks, i):
    if toks[i].kind == "-":
        inner, j = _parse_unary(toks, i + 1)
        return Unary("neg", inner, Span(toks[i].pos, inner.span.end)), j
    if toks[i].kind == "+":
        inner, j = _parse_unary(toks, i + 1)
        return dataclasses.replace(inner, span=Span(toks[i].pos, inner.span.end)), j
    return _parse_pow(toks, i)


def _parse_pow(toks, i):
    base, i = _parse_atom(toks, i)
    if toks[i].kind == "^":
        exponent, j = _parse_unary(toks, i + 1)
        return Binary(
            "pow", base, exponent, Span(base.span.start, exponent.span.end)
        ), j
    return base, i


def _parse_atom(toks, i):
    tok = toks[i]
    if tok.kind == "num":
        return RationalLit(Fraction(tok.text), Span(tok.pos, tok.end)), i + 1
    if tok.kind == "var":
        return Var(tok.text, Span(tok.pos, tok.end)), i + 1
    if tok.kind == "name":
        if toks[i + 1].kind == "(":
            return _parse_call(toks, i)
        lowered = tok.text.lower()
        upper = tok.text.upper()
        if upper in CONSTANT_NAMES:
            return ConstRef(upper, Span(tok.pos, tok.end)), i + 1
        if lowered in FUNCTION_ARITY:
            raise _Diag(
                tok.pos,
                "'(' with arguments",
                f"{tok.text!r} is a function and needs arguments",
            )
        raise _Diag(
            tok.pos,
            "one of pi, e, catalan, glaisher, zeta3, eulergamma",
            f"unknown constant {tok.text!r}",
        )
    if tok.kind == "(":
        node, i = _parse_expr(toks, i + 1)
        if toks[i].kind != ")":
            raise _Diag(
                toks[i].pos, "')'", f"expected ')', found {_describe(toks[i])}"
            )
        # widen the span to the parens so error fragments stay well formed
        node = dataclasses.replace(node, span=Span(tok.pos, toks[i].end))
        return node, i + 1
    raise _Diag(
        tok.pos,
        "a number, a name, '+', '-' or '('",
        f"expected a value, found {_describe(tok)}",
    )


def _parse_call(toks, i):
    name_tok = toks[i]
    lowered = name_tok.text.lower()
    if lowered not in FUNCTION_ARITY:
        if name_tok.text.upper() in CONSTANT_NAMES:
            raise _Diag(
                name_tok.pos,
                "a function name",
                f"{name_tok.text!r} is a constant and takes no arguments",
            )
        raise _Diag(
            name_tok.pos,
            "one of exp, ln, sqrt, gamma, lngamma, barnesG, zeta, hzeta",
            f"unknown function {name_tok.text!r}",
        )
    args = []
    i += 2  # past NAME and '('
    arg, i = _parse_expr(toks, i)
    args.append(arg)
    while toks[i].kind == ",":
        arg, i = _parse_expr(toks, i + 1)
        args.append(arg)
    if toks[i].kind != ")":
        raise _Diag(
            toks[i].pos, "',' or ')'", f"expected ',' or ')', found {_describe(toks[i])}"
        )
    close = toks[i]
    arity = FUNCTION_ARITY[lowered]
    if len(args) != arity:
        raise _Diag(
            name_tok.pos,
            f"{arity} argument(s)",
            f"{_PRINT_FN[lowered]} takes {arity} argument(s), got {len(args)}",
        )
    return Call(lowered, tuple(args), Span(name_tok.pos, close.end)), i + 1


def _parse_tokens(text: str, toks) -> ConstExpr:
    node, i = _parse_expr(toks, 0)
    if toks[i].kind != "end":
        raise _Diag(
            toks[i].pos,
            "an operator or end of input",
            f"unexpected {_describe(toks[i])} after a complete expression",
        )
    return ConstExpr(node, text)


def parse(text: str):
    """Parse source text; returns a ConstExpr, or a ParseDiagnostic on any
    syntax, name, or arity problem (never raises for those)."""
    if not isinstance(text, str):
        raise SpecError("expression source must be a string")
    try:
        return _parse_tokens(text, _lex(text))
    except _Diag as d:
        return ParseDiagnostic(_byte_offset(text, d.pos), d.expected, d.message)


# ---------------------------------------------------------------------------
# printer


def _print_number(v: Fraction) -> str:
    num, den = v.numerator, v.denominator
    if den == 1:
        return str(num)
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1 or num < 0:  # cannot arise from a lexed literal
        return f"({num}/{den})"
    k = max(twos, fives)
    scaled = num * 10**k // den
    s = str(scaled).rjust(k + 1, "0")
    return f"{s[:-k]}.{s[-k:]}"


def _level(n: Node) -> int:
    if isinstance(n, Binary):
        if n.op == "pow":
            return 4
        return 2 if n.op in ("mul", "div") else 1
    if isinstance(n, Unary):
        return 3
    return 5  # literals, constants, calls are atoms


def _print(n: Node) -> str:
    if isinstance(n, RationalLit):
        return _print_number(n.value)
    if isinstance(n, ConstRef):
        return _PRINT_CONST[n.name]
    if isinstance(n, Var):
        return n.name
    if isinstance(n, Call):
        return _PRINT_FN[n.name] + "(" + ", ".join(_print(a) for a in n.args) + ")"
    if isinstance(n, Unary):
        inner = _print(n.operand)
        if _level(n.operand) < 3:
            inner = f"({inner})"
        return "-" + inner
    if n.op == "pow":
        ls = _print(n.left)
        rs = _print(n.right)
        if _level(n.left) < 5:  # the base slot only admits an atom
            ls = f"({ls})"
        if _level(n.right) < 3:  # the exponent slot admits a unary
            rs = f"({rs})"
        return f"{ls}^{rs}"
    lvl = _level(n)
    ls = _print(n.left)
    rs = _print(n.right)
    if _level(n.left) < lvl:
        ls = f"({ls})"
    if _level(n.right) <= lvl:  # same-level right operand would regroup left
        rs = f"({rs})"
    sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[n.op]
    return f"{ls}{sym}{rs}"


def print_expr(expr) -> str:
    """Canonical text for a parsed tree; reparsing it reproduces the tree."""
    node = expr.root if isinstance(expr, ConstExpr) else expr
    return _print(node)


# ---------------------------------------------------------------------------
# evaluator


def _mag_bits(v: Real) -> int:
    sign, man, e, bc = v.raw
    return (e + bc) if man else 0


def _run(span: Span, source: str, fn):
    try:
        v = fn()
    except (DomainError, OracleRangeError, ZeroDivisionError) as err:
        if getattr(err, "_spanned", False):
            raise
        frag = source[span.start : span.end]
        b0 = _byte_offset(source, span.start)
        b1 = _byte_offset(source, span.end)
        kind = type(err) if isinstance(err, (DomainError, OracleRangeError)) else DomainError
        text = str(err) or "division by zero"
        wrapped = kind(f"{text} (in {frag!r} at bytes {b0}..{b1})")
        wrapped._spanned = True
        raise wrapped from err
    if abs(_mag_bits(v)) > _MAX_MAG_BITS:
        frag = source[span.start : span.end]
        b0 = _byte_offset(source, span.start)
        err = OracleRangeError(
            f"value of {frag!r} (at byte {b0}) exceeds the supported range"
        )
        err._spanned = True
        raise err
    return v


def _const_value(name: str, wp: int) -> Real:
    if name == "GLAISHER":
        return nk.exp(cst.constant("LN_GLAISHER", wp), wp)
    if name == "EULERGAMMA":
        return cst.constant("EULER_GAMMA", wp)
    return cst.constant(name, wp)


def _power(base: Real, exponent: Real, wp: int) -> Real:
    f = exponent.to_fraction()
    if f.denominator == 1:
        n = f.numerator
        if abs(n).bit_length() > 64:
            raise OracleRangeError("integer exponent too large to evaluate")
        return nk.pow_int(base, n, wp)
    return nk.powr(base, exponent, wp)


def _call_value(name: str, args, wp: int) -> Real:
    if name == "exp":
        return nk.exp(args[0], wp)
    if name == "ln":
        return nk.ln(args[0], wp)
    if name == "sqrt":
        return nk.sqrt(args[0], wp)
    if name == "gamma":
        return nk.exp(zg.ln_gamma(args[0], wp), wp)
    if name == "lngamma":
        return zg.ln_gamma(args[0], wp)
    if name == "barnesg":
        if args[0].to_fraction() > _BARNES_ARG_CAP:
            raise OracleRangeError("barnesG argument exceeds the supported range")
        return nk.exp(zg.ln_barnesG(args[0], wp), wp)
    if name == "zeta":
        return zg.zeta(args[0], wp)
    return zg.hurwitz_zeta(HurwitzQuery(args[0], args[1]), wp)


def _eval(node: Node, wp: int, source: str) -> Real:
    if isinstance(node, RationalLit):
        return nk.to_real(node.value, wp)
    if isinstance(node, ConstRef):
        return _run(node.span, source, lambda: _const_value(node.name, wp))
    if isinstance(node, Var):
        raise SpecError(f"variable {node.name!r} has no value in a constant expression")
    if isinstance(node, Unary):
        return -_eval(node.operand, wp, source)
    if isinstance(node, Binary):
        a = _eval(node.left, wp, source)
        b = _eval(node.right, wp, source)
        if node.op == "pow":
            return _run(node.span, source, lambda: _power(a, b, wp))
        op = {"add": nk.add, "sub": nk.sub, "mul": nk.mul, "div": nk.div}[node.op]
        return _run(node.span, source, lambda: op(a, b, wp))
    args = [_eval(a, wp, source) for a in node.args]
    return _run(node.span, source, lambda: _call_value(node.name, args, wp))


def eval_expr(expr: ConstExpr, p: int) -> Real:
    """Evaluate a parsed expression to p bits; domain and range errors name
    the offending subexpression and its source span."""
    if isinstance(expr, ParseDiagnostic):
        raise SpecError(f"cannot evaluate a parse diagnostic: {expr.message}")
    if not isinstance(expr, ConstExpr):
        raise SpecError("eval_expr needs the ConstExpr produced by parse()")
    if p < 16:
        raise SpecError("precision must be >= 16 bits")
    wp = p + 32
    return _eval(expr.root, wp, expr.source).at(p)


# ---------------------------------------------------------------------------
# exact compiler for product fields
#
# A compiled subtree is either its exact value, folded here because it does
# not use the variable, or a closure from the variable's value to a number.
# Integral values stay Python ints, off the much slower Fraction paths.

# exact powers past this many bits would take unbounded time to build
_MAX_EXACT_BITS = 1 << 24


def _exact_div(a, b):
    if not b:
        raise SpecError("division by zero in expression")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _integral(e) -> int:
    if type(e) is not int:
        if e.denominator != 1:
            raise SpecError("exponent in ^ must be an integer")
        e = e.numerator
    return e


def _check_power_size(a, e: int) -> None:
    # floor(log2) of the larger part; 0 for a = +-1, whose powers stay small
    log2_a = max(a.numerator.bit_length(), a.denominator.bit_length()) - 1
    if abs(e) * log2_a > _MAX_EXACT_BITS:
        raise OracleRangeError("exact power exceeds the supported range")


def _exact_pow(a, e):
    e = _integral(e)
    _check_power_size(a, e)
    if e >= 0:
        return a ** e
    if not a:
        raise SpecError("division by zero in expression")
    return Fraction(a) ** e


_EXACT_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _exact_div,
    "pow": _exact_pow,
}


def _compile(node: Node):
    if isinstance(node, RationalLit):
        v = node.value
        return v.numerator if v.denominator == 1 else v
    if isinstance(node, Var):
        return operator.index  # the variable's value itself
    if isinstance(node, Unary):
        f = _compile(node.operand)
        return (lambda x: -f(x)) if callable(f) else -f
    op = _EXACT_OPS[node.op]
    a, b = _compile(node.left), _compile(node.right)
    if not callable(b):
        if node.op == "pow" and b.denominator != 1:
            raise SpecError("exponent in ^ must be an integer")
        if not callable(a):
            v = op(a, b)
            return v.numerator if v.denominator == 1 else v
        return lambda x: op(a(x), b)
    if not callable(a):
        return lambda x: op(a, b(x))
    return lambda x: op(a(x), b(x))


def compile_field(text: str, var: str) -> Tuple[ConstExpr, Callable[[int], Fraction]]:
    """Parse `text` as an exact rational expression in the integer variable
    `var` and compile it once; returns the tree and a function from the
    variable's value to a Fraction.

    Any other name is refused, because constants and functions have no exact
    rational value.  Syntax errors raise SpecError naming the byte offset.
    """
    try:
        toks = _lex(text)
        for i, t in enumerate(toks):
            if t.kind == "name":
                if t.text != var:
                    raise SpecError(
                        f"unknown symbol {t.text!r} at byte {_byte_offset(text, t.pos)}; "
                        f"only {var!r} is available here"
                    )
                toks[i] = _Token("var", t.text, t.pos)
        expr = _parse_tokens(text, toks)
    except _Diag as d:
        raise SpecError(
            f"malformed expression at byte {_byte_offset(text, d.pos)}: {d.message}"
        ) from None
    f = _compile(expr.root)
    if not callable(f):
        value = Fraction(f)
        return expr, lambda x: value

    def run(x: int) -> Fraction:
        v = f(x)
        return v if type(v) is Fraction else Fraction(v)

    return expr, run


# ---------------------------------------------------------------------------
# column form of the exact compiler
#
# A column kernel maps a non-empty list of the variable's values to the list
# of the field's exact values, one operation per node for the whole list
# instead of one closure call per node and value.  Each element equals what
# `compile_field` gives for that value.  The kernel raises where
# `compile_field` raises on some element, with an error `compile_field`
# raises on one of those elements; which one is not promised, so a caller
# that must name the first failing value evaluates value by value.


def _all_ints(values) -> bool:
    return all(map(isinstance, values, repeat(int)))


def _column(f, xs):
    """A compiled subtree's column at xs: its list, or its constant."""
    return f(xs) if callable(f) else f


def _arith_column(op, a, b) -> list:
    # op on two columns, or on a column and a constant
    if type(a) is list:
        return list(map(op, a, b if type(b) is list else repeat(b)))
    return list(map(op, repeat(a), b))


def _div_column(a, b) -> list:
    """`_exact_div` over columns."""
    if type(b) is list:
        if 0 in b:
            raise SpecError("division by zero in expression")
        return list(map(_exact_div, a if type(a) is list else repeat(a), b))
    if not b:
        raise SpecError("division by zero in expression")
    if type(b) is int and _all_ints(a):
        return [x // b if not x % b else Fraction(x, b) for x in a]
    return [_exact_div(x, b) for x in a]


def _integral_column(es) -> list:
    """`_integral` over a column: the exponents as ints."""
    return es if _all_ints(es) else [_integral(e) for e in es]


def _pow_column(a, b) -> list:
    """`_exact_pow` over columns, with two fast forms: a constant power is
    raised directly behind one size check, and (+-1)^<column> is a parity
    test."""
    if type(b) is not list:
        e = _integral(b)
        if e < 0:
            return [_exact_pow(x, e) for x in a]
        if e:  # the cap holds for every element if for the largest
            if _all_ints(a):
                _check_power_size(max(max(a), -min(a)), e)
            else:
                for x in a:
                    _check_power_size(x, e)
        return [x ** e for x in a]
    if type(a) is list:
        return list(map(_exact_pow, a, b))
    if a in (1, -1):
        signs = (1, a)
        return [signs[e & 1] for e in _integral_column(b)]
    return [_exact_pow(a, e) for e in b]


_ARITH_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _compile_column(node: Node):
    if isinstance(node, RationalLit):
        return _compile(node)
    if isinstance(node, Var):
        return lambda xs: xs  # the variable's values themselves
    if isinstance(node, Unary):
        f = _compile_column(node.operand)
        return (lambda xs: list(map(operator.neg, f(xs)))) if callable(f) else -f
    a, b = _compile_column(node.left), _compile_column(node.right)
    if not (callable(a) or callable(b)):
        return _compile(node)  # folded exactly as the compiled form folds it
    if node.op == "pow":
        return lambda xs: _pow_column(_column(a, xs), _column(b, xs))
    if node.op == "div":
        return lambda xs: _div_column(_column(a, xs), _column(b, xs))
    op = _ARITH_OPS[node.op]
    return lambda xs: _arith_column(op, _column(a, xs), _column(b, xs))


def compile_column(expr: ConstExpr):
    """The column form of a tree from `compile_field`: its exact value when
    it does not use the variable, otherwise a function from a non-empty list
    of the variable's int values to the list of exact values, ints or
    Fractions, each equal to what `compile_field` gives for that value."""
    return _compile_column(expr.root)


def _scaled(m, k):
    # an exponent column or constant m times an exponent column or constant k
    if type(k) is list:
        return [m * e for e in k] if type(m) is int else list(map(operator.mul, m, k))
    return m * k if type(m) is int else [e * k for e in m]


def _compile_power_columns(node: Node, sign: int):
    # `sign` is the power the enclosing quotients raise this subtree to
    if isinstance(node, Binary) and node.op in ("mul", "div"):
        a = _compile_power_columns(node.left, sign)
        b = _compile_power_columns(node.right, sign if node.op == "mul" else -sign)
        return lambda xs: a(xs) + b(xs)
    if isinstance(node, Binary) and node.op == "pow":
        a, e = _compile_power_columns(node.left, sign), _compile_column(node.right)

        def power(xs):
            k = _column(e, xs)
            k = _integral_column(k) if type(k) is list else _integral(k)
            return [(v, _scaled(m, k)) for v, m in a(xs)]

        return power
    f = _compile_column(node)
    if not callable(f):
        pairs = [(f.numerator, sign)]
        if f.denominator != 1:
            pairs.append((f.denominator, -sign))
        return lambda xs: pairs

    def split(xs):
        vs = f(xs)
        if _all_ints(vs):
            return [(vs, sign)]
        return [([v.numerator for v in vs], sign), ([v.denominator for v in vs], -sign)]

    return split


def compile_power_columns(expr: ConstExpr) -> Callable[[list], list]:
    """The log form of a tree from `compile_field`, in column form: a
    function from a non-empty list of the variable's int values to
    (integers, exponent) pairs.  Each part is a list with one entry per
    value, or one int that holds for every value, and at the i-th value the
    pairs' i-th entries multiply, as powers, to the field's value there.

    Products, quotients and integer powers become pairs with exact integer
    exponents, so a power is never built; every other subtree is evaluated
    exactly and split into its numerator and denominator (an int's
    denominator enters as 1 where its column also holds Fractions).  The
    function raises only where `compile_field` raises on some value, with
    an error of `compile_column` on a subtree; since it builds no power and
    divides by nothing, it may return where `compile_field` raises, with an
    integer that is zero.  An integer may be zero or negative; the caller
    decides what that means."""
    return _compile_power_columns(expr.root, 1)


# ---------------------------------------------------------------------------
# `key = value` text


def key_value_blocks(
    text: str, keys, messages: Tuple[str, str, str], *, split_blocks: bool
) -> Iterator[Dict[str, str]]:
    """Read `key = value` lines into one dict per block.

    Lines are stripped, and '#' lines are comments.  With ``split_blocks``
    a blank line closes a non-empty block; otherwise the whole text is one
    block, yielded even when empty.  ``messages`` are the SpecError texts for
    a line without '=', an unknown key and a duplicate key in its block,
    formatted with ``lineno``, ``line`` and ``key``.
    """
    malformed, unknown, duplicate = messages
    block: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if split_blocks and block:
                yield block
                block = {}
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(malformed.format(lineno=lineno, line=line))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise SpecError(unknown.format(lineno=lineno, key=key))
        if key in block:
            raise SpecError(duplicate.format(lineno=lineno, key=key))
        block[key] = value.strip()
    if block or not split_blocks:
        yield block
