"""A small closed expression language.

Every identity's right-hand side is stated as text in this language, so the
registry stays declarative and auditable. `parse` builds an immutable tree
(or returns a `ParseDiagnostic` instead of raising), `print_expr`
regenerates canonical text that reparses to a structurally identical tree,
and `eval_expr` delegates each special value to the dual-route constant
table and the zeta/gamma kernel. The vocabulary of a right-hand side is
closed: six named constants, eight functions, no variables.

The fields of a product spec are written in the same grammar, as exact
rational functions of one integer variable: `compile_field` binds that
variable, admits no other name, and compiles the tree once into a function
from an int to a `Fraction`; `compile_exact` gives the same function without
the `Fraction` wrapper, or the value itself when the tree does not use the
variable, and `compile_powers` gives the field's log form, its integer
powers as (integer, exponent) pairs.  The compiled form keeps integral
values as ints, tests the parity of the exponent of (+-1)^<expr>, and
raises an expression to a constant power directly.
"""

import dataclasses
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
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
# arguments past these bounds either overflow the magnitude cap anyway or
# cost unbounded time; refuse them up front with a range error
_BARNES_ARG_CAP = 8192
_ZETA_ORDER_CAP = 4000


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
    if abs(args[0].to_fraction()) > _ZETA_ORDER_CAP:
        raise OracleRangeError("zeta order exceeds the supported range")
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


def _sign_pow(a: int, f):
    """`a^f(x)` for a constant a = +-1: a parity test, with `_exact_pow`'s
    value (as an int) and its refusal of a non-integral exponent."""
    return lambda x: a if _integral(f(x)) & 1 else 1


def _const_pow(f, e: int):
    """`f(x)^e` for a constant integer e >= 0, with `_exact_pow`'s value and
    its size cap."""

    def power(x):
        a = f(x)
        _check_power_size(a, e)
        return a ** e

    return power


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
        if node.op == "pow" and b >= 0:
            return _const_pow(a, b)
        return lambda x: op(a(x), b)
    if not callable(a):
        if node.op == "pow" and a in (1, -1):
            return _sign_pow(a, b)
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


def compile_exact(expr: ConstExpr):
    """The bare compiled form of a tree from `compile_field`: its exact
    value when the tree does not use the variable, otherwise a function from
    the variable's value to the exact value, an int or a Fraction."""
    return _compile(expr.root)


def _integer_pairs(v, sign: int) -> list:
    if v.denominator == 1:
        return [(v.numerator, sign)]
    return [(v.numerator, sign), (v.denominator, -sign)]


def _compile_powers(node: Node, sign: int) -> Callable[[int], list]:
    # `sign` is the power the enclosing quotients raise this subtree to
    if isinstance(node, Binary) and node.op in ("mul", "div"):
        a = _compile_powers(node.left, sign)
        b = _compile_powers(node.right, sign if node.op == "mul" else -sign)
        return lambda x: a(x) + b(x)
    if isinstance(node, Binary) and node.op == "pow":
        a, e = _compile_powers(node.left, sign), _compile(node.right)

        def power(x):
            k = e(x) if callable(e) else e
            if k.denominator != 1:
                raise SpecError("exponent in ^ must be an integer")
            return [(v, m * k.numerator) for v, m in a(x)]

        return power
    f = _compile(node)
    if not callable(f):
        pairs = _integer_pairs(f, sign)
        return lambda x: pairs
    return lambda x: _integer_pairs(f(x), sign)


def compile_powers(expr: ConstExpr) -> Callable[[int], list]:
    """The log form of a tree from `compile_field`: a function from the
    variable's value to (integer, exponent) pairs whose product of powers is
    the field's value.

    Products, quotients and integer powers become pairs with exact integer
    exponents, so a power is never built; every other subtree is evaluated
    exactly and split into its numerator and denominator.  An integer may be
    zero or negative; the caller decides what that means.
    """
    return _compile_powers(expr.root, 1)


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
