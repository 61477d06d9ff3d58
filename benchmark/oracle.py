"""Independent mpmath oracle for the benchmark's outputs.

Closed forms come from mpmath's own constants (pi, e, euler, catalan,
zeta, glaisher, gamma); convergence-table partial products are summed here
from the products' definitions.  No altprod code runs in this module.

Strings are compared digit for digit: the program truncates toward zero, so
a D-digit string must equal the truncation of the true value.  The true
value is taken at D + 30 digits and both truncations of value*(1 -+ 1e-(D+15))
are accepted, which only matters when the value sits on a digit boundary.
"""

import hashlib
import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

CONSTANTS = {
    "PI": lambda: mp.pi,
    "E": lambda: mp.e,
    "EULER_GAMMA": lambda: mp.euler,
    "CATALAN": lambda: mp.catalan,
    "ZETA3": lambda: mpmath.zeta(3),
    "LN_GLAISHER": lambda: mpmath.log(mp.glaisher),
}


def _closed_form(rec_id: str):
    """Value of both sides of identity ``rec_id`` at the current precision."""
    pi, e, G, z3, A = mp.pi, mp.e, mp.catalan, mpmath.zeta(3), mp.glaisher
    third = mpf(1) / 6
    d_one = A**6 / (mpf(2) ** third * mpmath.sqrt(pi))
    d_half = (mpf(2) ** third * mpmath.sqrt(pi) * A**3 * mpmath.exp(G / pi)
              / mpmath.gamma(mpf(1) / 4))
    forms = {
        "KT1": lambda: mpmath.exp(7 * z3 / (4 * pi**2) + mpf(1) / 4),
        "KT2": lambda: mpmath.exp(7 * z3 / (4 * pi**2) - mpf(1) / 4),
        "KT3": lambda: mpmath.exp(2 * G / pi - mpf(1) / 2),
        "KT4": lambda: mpmath.exp(2 * G / pi + mpf(1) / 2),
        "MELZAK": lambda: pi * e / 2,
        "HOLCOMBE": lambda: pi,
        "GS53R": lambda: mpmath.exp(7 * z3 / pi**2),
        "GS55R": lambda: mpmath.exp(4 * G / pi),
        "ADAMCHIK_E_HALF": lambda: pi / 4 * mpmath.exp(mpf(1) / 2 + 7 * z3 / pi**2),
        "D1": lambda: d_one,
        "DHALF": lambda: d_half,
        "DGAMMA_ONE": lambda: d_one,
        "DGAMMA_HALF": lambda: d_half,
        "CS_RATIO": lambda: mpf(2) ** (mpf(-1) / 8) * pi ** (mpf(-1) / 4) * mpmath.exp(G / (2 * pi)),
        "LERCH_CUBE": lambda: 7 * z3 / (4 * pi**2),
        "LERCH_CATALAN": lambda: G / pi,
    }
    return forms[rec_id]()


# product spec names (as products.limit sees them) -> the identity they close
SPEC_RECORD = {
    "KT1": "KT1", "KT2": "KT2", "KT3": "KT3", "KT4": "KT4", "MELZAK": "MELZAK",
    "HOLCOMBE": "HOLCOMBE", "GS53R": "GS53R", "GS55R": "GS55R",
    "ADAMCHIK_E(1/2)": "ADAMCHIK_E_HALF", "BD_D(1/1)": "D1", "BD_D(1/2)": "DHALF",
}


def _alt(k: int) -> int:
    return -1 if k % 2 else 1


# Log partial products of the table records: (upper(n), log term at k given
# the log table L, log of the closing factor at n).  The definitions restate
# the product catalog so the oracle shares no code with the program.
TABLE_PRODUCTS = {
    "KT1": (lambda n: 2 * n + 1,
            lambda k, L: (k * (k + 1) // 2) * _alt(k) * (L(k) - L(k + 1)) - mpf(1) / 4,
            None),
    "KT3": (lambda n: 2 * n,
            lambda k, L: k * _alt(k) * (L(2 * k - 1) - L(2 * k + 1)),
            None),
    "MELZAK": (lambda n: 2 * n + 1,
               lambda k, L: -k * _alt(k) * (L(k + 2) - L(k)),
               None),
    "GS53R": (lambda n: 2 * n,
              lambda k, L: 4 * k * k * _alt(k) * L(k),
              lambda n, L: n * ((4 * n + 5) * L(2 * n + 2) - (12 * n + 9) * L(2 * n + 1))),
    "D1": (lambda n: 2 * n + 1,
           lambda k, L: -k * _alt(k) * (L(k + 1) - L(k)),
           None),
}


def to_fraction(raw) -> Fraction:
    man, exp = int(raw[0]), raw[1]
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


def _mp_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return to_fraction((man, exp))


def truncate(v: Fraction, digits: int) -> str:
    """``digits`` significant decimal digits of v, truncated toward zero."""
    if v == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    sign, v = ("-", -v) if v < 0 else ("", v)
    e = len(str(v.numerator)) - len(str(v.denominator))
    while Fraction(10) ** e > v:
        e -= 1
    while Fraction(10) ** (e + 1) <= v:
        e += 1
    s = str(math.floor(v * Fraction(10) ** (digits - 1 - e)))
    if e >= digits - 1:
        return sign + s + "0" * (e - digits + 1)
    if e >= 0:
        return sign + s[: e + 1] + "." + s[e + 1:]
    return sign + "0." + "0" * (-e - 1) + s


def matches(text: str, value, digits: int) -> bool:
    """Whether ``text`` is the D-digit truncation of the mpmath ``value``."""
    v = _mp_fraction(value)
    slack = Fraction(1, 10 ** (digits + 15))
    return text in (truncate(v * (1 - slack), digits), truncate(v * (1 + slack), digits))


class Oracle:
    """Checks outputs, counts failures, and collects digest lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest_lines = set()
        self._tables = {}

    def _fail(self, what: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, outputs: list, inputs: dict):
        for item in outputs:
            if "table" in item:
                self._check_row(item, inputs)
            elif "constant" in item:
                self._check_constant(item)
            else:
                self._check_report(item)

    def _check_report(self, r: dict):
        self.attempted += 1
        if "error" in r:
            return self._fail(f"{r['id']}: {r['error']}")
        d = r["digits"]
        self.digest_lines.add(f"verify {r['id']} {d} {r['lhs']} {r['rhs']}")
        if not r["passed"]:
            return self._fail(f"{r['id']}: did not pass: {r['reason']}")
        with mp.workdps(d + 30):
            truth = _closed_form(r["id"])
            for side in ("lhs", "rhs"):
                if not matches(r[side], truth, d):
                    return self._fail(f"{r['id']}: {side} {r[side]} disagrees with mpmath")

    def _check_constant(self, c: dict):
        self.attempted += 1
        if c["error"] is not None:
            return self._fail(f"{c['constant']}: {c['error']}")
        d = c["digits"]
        self.digest_lines.add(f"constant {c['constant']} {d} {c['text']}")
        with mp.workdps(d + 30):
            if not matches(c["text"], CONSTANTS[c["constant"]](), d):
                self._fail(f"{c['constant']}: {c['text'][:20]}... disagrees with mpmath")

    def _check_row(self, row: dict, inputs: dict):
        rec_id = row["table"]
        if "error" in row:
            self.attempted += len(inputs["n_values"][rec_id])
            for _ in inputs["n_values"][rec_id]:
                self._fail(f"table {rec_id}: {row['error']}")
            return
        self.attempted += 1
        n, digits = row["n"], inputs["digits"]
        partials = self._table_partials(rec_id, inputs["n_values"][rec_id])
        value = to_fraction(row["raw"])
        text = truncate(value, digits)
        self.digest_lines.add(f"table {rec_id} {n} {row['digits']} {text}")
        with mp.workdps(digits + 30):
            truth, limit = partials[n], _closed_form(rec_id)
            if not (matches(text, truth, digits) and matches(row["text"], truth, row["shown"])):
                return self._fail(f"table {rec_id} n={n}: partial disagrees with mpmath")
            mine = mpf(value.numerator) / value.denominator
            rel = -mpmath.log10(abs(mine - limit) / max(abs(mine), abs(limit)))
            if int(mpmath.floor(rel)) != row["digits"] and abs(rel - mpmath.nint(rel)) > 1e-9:
                self._fail(f"table {rec_id} n={n}: {row['digits']} digits, mpmath says {rel}")

    def _table_partials(self, rec_id: str, ns) -> dict:
        key = (rec_id, tuple(sorted(ns)))
        if key not in self._tables:
            self._tables[key] = table_partials(rec_id, ns)
        return self._tables[key]

    def digest(self) -> str:
        text = "\n".join(sorted(self.digest_lines)).encode()
        return hashlib.sha256(text).hexdigest()


def table_partials(rec_id: str, ns, dps: int = 80) -> dict:
    """n -> the n-th partial product of a table record, summed at ``dps``."""
    upper, term, bridge = TABLE_PRODUCTS[rec_id]
    logs = {1: mpf(0)}
    out = {}
    with mp.workdps(dps):
        def L(j):
            if j not in logs:
                logs[j] = mpmath.log(j)
            return logs[j]

        acc, k = mpf(0), 1
        for n in sorted(set(ns)):
            while k <= upper(n):
                acc += term(k, L)
                k += 1
            total = acc + (bridge(n, L) if bridge else 0)
            out[n] = +mpmath.exp(total)
    return out


def err_ratio_min(limit_returns) -> float:
    """Smallest log10(error_estimate / |value - truth|) over product limits;
    negative means the Richardson estimate under-reported the error."""
    worst = None
    for spec_name, p, value_raw, err_raw in limit_returns:
        with mp.workprec(p + 128):
            truth = _closed_form(SPEC_RECORD[spec_name])
            value = to_fraction(value_raw)
            realised = abs(mpf(value.numerator) / value.denominator - truth)
            if realised == 0:
                continue
            err = to_fraction(err_raw)
            est = mpf(err.numerator) / err.denominator if err else mpmath.ldexp(abs(truth), -p)
            ratio = float(mpmath.log10(est / realised))
        worst = ratio if worst is None else min(worst, ratio)
    return worst
