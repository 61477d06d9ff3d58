"""Identity registry, verification engine, convergence tables, reports.

Each registry record pairs a left-hand side (an accelerated product limit or
a named limit function) with a right-hand side stated in the constant
expression language. `verify` evaluates both sides, counts agreeing digits,
re-runs everything 64 bits higher, and only then declares a pass, so a
lucky low-precision coincidence cannot slip through. `verify_all` runs the
whole registry (records may run concurrently; output order is registry
order), and `convergence_table` exposes raw truncation behavior next to the
accelerated limit.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Tuple

from . import eulerfuncs as ef
from . import exprlang as ex
from . import numkernel as nk
from . import products as pr
from . import zetagamma as zg
from .accel import EULER, METHODS, RAW, RICHARDSON, WYNN
from .numkernel import NonConvergenceError, Real, SpecError

DEFAULT_MAX_TERMS = 1000
DEFAULT_DIGITS = 30
_RECORD_KEYS = ("id", "description", "lhs", "rhs", "method", "anchor")
_REGISTRY_MESSAGES = (
    "registry line {lineno} is not 'key = value': {line!r}",
    "registry line {lineno}: unknown key {key!r}",
    "registry line {lineno}: duplicate key {key!r}",
)


@dataclass(frozen=True)
class IdentityRecord:
    """One verifiable identity: an evaluable LHS, an expression-text RHS,
    a per-record default method, and a short anchor label for listings."""

    id: str
    description: str
    lhs: str
    rhs: str
    method: str
    anchor: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification; `passed` requires the agreement to hold
    at the requested precision and again 64 bits higher."""

    id: str
    lhs_value: str
    rhs_value: str
    agreement_digits: int
    target_digits: int
    terms_used: int
    method: str
    elapsed_ms: int
    passed: bool
    reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id,
            "lhs": self.lhs_value,
            "rhs": self.rhs_value,
            "agreement_digits": self.agreement_digits,
            "target_digits": self.target_digits,
            "terms_used": self.terms_used,
            "method": self.method,
            "elapsed_ms": self.elapsed_ms,
            "pass": self.passed,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    partial: Real
    digits: int


# ---------------------------------------------------------------------------
# registry parsing and loading


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def parse_registry(text: str) -> Tuple[IdentityRecord, ...]:
    """Parse the key-value registry format: blank-line-separated records of
    `key = value` lines; '#' lines are comments; values may be quoted."""
    records = []
    for raw_block in ex.key_value_blocks(
        text, _RECORD_KEYS, _REGISTRY_MESSAGES, split_blocks=True
    ):
        block = {key: _strip_quotes(value) for key, value in raw_block.items()}
        missing = [k for k in ("id", "lhs", "rhs") if k not in block]
        if missing:
            raise SpecError(
                f"registry record is missing {', '.join(missing)}: {block!r}"
            )
        records.append(
            IdentityRecord(
                id=block["id"],
                description=block.get("description", ""),
                lhs=block["lhs"],
                rhs=block["rhs"],
                method=block.get("method", RICHARDSON),
                anchor=block.get("anchor", ""),
            )
        )
    return tuple(records)


def _lhs_rational(token: str, text: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"lhs {text!r}: {token!r} is not a rational number") from None


def _parse_lhs(text: str):
    parts = text.split()
    if not parts:
        raise SpecError("empty lhs")
    kind = parts[0]
    if kind == "product":
        if len(parts) == 2:
            return ("product", pr.builtin(parts[1]))
        if len(parts) == 3:
            return ("product", pr.builtin(parts[1], _lhs_rational(parts[2], text)))
        raise SpecError(f"lhs 'product' takes a name and optional parameter: {text!r}")
    if kind == "dfunc":
        if len(parts) != 3:
            raise SpecError(f"lhs 'dfunc' takes a route and a parameter: {text!r}")
        route = parts[1].upper()
        if route not in ef.D_ROUTES:
            raise SpecError(f"unknown dfunc route {parts[1]!r}")
        return ("dfunc", route, _lhs_rational(parts[2], text))
    if kind == "lerch":
        if len(parts) != 3:
            raise SpecError(f"lhs 'lerch' takes s and u: {text!r}")
        s, u = (_lhs_rational(tok, text) for tok in parts[1:])
        return ("lerch", ef.LerchDerivQuery(s, u))
    if kind == "csratio":
        if len(parts) != 1:
            raise SpecError(f"lhs 'csratio' takes no arguments: {text!r}")
        return ("csratio",)
    raise SpecError(f"unknown lhs form {kind!r}")


class Registry:
    """Validated records in file order, with compiled RHS trees."""

    def __init__(self, records: Tuple[IdentityRecord, ...]):
        self.records = tuple(records)
        self._by_id = {}
        self._rhs_trees = {}
        self._lhs_forms = {}
        for rec in self.records:
            if rec.id in self._by_id:
                raise SpecError(f"duplicate registry id {rec.id!r}")
            tree = ex.parse(rec.rhs)
            if isinstance(tree, ex.ParseDiagnostic):
                raise SpecError(
                    f"registry rhs for {rec.id!r} does not parse at byte "
                    f"{tree.byte_offset}: {tree.message}"
                )
            self._by_id[rec.id] = rec
            self._rhs_trees[rec.id] = tree
            self._lhs_forms[rec.id] = _parse_lhs(rec.lhs)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def ids(self):
        return tuple(rec.id for rec in self.records)

    def get(self, id: str) -> IdentityRecord:
        if id not in self._by_id:
            raise SpecError(f"unknown identity id {id!r}")
        return self._by_id[id]

    def rhs_tree(self, id: str) -> ex.ConstExpr:
        self.get(id)
        return self._rhs_trees[id]

    def lhs_form(self, id: str):
        self.get(id)
        return self._lhs_forms[id]


_default_registry: Optional[Registry] = None


def default_registry() -> Registry:
    global _default_registry
    if _default_registry is None:
        text = resources.files("altprod").joinpath("data/registry.txt").read_text()
        _default_registry = Registry(parse_registry(text))
    return _default_registry


def load_registry(path: Optional[str] = None) -> Registry:
    if path is None:
        return default_registry()
    with open(path, "r", encoding="utf-8") as fh:
        return Registry(parse_registry(fh.read()))


# ---------------------------------------------------------------------------
# verification


def _route_label(form) -> str:
    """The route a non-product LHS runs, which its report names."""
    if form[0] == "dfunc":
        return form[1]
    if form[0] == "lerch":
        return ef.HURWITZ_SPLIT
    return ef.BARNES_CLOSED  # csratio


def _eval_lhs(form, rec_method: str, p: int, target_digits: int,
              method: Optional[str], max_terms: Optional[int]):
    """Returns (value, terms_used, method_label)."""
    kind = form[0]
    if kind == "product":
        chosen = (method or rec_method).upper()
        if chosen not in METHODS:
            raise SpecError(f"unknown method {chosen!r} for a product record")
        cap = DEFAULT_MAX_TERMS if max_terms is None else max_terms
        est = pr.limit(form[1], p, target_digits, method=chosen, max_terms_cap=cap)
        return est.value, est.terms_used, est.method
    if kind == "dfunc":
        value = ef.D(form[2], form[1], p, target_digits)
    elif kind == "lerch":
        value = ef.phi_sderiv(form[1], p, target_digits)
    else:
        # csratio: exp(ln_barnesG(3/4) - ln_barnesG(1/4) - ln_gamma(1/4))
        w = p + 16
        acc = nk.sub(
            zg.ln_barnesG(Fraction(3, 4), w), zg.ln_barnesG(Fraction(1, 4), w), w
        )
        acc = nk.sub(acc, zg.ln_gamma(Fraction(1, 4), w), w)
        value = nk.exp(acc, w).at(p)
    return value, 0, _route_label(form)


def verify(
    id: str,
    target_digits: int = DEFAULT_DIGITS,
    *,
    method: Optional[str] = None,
    max_terms: Optional[int] = None,
    registry: Optional[Registry] = None,
) -> VerificationReport:
    """Verify one identity to target_digits; the pass bit additionally
    requires the agreement to survive a re-run 64 bits higher.

    ``method`` and ``max_terms`` override a product record's limit; on any
    other record they raise SpecError, since no route there would use them.
    """
    reg = default_registry() if registry is None else registry
    rec = reg.get(id)
    if target_digits < 1:
        raise SpecError("target_digits must be >= 1")
    if max_terms is not None and (not isinstance(max_terms, int) or max_terms < 2):
        raise SpecError(f"max_terms must be None or an integer >= 2, got {max_terms!r}")
    form = reg.lhs_form(id)
    if form[0] != "product" and (method is not None or max_terms is not None):
        raise SpecError(
            f"record {id!r} has no product LHS; method and max_terms apply to "
            "product records only"
        )
    rhs_tree = reg.rhs_tree(id)
    p = nk.bits_for_digits(target_digits)
    t0 = time.perf_counter()
    reason = None
    terms_used = 0
    method_label = (method or rec.method).upper() if form[0] == "product" else _route_label(form)
    lhs_txt = ""
    rhs_txt = ""
    agreement = 0
    passed = False
    try:
        lhs, terms_used, method_label = _eval_lhs(
            form, rec.method, p, target_digits, method, max_terms
        )
        rhs = ex.eval_expr(rhs_tree, p)
        # a bit-identical pair means "agrees to every digit the working
        # precision can resolve", so report that resolvable count
        agreement = min(nk.agreement_digits(lhs, rhs), nk.digits_for_bits(p))
        lhs_txt = nk.truncated_decimal(lhs, target_digits)
        rhs_txt = nk.truncated_decimal(rhs, target_digits)
        if agreement >= target_digits:
            # two-precision re-check: both sides again, 64 bits higher
            lhs2, _, _ = _eval_lhs(
                form, rec.method, p + 64, target_digits, method, max_terms
            )
            rhs2 = ex.eval_expr(rhs_tree, p + 64)
            again = nk.agreement_digits(lhs2, rhs2)
            if again >= target_digits:
                passed = True
            else:
                reason = (
                    f"agreement fell to {again} digits at the +64-bit re-check"
                )
        else:
            reason = f"agreement {agreement} digits is below target {target_digits}"
    except NonConvergenceError as err:
        best = getattr(err, "best", None)
        if best is not None and getattr(best, "value", None) is not None:
            lhs_txt = nk.truncated_decimal(best.value, target_digits)
            terms_used = best.terms_used
            try:
                rhs = ex.eval_expr(rhs_tree, p)
                rhs_txt = nk.truncated_decimal(rhs, target_digits)
                agreement = min(
                    nk.agreement_digits(best.value, rhs), nk.digits_for_bits(p)
                )
            except Exception:  # the reason below already explains the failure
                pass
        reason = str(err)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return VerificationReport(
        id=rec.id,
        lhs_value=lhs_txt,
        rhs_value=rhs_txt,
        agreement_digits=agreement,
        target_digits=target_digits,
        terms_used=terms_used,
        method=method_label,
        elapsed_ms=elapsed_ms,
        passed=passed,
        reason=reason,
    )


def verify_all(
    target_digits: int = DEFAULT_DIGITS,
    *,
    method: Optional[str] = None,
    max_terms: Optional[int] = None,
    registry: Optional[Registry] = None,
    workers: int = 4,
) -> list:
    """Verify every record; failures never abort the batch, and the result
    list is in registry order regardless of completion order.

    ``method`` and ``max_terms`` apply to the product records only; every
    other record runs its own route and reports that route's name.
    """
    reg = default_registry() if registry is None else registry
    ids = reg.ids()
    if not ids:
        return []

    def one(rec_id):
        product = reg.lhs_form(rec_id)[0] == "product"
        return verify(
            rec_id,
            target_digits,
            method=method if product else None,
            max_terms=max_terms if product else None,
            registry=reg,
        )

    if workers <= 1 or len(ids) == 1:
        return [one(i) for i in ids]
    with ThreadPoolExecutor(max_workers=min(workers, len(ids))) as pool:
        return list(pool.map(one, ids))


def reports_to_json(reports) -> str:
    """JSON text: an object for a single report, an array for a batch."""
    if isinstance(reports, VerificationReport):
        return json.dumps(reports.to_json_dict(), indent=2)
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


# ---------------------------------------------------------------------------
# convergence tables


def convergence_table(
    id: str,
    n_values,
    p: int,
    *,
    registry: Optional[Registry] = None,
) -> list:
    """Raw truncation rows (n, partial value, digits agreeing with the
    accelerated limit) for a record whose LHS is a product."""
    reg = default_registry() if registry is None else registry
    form = reg.lhs_form(id)
    if form[0] != "product":
        raise SpecError(f"record {id!r} has no product LHS; tables need one")
    if not n_values:
        raise SpecError("n_values must be non-empty")
    for n in n_values:
        if not isinstance(n, int) or n < 0:
            raise SpecError(f"table index must be a non-negative integer: {n!r}")
    spec = form[1]
    target = min(nk.digits_for_bits(p), 40)
    limit_est = pr.limit(spec, p, max(target, 10))
    session = pr.ProductEvalSession(spec)
    rows = []
    for n in sorted(n_values):
        partial = nk.exp(session.log_partial(n, p), p)
        digits = nk.agreement_digits(partial, limit_est.value)
        rows.append(ConvergenceRow(n=n, partial=partial, digits=digits))
    order = {row.n: row for row in rows}
    return [order[n] for n in n_values]
