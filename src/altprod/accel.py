"""Sequence-limit machinery.

The log partial products handled by this package converge with O(1/n)
error, far too slowly to read digits off directly.  This module turns such
sequences into accelerated limit estimates with empirical error estimates:

- ``alternating_sum``      for alternating series with decreasing terms:
  Cohen, Rodriguez Villegas and Zagier's Algorithm 1, a fixed-length sum
  with exact integer weights (about 2.54 bits per term),
- ``euler_transform_sum``  the binary-averaged Euler transform, which also
  sums series with growing terms in the Abel sense,
- ``wynn_epsilon_limit``   the epsilon algorithm on partial sums,
- ``richardson_limit``     polynomial extrapolation in 1/n, an exact dot
  product of the samples with closed-form Lagrange weights,
- ``estimate_limit``       a driver that doubles the term budget until an
  error target is met, or until the last doubling shows it out of reach.

Everything operates in log space by convention: callers hand in log partial
products, never the products themselves, so magnitudes stay O(1).

Error estimates are |last - previous| of the accelerated diagonal: an
empirical indicator, not a bound.  Callers that need certainty re-run at a
higher precision and compare (see the verification harness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import libmp

from . import numkernel as nk
from .numkernel import NonConvergenceError, Real, SpecError, to_real

__all__ = [
    "PARTIAL_SUMS",
    "ALTERNATING_TERMS",
    "RAW",
    "EULER",
    "WYNN",
    "RICHARDSON",
    "METHODS",
    "SequenceGen",
    "LimitEstimate",
    "alternating_sum",
    "euler_transform_sum",
    "wynn_epsilon_limit",
    "richardson_limit",
    "estimate_limit",
]

PARTIAL_SUMS = "PARTIAL_SUMS"
ALTERNATING_TERMS = "ALTERNATING_TERMS"

RAW = "RAW"
EULER = "EULER"
WYNN = "WYNN"
RICHARDSON = "RICHARDSON"
METHODS = (RAW, EULER, WYNN, RICHARDSON)


@dataclass(frozen=True)
class SequenceGen:
    """A lazily evaluated sequence.

    ``term_at(n, p)`` must be deterministic: the same (n, p) always yields
    the same Real.  ``kind`` says whether values are partial sums of the
    target or the magnitudes b_n of an alternating series sum (-1)^(n-n0) b_n.
    """

    term_at: Callable[[int, int], Real]
    n0: int
    kind: str

    def __post_init__(self):
        if self.kind not in (PARTIAL_SUMS, ALTERNATING_TERMS):
            raise SpecError(f"unknown sequence kind {self.kind!r}")
        if self.n0 < 0:
            raise SpecError("n0 must be >= 0")


@dataclass(frozen=True)
class LimitEstimate:
    """An accelerated limit: value, empirical error, cost, and method tag."""

    value: Real
    error_estimate: Real
    terms_used: int
    method: str

    def __post_init__(self):
        if self.error_estimate.sign() < 0:
            raise SpecError("error_estimate must be >= 0")
        if self.method not in METHODS:
            raise SpecError(f"unknown method {self.method!r}")


def _probe_scale_bits(seq: SequenceGen, count: int = 5) -> int:
    """Rough magnitude (bits) of the first few terms, for precision sizing."""
    worst = 0
    for n in range(seq.n0, seq.n0 + count):
        try:
            v = seq.term_at(n, 64)
        except Exception:
            break
        if not v.is_zero():
            _, _, e, bc = v.raw
            worst = max(worst, e + bc)
    return max(0, worst)


def _all_equal_shortcut(values, method: str, terms_used: int) -> Optional[LimitEstimate]:
    """Constant sequences short-circuit every method with error exactly 0."""
    first = values[0]
    if all(v.raw == first.raw for v in values[1:]):
        return LimitEstimate(
            value=first,
            error_estimate=nk.to_real(0, first.precision_bits),
            terms_used=terms_used,
            method=method,
        )
    return None


def _dyadic_scaled(num: int, den: int, e: int) -> Fraction:
    """num * 2^e / den, exactly."""
    return Fraction(num << e, den) if e >= 0 else Fraction(num, den << -e)


def _common_mantissas(values) -> tuple:
    """(mans, e) with values[i] = mans[i] * 2^e exactly: each value's
    mantissa scaled to the smallest exponent, so dot products stay exact."""
    raws = [x.raw for x in values]
    e = min((exp for _, man, exp, _ in raws if man), default=0)
    return [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in raws], e


# -- Euler transform -----------------------------------------------------------


def euler_transform_sum(terms: SequenceGen, p: int, max_terms: int) -> LimitEstimate:
    """Sum of sum_{k>=n0} (-1)^(k-n0) b_k by the binary-averaged Euler transform.

    Partial transforms are the averaged-diagonal values sum_{j<=m} D^j b /
    2^(j+1); iteration stops when two successive ones agree to the requested
    precision.  It costs O(m^2) adds for about one bit per term, so series
    with decreasing terms go through ``alternating_sum`` instead.  It stays
    as the ``EULER`` method of ``estimate_limit`` and for terms that grow,
    such as the Lerch series at s <= 0, whose Abel mean it evaluates where
    ``alternating_sum``'s hypothesis (a moment sequence) fails.
    """
    if terms.kind != ALTERNATING_TERMS:
        raise SpecError("euler_transform_sum needs an ALTERNATING_TERMS sequence")
    if max_terms < 2:
        raise SpecError("max_terms must be >= 2")
    wp = p + 48 + max_terms.bit_length() + _probe_scale_bits(terms)
    tol_bits = p + 2

    n0 = terms.n0
    # col[j] holds the level-j average ending at the newest partial sum
    col: list = []
    diag: list = []
    S = to_real(0, wp)
    sign = 1
    for m in range(max_terms):
        b = terms.term_at(n0 + m, wp)
        S = nk.add(S, b if sign > 0 else -b, wp)
        sign = -sign
        new_col = [S]
        for j in range(1, len(col) + 1):
            new_col.append(nk.ldexp(nk.add(col[j - 1], new_col[j - 1], wp), -1))
        col = new_col
        diag.append(col[-1])
        if m >= 1:
            err = abs(nk.sub(diag[-1], diag[-2], wp))
            scale = abs(diag[-1])
            tol = nk.ldexp(scale if scale > to_real(1, wp) else to_real(1, wp), -tol_bits)
            if err < tol:
                return LimitEstimate(
                    value=diag[-1].at(p),
                    error_estimate=err.at(p),
                    terms_used=n0 + m,
                    method=EULER,
                )
    best = LimitEstimate(
        value=diag[-1].at(p),
        error_estimate=abs(nk.sub(diag[-1], diag[-2], wp)).at(p),
        terms_used=n0 + max_terms - 1,
        method=EULER,
    )
    raise NonConvergenceError(
        f"Euler transform did not stabilize within {max_terms} terms", best=best
    )


# -- Cohen-Rodriguez Villegas-Zagier -------------------------------------------

# log2(3 + sqrt(8)): the bits each term of CRVZ's Algorithm 1 gains
_CRVZ_BITS_PER_TERM = math.log2(3 + math.sqrt(8))
_CRVZ_GUARD_BITS = 16


def _crvz_weights(n: int):
    """(d, [c_0 .. c_{n-1}]) of CRVZ's Algorithm 1, all exact integers.

    d = T_n(3) = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2 comes from t_{k+1} = 6 t_k -
    t_{k-1}; with b_0 = -1 and c_{-1} = -d, c_k = b_k - c_{k-1} and b_{k+1} =
    2 (k+n)(k-n) b_k / ((2k+1)(k+1)), the coefficients of T_n(1-2x), which
    stay integral.  sum (-1)^k a_k is then about sum c_k a_k / d.
    """
    t_prev, d = 3, 1  # T_{-1}(3) = T_1(3) = 3, T_0(3) = 1
    for _ in range(n):
        t_prev, d = d, 6 * d - t_prev
    b, c = -1, -d
    cs = []
    for k in range(n):
        c = b - c
        cs.append(c)
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
    return d, cs


def alternating_sum(terms: SequenceGen, p: int) -> LimitEstimate:
    """Sum of sum_{k>=n0} (-1)^(k-n0) b_k for decreasing b_k by Cohen,
    Rodriguez Villegas and Zagier, "Convergence acceleration of alternating
    series", Experimental Math. 9 (2000), Algorithm 1.

    For a moment sequence b_k = int x^k dmu(x) with mu >= 0 on [0, 1] the
    error of the n-term sum is below 2 |S| / (3+sqrt 8)^n, so n follows from
    p and every term is evaluated once.  Both the n-term sum and the sum over
    the first n - 1 terms are exact dot products of the integer weights with
    the terms' dyadic mantissas, rounded once; their difference is the error
    estimate.  Unless it falls below 2^-(p+2) * max(|S|, 1) the sum raises
    ``NonConvergenceError`` carrying the n-term value.  Terms that grow, where
    the hypothesis fails, make the two sums disagree: for b_k = x^k the error
    is T_n(1-2x) / ((1+x) T_n(3)), which for x >= 2 does not shrink and flips
    sign with n.
    """
    if terms.kind != ALTERNATING_TERMS:
        raise SpecError("alternating_sum needs an ALTERNATING_TERMS sequence")
    n = math.ceil((p + _CRVZ_GUARD_BITS) / _CRVZ_BITS_PER_TERM)
    # each weight c_k / d lies in (-1, 1): n rounded terms lose bitlen(n) bits
    wp = p + _CRVZ_GUARD_BITS + n.bit_length() + _probe_scale_bits(terms)
    mans, e = _common_mantissas(terms.term_at(terms.n0 + k, wp) for k in range(n))

    def dot(m: int) -> Fraction:
        d, cs = _crvz_weights(m)
        return _dyadic_scaled(sum(c * a for c, a in zip(cs, mans)), d, e)

    full = dot(n)
    err = abs(full - dot(n - 1))
    est = LimitEstimate(
        value=to_real(full, p),
        error_estimate=to_real(err, p),
        terms_used=terms.n0 + n - 1,
        method=EULER,
    )
    if err >= Fraction(max(abs(full), 1)) / 2 ** (p + 2):
        raise NonConvergenceError(
            f"alternating sum over {n} and {n - 1} terms disagree"
            f" by more than 2^-{p + 2}",
            best=est,
        )
    return est


# -- Wynn epsilon --------------------------------------------------------------


def wynn_epsilon_limit(seq: SequenceGen, p: int, max_terms: int) -> LimitEstimate:
    """Limit via the epsilon algorithm; estimates come from even columns.

    Near-zero denominators are skipped per the standard guard; if nothing
    survives, that is a non-convergence error.
    """
    if seq.kind != PARTIAL_SUMS:
        raise SpecError("wynn_epsilon_limit needs a PARTIAL_SUMS sequence")
    if max_terms < 3:
        raise SpecError("max_terms must be >= 3")
    wp = p + 48 + 2 * max_terms.bit_length() + _probe_scale_bits(seq)

    svals = [seq.term_at(seq.n0 + i, wp) for i in range(max_terms)]
    if short := _all_equal_shortcut(svals, WYNN, seq.n0 + max_terms - 1):
        return short

    tiny = nk.ldexp(to_real(1, wp), -(p - 8))
    prev: list = [to_real(0, wp)] * (len(svals) + 1)  # epsilon_{-1} column
    cur: list = list(svals)  # epsilon_0 column
    even_diags: list = [cur[-1]]
    col = 0
    while len(cur) >= 2:
        nxt = []
        ok = True
        for i in range(len(cur) - 1):
            d = nk.sub(cur[i + 1], cur[i], wp)
            if abs(d) < tiny:
                ok = False
                break
            nxt.append(nk.add(prev[i + 1], nk.div(to_real(1, wp), d, wp), wp))
        if not ok or not nxt:
            break
        prev, cur = cur, nxt
        col += 1
        if col % 2 == 0:
            even_diags.append(cur[-1])
    if len(even_diags) < 2:
        raise NonConvergenceError("epsilon table broke down immediately")
    # smallest last-step difference picks the released diagonal
    best_i, best_err = None, None
    for i in range(1, len(even_diags)):
        e = abs(nk.sub(even_diags[i], even_diags[i - 1], wp))
        if best_err is None or e < best_err:
            best_i, best_err = i, e
    return LimitEstimate(
        value=even_diags[best_i].at(p),
        error_estimate=best_err.at(p),
        terms_used=seq.n0 + max_terms - 1,
        method=WYNN,
    )


# -- Richardson / polynomial extrapolation --------------------------------------


def _lagrange_weights(n0: int, m: int) -> list:
    """Integer numerators of the Lagrange weights at 0 through the nodes
    1/n0 .. 1/(n0+m); their common denominator is m!.

    With n_i = n0 + i the weight prod_{j != i} x_j / (x_j - x_i) collapses to
    (-1)^(m-i) * C(m, i) * n_i^m / m!.
    """
    weights = []
    binom = 1
    for i in range(m + 1):
        w = binom * (n0 + i) ** m
        weights.append(w if (m - i) % 2 == 0 else -w)
        binom = binom * (m - i) // (i + 1)
    return weights


def _node_condition_bits(n0: int, count: int) -> int:
    """Bits of cancellation in extrapolating to 0 from nodes 1/n0 .. 1/(n0+count-1).

    log2 of the largest Lagrange weight at 0, rounded up from the exact
    integer weights, plus the bits of the weight count.
    """
    m = count - 1
    top = max(abs(w) for w in _lagrange_weights(n0, m))
    # 2^(bitlen(top) - bitlen(m!) + 1) exceeds top / m!, so this never undercounts
    weight_bits = top.bit_length() - math.factorial(m).bit_length() + 1
    return max(0, weight_bits + count.bit_length() + 4)


def richardson_limit(
    seq: SequenceGen, p: int, max_terms: int, order: int
) -> LimitEstimate:
    """Extrapolate s_n -> s assuming s_n = s + c1/n + c2/n^2 + ...

    The interpolating polynomial through (1/n, s_n) is evaluated at 0 as a dot
    product with the closed-form Lagrange weights, once through all J+1 nodes
    and once through the first J; their difference is the error estimate.
    Nodes are consecutive indices n0, n0+1, ...; the samples are taken at a
    working precision that the conditioning estimate boosts to pay for the
    extrapolation's cancellation, and both dot products are summed exactly
    over the samples' dyadic mantissas and rounded once.
    """
    if seq.kind != PARTIAL_SUMS:
        raise SpecError("richardson_limit needs a PARTIAL_SUMS sequence")
    if order < 1:
        raise SpecError("order must be >= 1")
    J = min(order, max_terms - 1)
    if J < 1:
        raise SpecError("max_terms must allow at least two samples")
    n0 = seq.n0
    count = J + 1

    wp = p + _node_condition_bits(n0, count) + 32
    t = [seq.term_at(n0 + i, wp) for i in range(count)]
    if short := _all_equal_shortcut(t, RICHARDSON, n0 + J):
        return short

    mans, e = _common_mantissas(t)
    full = sum(w * a for w, a in zip(_lagrange_weights(n0, J), mans))
    lower = sum(w * a for w, a in zip(_lagrange_weights(n0, J - 1), mans))
    # the J-node value is lower / (J-1)! = J * lower / J!
    den = math.factorial(J)
    return LimitEstimate(
        value=to_real(_dyadic_scaled(full, den, e), p),
        error_estimate=to_real(_dyadic_scaled(abs(full - J * lower), den, e), p),
        terms_used=n0 + J,
        method=RICHARDSON,
    )


# -- driver ---------------------------------------------------------------------


def _raw_limit(seq: SequenceGen, p: int, max_terms: int) -> LimitEstimate:
    if max_terms < 2:
        raise SpecError("max_terms must be >= 2")
    wp = p + 16
    # ascending, so an incremental sequence walks forward once
    prev = seq.term_at(seq.n0 + max_terms - 2, wp)
    last = seq.term_at(seq.n0 + max_terms - 1, wp)
    return LimitEstimate(
        value=last.at(p),
        error_estimate=abs(nk.sub(last, prev, wp)).at(p),
        terms_used=seq.n0 + max_terms - 1,
        method=RAW,
    )


class _NotAlternating(NonConvergenceError):
    """The differences of partial sums break the alternation at an index
    below the budget, which every larger budget evaluates again."""


def _as_alternating(seq: SequenceGen, p: int):
    """Partial sums -> (base, sign, alternating |difference| generator).

    The limit is base + sign * sum of the alternating difference series.
    """
    s0 = seq.term_at(seq.n0, p)
    s1 = seq.term_at(seq.n0 + 1, p)
    first = nk.sub(s1, s0, p)
    sign = 1 if first.sign() >= 0 else -1

    def term_at(j: int, q: int) -> Real:
        a = seq.term_at(seq.n0 + j, q)
        b = seq.term_at(seq.n0 + j + 1, q)
        d = nk.sub(b, a, q)
        expect = sign if j % 2 == 0 else -sign
        if not d.is_zero() and d.sign() != expect:
            raise _NotAlternating(
                f"differences of partial sums are not alternating at index {j}"
            )
        return abs(d)

    gen = SequenceGen(term_at=term_at, n0=0, kind=ALTERNATING_TERMS)
    return s0, sign, gen


def _log2_ceil(x: Real) -> int:
    """An integer upper bound of log2(x) within one, for x > 0."""
    _, _, exp, bc = x.raw
    return exp + bc


def _within_reach(
    method: str, before: LimitEstimate, after: LimitEstimate, goal: Real, doublings: int
) -> bool:
    """Whether ``doublings`` more budget doublings can still meet ``goal``,
    judged from how much the last doubling shrank the best error estimate.

    No method goes on once a doubling fails to shrink it.  The accelerated
    methods' errors fall about geometrically in the term count, so each
    doubling gains about twice the bits of the one before; they stop when
    that projection misses the goal at the cap.  RAW is plain truncation and
    runs to the term count the caller asked for.
    """
    gained = _log2_ceil(before.error_estimate) - _log2_ceil(after.error_estimate)
    if gained <= 0:
        return False
    if method == RAW:
        return True
    projected = _log2_ceil(after.error_estimate) - gained * (2 ** (doublings + 1) - 2)
    return projected < _log2_ceil(goal)


# Richardson gains about 0.92 digits per node on the catalog products; the
# first budget is the smallest power of two that reaches the target at 0.9
_RICHARDSON_DIGITS_PER_NODE = 0.9


def _first_budget(method: str, target_digits: int) -> int:
    budget = 64
    if method == RICHARDSON:
        while (budget - 1) * _RICHARDSON_DIGITS_PER_NODE < target_digits:
            budget *= 2
    return budget


def estimate_limit(
    seq: SequenceGen,
    method: str,
    target_digits: int,
    p: int,
    max_terms_cap: int = 2048,
) -> LimitEstimate:
    """Run ``method`` with a doubling term budget until the empirical error
    drops below 10^-target_digits.

    Richardson starts at the budget its node rate predicts for the target;
    the other methods start at 64.  Doubling stops at the cap, as soon as
    the last doubling shows the goal out of reach (see ``_within_reach``),
    or when EULER's first round finds the differences of the partial sums
    not alternating; so a sequence that does not converge costs a bounded
    number of rounds.
    """
    if method not in METHODS:
        raise SpecError(f"unknown method {method!r}")
    if target_digits < 1:
        raise SpecError("target_digits must be >= 1")
    goal = to_real(Fraction(1, 10**target_digits), 64)
    best: Optional[LimitEstimate] = None
    cause = None

    budget = _first_budget(method, target_digits)
    first_round = True
    while True:
        budget = min(budget, max_terms_cap)
        try:
            if method == RAW:
                est = _raw_limit(seq, p, budget)
            elif method == EULER:
                if seq.kind == ALTERNATING_TERMS:
                    est = euler_transform_sum(seq, p, budget)
                else:
                    base, sign, gen = _as_alternating(seq, p + 16)
                    inner = euler_transform_sum(gen, p + 16, budget)
                    total = nk.add(
                        base,
                        inner.value if sign > 0 else -inner.value,
                        p + 16,
                    )
                    est = LimitEstimate(
                        value=total.at(p),
                        error_estimate=inner.error_estimate,
                        terms_used=seq.n0 + inner.terms_used + 1,
                        method=EULER,
                    )
            elif method == WYNN:
                est = wynn_epsilon_limit(seq, p, budget)
            else:
                est = richardson_limit(seq, p, budget, order=budget - 1)
        except NonConvergenceError as e:
            est = e.best if isinstance(e.best, LimitEstimate) else None
            cause = e
            # a refusal in the first round recurs in every later one; after a
            # round that got past it, a refusal says the signs moved with the
            # working precision, and the doubling goes on
            if isinstance(e, _NotAlternating) and first_round:
                break
        first_round = False
        before = best
        if est is not None and (best is None or est.error_estimate < best.error_estimate):
            best = est
        if best is not None and best.error_estimate < goal:
            return best
        if budget >= max_terms_cap:
            break
        # doublings left before the cap: 64 -> 2048 is five
        left = ((max_terms_cap - 1) // budget).bit_length()
        # a round without an estimate says nothing about the rate
        if est is not None and before is not None and not _within_reach(
            method, before, best, goal, left
        ):
            raise NonConvergenceError(
                f"error estimate {libmp.to_str(best.error_estimate.raw, 3)} above goal "
                f"10^-{target_digits}, out of reach of term cap {max_terms_cap} "
                f"at the rate doubling to {budget} terms shrank it",
                best=best,
            )
        budget *= 2
    if best is None:
        raise NonConvergenceError(f"{method} produced no estimate: {cause}")
    raise NonConvergenceError(
        f"error estimate {libmp.to_str(best.error_estimate.raw, 3)} above goal "
        f"10^-{target_digits} at term cap {max_terms_cap}",
        best=best,
    )
