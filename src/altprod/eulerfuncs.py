"""Named limit functions evaluated along independent routes.

`D` is the alternating-ratio product limit; it can be computed from the
product itself, from the parameterized-Euler-constant series at z = -1, or
from a Barnes-G closed form. Agreement between the routes is the
correctness argument, so each value comes from its own algorithm. They
share one kernel, ``numkernel.PrimeLogTable``: PRODUCT's log partials go
through it, and so do GAMMA_SERIES's value and directed check and the
zeta'(-1, x) heads of BARNES_CLOSED's Hurwitz form (see `D`). `E` is the
squared-ratio analogue.
`gamma_param` / `gamma_ab` are the two parameterized-Euler-constant families
(one is a reindexing of the other); both sum t - ln(1 + t), t = alpha/n or
1/(an + b), described by the integer pairs (num, den) of t alone.  At z = -1
one exact weighted sum over the terms gives both the CRVZ value and the
directed check, differing only in their weights.
`phi_sderiv` evaluates the s-derivative of the alternating Lerch series by
a Hurwitz split, whose zeta'(s, a) heads at integer s <= 0 go through the
table, with an Euler-summed check route whose terms take ``ln_rational``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import numkernel as nk
from . import products
from . import zetagamma as zg
from .accel import ALTERNATING_TERMS, SequenceGen, alternating_sum, euler_transform_sum
from .numkernel import DomainError, NonConvergenceError, Real, SpecError
from .zetagamma import HurwitzQuery, _as_fraction

PRODUCT = "PRODUCT"
GAMMA_SERIES = "GAMMA_SERIES"
BARNES_CLOSED = "BARNES_CLOSED"
D_ROUTES = (PRODUCT, GAMMA_SERIES, BARNES_CLOSED)
# phi_sderiv's released route
HURWITZ_SPLIT = "HURWITZ_SPLIT"


@dataclass(frozen=True)
class LerchDerivQuery:
    """Point (z, s, u) for the s-derivative of sum z^n/(n+u)^s; z is pinned
    to -1, where the Hurwitz split applies."""

    s: Fraction
    u: Fraction
    z: int = -1

    def __post_init__(self):
        object.__setattr__(self, "s", _as_fraction(self.s, "s"))
        object.__setattr__(self, "u", _as_fraction(self.u, "u"))
        if self.z != -1:
            raise DomainError("only z = -1 is supported")
        if self.u <= 0:
            raise DomainError("LerchDerivQuery needs u > 0")
        if self.s == 1:
            raise DomainError("s = 1 is the pole of the Hurwitz split")


def _check_target(target_digits: int):
    if target_digits < 1:
        raise SpecError("target_digits must be >= 1")


# ---------------------------------------------------------------------------
# parameterized-Euler-constant series


def _t_minus_log1p(num: int, den: int, wp: int) -> Real:
    """t - ln(1 + t) for t = num/den > -1, den > 0.

    The value is about t^2/2 against terms of size |t|, so the cancellation
    costs about log2(2/|t|) bits; the working precision is raised by the bit
    length of t's reduced denominator, capped at 4 wp, plus 8 bits.
    """
    t = Fraction(num, den)
    w = wp + min(t.denominator.bit_length() if t else 0, 4 * wp) + 8
    return nk.sub(nk.to_real(t, w), nk.ln_rational(1 + t, w), w)


def _weighted_t_sum(t_at, weight, n: int, p: int, vectors, den: int, logs=None) -> list:
    """One Real per integer vector (w_0 .. w_J) over the nodes m = n - J ..
    n: sum_i w_i weight(m) (t - ln(1 + t)) / den, t = num/den_m for the
    integer pair (num, den_m) = t_at(m), den_m > 0, not necessarily in lowest
    terms, each rounded once to p bits.

    Each vector's log part, sum c (ln den_m - ln(den_m + num)) with
    c = w_i weight(m), is collected as one integer coefficient per distinct
    integer, each split into primes once, so it is one exact exponent
    vector; its rational part is summed in fixed point, each term floored.
    One table, ``logs`` or else one of this call's own, evaluates every
    vector with its rational part as the terms of one ``log_sum`` request
    over den, each rounded once, with an absolute error below 2^-(p+31)
    before that rounding.

    At the first node |t| > 2^-k, k = bitlen(den_m) - bitlen(|num|) + 1, so
    its term, with weight >= 1, exceeds min(2^-(2k+3), 1/4).  Where that is
    below 2^-15 the sums are taken 2^boost times larger, boost = 2k - 12,
    and scaled back exactly, so the error stays below 2^-(p+16) of the
    largest term however small the terms are.
    """
    count = len(vectors[0])
    scale = p + 32 + count.bit_length()
    nodes = [(weight(m), *t_at(m)) for m in range(n - count + 1, n + 1)]
    _, num0, den0 = nodes[0]
    boost = max(0, 2 * (den0.bit_length() - abs(num0).bit_length() + 1) - 12)
    logs = nk.PrimeLogTable() if logs is None else logs
    terms = []
    for ws in vectors:
        rational = 0  # in units of 2^-scale, each term floored
        coeffs = {}  # integer -> its coefficient in the log part
        for w, (u, num, dm) in zip(ws, nodes):
            c = w * u << boost
            rational += (c * num << scale) // dm
            coeffs[dm + num] = coeffs.get(dm + num, 0) - c
            coeffs[dm] = coeffs.get(dm, 0) + c
        counts = {}
        logs.add_all(counts, coeffs.items())
        terms.append(([counts], Fraction(rational, 1 << scale)))
    return [nk.ldexp(v, -boost) for v in logs.log_sum(p, terms, den)]


def _directed_check(combine, n0: int, wp: int, total: Real, terms: int):
    """Free consistency check at z = -1: the paired direct partial sum, the
    sum of ``combine``'s +-1 vector over n0 .. n0 + terms - 1, must sit
    within the first omitted term, its one-node case at n = n0 + terms, of
    the accelerated total.  The caller may bind ``combine`` to a table of
    the check's own, which the bound then takes with the sum's sieve and
    atom logs already made."""
    w = wp // 2 + 32
    acc = combine(n0 + terms - 1, w, ([1 - 2 * (i % 2) for i in range(terms)],), 1)[0]
    bound = abs(combine(n0 + terms, w, ((1,),), 1)[0])
    gap = abs(nk.sub(total.at(w), acc, w))
    slack = nk.ldexp(nk.add(bound, abs(total.at(w)), w), -(w // 2))
    if gap > nk.add(bound, slack, w):
        raise NonConvergenceError(
            "accelerated series value disagrees with its direct partial sum"
        )


def _direct_power_sum(t_at, n0: int, z: Fraction, weight, wp: int,
                      stop_bits: int, what: str) -> Real:
    """sum of weight(n) * z^(n-n0) * (t - ln(1 + t)) for |z| < 1, with the
    geometric tail bound on the (decreasing) coefficients deciding when to stop."""
    zr = nk.to_real(z, wp)
    az = abs(zr)
    inv_gap = nk.div(nk.to_real(1, wp), nk.sub(nk.to_real(1, wp), az, wp), wp)
    tol = nk.ldexp(nk.to_real(1, wp), -stop_bits)
    acc = nk.to_real(0, wp)
    zp = nk.to_real(1, wp)  # z^(n-n0)
    n = n0
    while True:
        c = _t_minus_log1p(*t_at(n), wp)
        acc = nk.add(acc, nk.mul(nk.mul(c, nk.to_real(weight(n), wp), wp), zp, wp), wp)
        zp = nk.mul(zp, zr, wp)
        n += 1
        # tail: coeff(m) <= coeff(n) for m >= n, weights grow at most linearly
        w_bound = max(abs(weight(n)), 1) + n - n0
        tail = nk.mul(nk.mul(abs(c), nk.to_real(w_bound, wp), wp),
                      nk.mul(abs(zp), inv_gap, wp), wp)
        if tail < tol:
            return acc
        if n - n0 > 600_000:
            raise NonConvergenceError(f"{what}: series did not meet the tail bound")


def _z_series(what: str, z, p: int, target_digits: int, n0: int, t_at,
              weight=None, check_terms: int = 1024) -> Real:
    """sum_{n>=n0} weight(n) z^(n-n0) (t - ln(1 + t)) for z in [-1, 1) and
    decreasing coefficients, t = num/den for the integer pair (num, den) =
    t_at(n), the series' only description; a missing weight is 1.  num does
    not depend on n in either family, so num = 0 is the exact zero series.

    At z = -1 the weighted terms are CRVZ-summed and the total must pass the
    directed check, both sums of ``_weighted_t_sum``, which differ only in
    their weights: CRVZ's for the value, +-1 for the check; a term alone is
    its one-node case.  Inside (-1, 1) the series is summed directly to its
    geometric tail bound.
    """
    _check_target(target_digits)
    zf = _as_fraction(z, "z")
    if not -1 <= zf < 1:
        raise DomainError(f"{what} needs z in [-1, 1)")
    if t_at(n0)[0] == 0:
        return nk.to_real(0, p)
    stop_bits = nk.bits_for_digits(target_digits, guard=16)
    wp = max(p, stop_bits) + 32
    weight = weight or (lambda n: 1)
    if zf == -1:
        combine = partial(_weighted_t_sum, t_at, weight)
        gen = SequenceGen(term_at=lambda n, w: combine(n, w, ((1,),), 1)[0], n0=n0,
                          kind=ALTERNATING_TERMS, combine=combine)
        total = alternating_sum(gen, stop_bits).value.at(wp)
        # the check's two requests share one table, kept apart from the value's
        _directed_check(partial(combine, logs=nk.PrimeLogTable()), n0, wp, total, check_terms)
        return total.at(p)
    value = _direct_power_sum(t_at, n0, zf, weight, wp, stop_bits, what)
    return value.at(p)


def gamma_param(alpha, z, p: int, target_digits: int) -> Real:
    """sum_{n>=1} z^(n-1) (alpha/n - ln(1+alpha/n)) for alpha > -1, z in [-1, 1)."""
    af = _as_fraction(alpha, "alpha")
    if af <= -1:
        raise DomainError("gamma_param needs alpha > -1")
    return _z_series("gamma_param", z, p, target_digits, 1,
                     lambda n: (af.numerator, af.denominator * n))


def gamma_param_deriv(alpha, z, p: int, target_digits: int) -> Real:
    """d/dz of gamma_param: sum_{n>=2} (n-1) z^(n-2) (alpha/n - ln(1+alpha/n))."""
    af = _as_fraction(alpha, "alpha")
    if af <= -1:
        raise DomainError("gamma_param_deriv needs alpha > -1")
    # the weighted terms decay like 1/n, a power slower than the coefficients;
    # twice the pairs keep the check's window, the first omitted term, narrow
    return _z_series("gamma_param_deriv", z, p, target_digits, 2,
                     lambda n: (af.numerator, af.denominator * n),
                     weight=lambda n: n - 1, check_terms=2048)


def gamma_ab(a, b, z, p: int, target_digits: int) -> Real:
    """sum_{n>=0} (1/(an+b) - ln((an+b+1)/(an+b))) z^n for a, b > 0."""
    af = _as_fraction(a, "a")
    bf = _as_fraction(b, "b")
    if af <= 0 or bf <= 0:
        raise DomainError("gamma_ab needs a > 0 and b > 0")
    # t = 1/(an + b) = a_den b_den / (a_num b_den n + b_num a_den)
    t_num = af.denominator * bf.denominator
    step, base = af.numerator * bf.denominator, bf.numerator * af.denominator
    return _z_series("gamma_ab", z, p, target_digits, 0, lambda n: (t_num, step * n + base))


# ---------------------------------------------------------------------------
# D and E


def D(x, route: str, p: int, target_digits: int) -> Real:
    """Limit of the alternating consecutive-ratio product with parameter x.

    PRODUCT accelerates the product itself; GAMMA_SERIES uses
    exp(x + gamma'_x(-1) - gamma_x(-1)); BARNES_CLOSED composes the
    half-parameter closed form with the e^x trailing-factor bridge. The
    routes validate each other; none is trusted alone.

    What the routes share: PRODUCT's log partials, GAMMA_SERIES's CRVZ sum
    and directed check and BARNES_CLOSED's zeta'(-1, x) heads all sum their
    logs through a ``numkernel.PrimeLogTable``, each through a table of its
    own call, so a fault in the table code can move all three values.
    Agreement still counts: each route weights the atoms' logs by its own
    exponent vector, so a wrong atom log moves the values apart.  It also
    moves GAMMA_SERIES's terms by the atom's exponents, which are no smooth
    sequence, so CRVZ's n- and (n-1)-term sums disagree and its stop rule
    refuses.  LN_GLAISHER's check route, the eta'(2) series, stays on
    ``ln_rational``, so a table fault also fails its dual-route gate, and
    both DGAMMA right-hand sides evaluate `glaisher`.
    Neither PRODUCT nor GAMMA_SERIES touches the Hurwitz zeta.
    BARNES_CLOSED does, through ln_barnesG's Hurwitz form, and zeta'(-1)
    does not cancel between its ln G terms.
    zeta'(-1) is also the primary route of LN_GLAISHER, so a BARNES_CLOSED
    value checked against a `glaisher` expression shares that term, table
    head included, with it; the packaged registry holds no such pair, and a
    test keeps it so.
    """
    _check_target(target_digits)
    if route not in D_ROUTES:
        raise SpecError(f"unknown route {route!r}")
    xf = _as_fraction(x, "x")
    if xf <= -1:
        raise DomainError("D needs x > -1 so every factor stays positive")
    wp = max(p, nk.bits_for_digits(target_digits)) + 16
    if route == PRODUCT:
        est = products.limit(products.builtin("BD_D", xf), wp, target_digits)
        return est.value.at(p)
    if route == GAMMA_SERIES:
        g = gamma_param(xf, -1, wp, target_digits + 2)
        gd = gamma_param_deriv(xf, -1, wp, target_digits + 2)
        ln_d = nk.add(nk.to_real(xf, wp), nk.sub(gd, g, wp), wp)
        return nk.exp(ln_d, wp).at(p)
    # closed form at half parameter, bridged by the trailing factor's e^x
    h = (xf + 1) / 2
    ln_d = nk.to_real(xf - xf / 2, wp)
    ln_d = nk.add(ln_d, nk.sub(zg.ln_gamma(h, wp), zg.ln_gamma(Fraction(1, 2), wp), wp), wp)
    barnes = nk.sub(
        zg.ln_barnesG(h, wp),
        nk.add(zg.ln_barnesG(xf / 2 + 1, wp), zg.ln_barnesG(Fraction(1, 2), wp), wp),
        wp,
    )
    ln_d = nk.add(ln_d, nk.ldexp(barnes, 1), wp)
    return nk.exp(ln_d, wp).at(p)


def E(x, p: int, target_digits: int) -> Real:
    """Limit of the alternating squared-ratio product with parameter x;
    |x| < 1/2, extended to |x| = 1/2 by dropping the vanishing first factor."""
    _check_target(target_digits)
    xf = _as_fraction(x, "x")
    if abs(xf) > Fraction(1, 2):
        raise DomainError("E needs |x| <= 1/2 (the first factor vanishes or"
                          " turns negative beyond)")
    wp = max(p, nk.bits_for_digits(target_digits)) + 16
    est = products.limit(products.builtin("ADAMCHIK_E", xf), wp, target_digits)
    return est.value.at(p)


# ---------------------------------------------------------------------------
# Lerch s-derivative at z = -1


def _phi_sderiv_split(q: LerchDerivQuery, wp: int) -> Real:
    """-ln2 * 2^(-s) (zeta(s,u/2) - zeta(s,(u+1)/2))
    + 2^(-s) (zeta'(s,u/2) - zeta'(s,(u+1)/2))"""
    lo = HurwitzQuery(q.s, q.u / 2)
    hi = HurwitzQuery(q.s, (q.u + 1) / 2)
    za = nk.sub(zg.hurwitz_zeta(lo, wp), zg.hurwitz_zeta(hi, wp), wp)
    zd = nk.sub(zg.hurwitz_zeta_sderiv(lo, wp), zg.hurwitz_zeta_sderiv(hi, wp), wp)
    ln2 = nk.ln2(wp)
    two_pow = nk.exp(nk.mul(nk.to_real(-q.s, wp), ln2, wp), wp)
    return nk.mul(two_pow, nk.sub(zd, nk.mul(ln2, za, wp), wp), wp)


def _phi_sderiv_series(q: LerchDerivQuery, bits: int) -> Real:
    """Euler-summed -sum (-1)^n (n+u)^(-s) ln(n+u); for s <= 0 the series
    diverges termwise and the transform evaluates its Abel mean, which is
    the analytically continued value."""

    def term(n, w):
        t = nk.ln_rational(n + q.u, w)
        mag = nk.exp(nk.mul(nk.to_real(-q.s, w), t, w), w)
        return nk.mul(mag, t, w)

    gen = SequenceGen(term_at=term, n0=0, kind=ALTERNATING_TERMS)
    est = euler_transform_sum(gen, bits, max_terms=2 * bits + 240)
    return -est.value


def phi_sderiv(q: LerchDerivQuery, p: int, target_digits: int) -> Real:
    """s-derivative of the alternating Lerch series at (z=-1, s, u).

    The Hurwitz split is the released value. The Euler-summed series is an
    independent check; when it converges the two must agree, and when it
    does not, the split is re-run 64 bits higher and must reproduce itself.
    """
    _check_target(target_digits)
    wp = max(p, nk.bits_for_digits(target_digits)) + 16
    primary = _phi_sderiv_split(q, wp)
    check_digits = min(target_digits, 25)
    try:
        check = _phi_sderiv_series(q, nk.bits_for_digits(check_digits, guard=24))
    except NonConvergenceError:
        again = _phi_sderiv_split(q, wp + 64)
        if nk.agreement_digits(primary, again) < target_digits:
            raise NonConvergenceError(
                "Hurwitz split is not stable across precisions and the series"
                " check did not converge"
            )
        return primary.at(p)
    if not primary.is_zero() or not check.is_zero():
        if nk.agreement_digits(primary, check) < check_digits:
            raise NonConvergenceError(
                "Hurwitz split and Euler-summed series disagree"
            )
    return primary.at(p)
