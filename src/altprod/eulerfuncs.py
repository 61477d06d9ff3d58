"""Named limit functions evaluated along independent routes.

`D` is the alternating-ratio product limit; it can be computed from the
product itself, from the parameterized-Euler-constant series at z = -1, or
from a Barnes-G closed form. Agreement between the routes is the
correctness argument, so each value comes from its own algorithm. They
share one kernel, ``numkernel.PrimeLogTable``: PRODUCT's log partials go
through it, and so does GAMMA_SERIES's directed check, but not the CRVZ sum
that is GAMMA_SERIES's value (see `D`). `E` is the
squared-ratio analogue. `gamma_param` / `gamma_ab` are the two
parameterized-Euler-constant families (one is a reindexing of the other),
and `phi_sderiv` evaluates the s-derivative of the alternating Lerch series
by a Hurwitz split with an Euler-summed check route.
"""

from dataclasses import dataclass
from fractions import Fraction

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


def _series_coeff(y: Fraction, wp: int) -> Real:
    """1/y - ln((y+1)/y) for rational y > 0, with the precision boosted to
    pay for the cancellation (the value is ~1/(2y^2) against terms ~1/y)."""
    mag = max(0, y.numerator.bit_length() - y.denominator.bit_length())
    w = wp + 2 * mag + 8
    return nk.sub(
        nk.to_real(Fraction(y.denominator, y.numerator), w),
        nk.ln_rational((y + 1) / y, w),
        w,
    )


def _alpha_coeff(alpha: Fraction, n: int, wp: int) -> Real:
    """alpha/n - ln(1 + alpha/n); cancellation leaves ~alpha^2/(2n^2)."""
    q = alpha / n
    # bits lost to cancellation: log2(|q| / (q^2/2)) = log2(2/|q|)
    lost = max(0, (abs(q) ** -1).numerator.bit_length() if q else 0)
    w = wp + min(lost, 4 * wp) + 8
    return nk.sub(nk.to_real(q, w), nk.ln_rational(1 + q, w), w)


def _paired_direct_sum(t_at, weight, n0: int, terms: int, w: int) -> Real:
    """sum_{i<terms} (-1)^i weight(n) (t - ln(1 + t)), n = n0 + i, t = t_at(n).

    The rational part is summed in fixed point with an error below
    2^-(w+32); the log part's exponent vector over the primes of the
    numerators and denominators of 1 + t is exact and is evaluated with the
    rational part as one dot product, rounded once to w bits.
    """
    scale = w + 32 + terms.bit_length()
    logs = nk.PrimeLogTable()
    counts = {}
    rational = 0  # in units of 2^-scale, each term floored
    for i in range(terms):
        n = n0 + i
        c = weight(n) if i % 2 == 0 else -weight(n)
        t = t_at(n)
        rational += (c * t.numerator << scale) // t.denominator
        logs.add(counts, t.denominator + t.numerator, -c)
        logs.add(counts, t.denominator, c)
    return logs.log_sum(w, [counts], Fraction(rational, 1 << scale))


def _directed_check(term_at, t_at, weight, n0: int, wp: int, total: Real, terms: int):
    """Free consistency check at z = -1: a paired direct partial sum must sit
    within the first omitted term of the accelerated total."""
    w = wp // 2 + 32
    acc = _paired_direct_sum(t_at, weight, n0, terms, w)
    bound = abs(term_at(n0 + terms, w))
    gap = abs(nk.sub(total.at(w), acc, w))
    slack = nk.ldexp(nk.add(bound, abs(total.at(w)), w), -(w // 2))
    if gap > nk.add(bound, slack, w):
        raise NonConvergenceError(
            "accelerated series value disagrees with its direct partial sum"
        )


def _direct_power_sum(coeff_at, n0: int, z: Fraction, weight, wp: int,
                      stop_bits: int, what: str) -> Real:
    """sum of weight(n) * z^(n-n0) * coeff(n) for |z| < 1, with the geometric
    tail bound on the (decreasing) coefficients deciding when to stop."""
    zr = nk.to_real(z, wp)
    az = abs(zr)
    inv_gap = nk.div(nk.to_real(1, wp), nk.sub(nk.to_real(1, wp), az, wp), wp)
    tol = nk.ldexp(nk.to_real(1, wp), -stop_bits)
    acc = nk.to_real(0, wp)
    zp = nk.to_real(1, wp)  # z^(n-n0)
    n = n0
    while True:
        c = coeff_at(n, wp)
        w_n = weight(n)
        if w_n:
            acc = nk.add(acc, nk.mul(nk.mul(c, nk.to_real(w_n, wp), wp), zp, wp), wp)
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
              coeff_at, weight=None, check_terms: int = 1024) -> Real:
    """sum_{n>=n0} weight(n) z^(n-n0) coeff(n) for z in [-1, 1) and decreasing
    coefficients coeff(n) = t - ln(1 + t), t = t_at(n); a missing weight is 1,
    a missing coeff_at the zero series.

    At z = -1 the weighted terms are CRVZ-summed and the total must pass the
    directed check; inside (-1, 1) the series is summed directly to its
    geometric tail bound.
    """
    _check_target(target_digits)
    zf = _as_fraction(z, "z")
    if not -1 <= zf < 1:
        raise DomainError(f"{what} needs z in [-1, 1)")
    if coeff_at is None:
        return nk.to_real(0, p)
    stop_bits = nk.bits_for_digits(target_digits, guard=16)
    wp = max(p, stop_bits) + 32
    term_at = coeff_at
    if weight is None:
        weight = lambda n: 1  # noqa: E731
    else:
        def term_at(n, w):
            return nk.mul(coeff_at(n, w), nk.to_real(weight(n), w), w)
    if zf == -1:
        gen = SequenceGen(term_at=term_at, n0=n0, kind=ALTERNATING_TERMS)
        total = alternating_sum(gen, stop_bits).value.at(wp)
        _directed_check(term_at, t_at, weight, n0, wp, total, check_terms)
        return total.at(p)
    value = _direct_power_sum(coeff_at, n0, zf, weight, wp, stop_bits, what)
    return value.at(p)


def gamma_param(alpha, z, p: int, target_digits: int) -> Real:
    """sum_{n>=1} z^(n-1) (alpha/n - ln(1+alpha/n)) for alpha > -1, z in [-1, 1)."""
    af = _as_fraction(alpha, "alpha")
    if af <= -1:
        raise DomainError("gamma_param needs alpha > -1")
    coeff = (lambda n, w: _alpha_coeff(af, n, w)) if af else None
    return _z_series("gamma_param", z, p, target_digits, 1, lambda n: af / n, coeff)


def gamma_param_deriv(alpha, z, p: int, target_digits: int) -> Real:
    """d/dz of gamma_param: sum_{n>=2} (n-1) z^(n-2) (alpha/n - ln(1+alpha/n))."""
    af = _as_fraction(alpha, "alpha")
    if af <= -1:
        raise DomainError("gamma_param_deriv needs alpha > -1")
    coeff = (lambda n, w: _alpha_coeff(af, n, w)) if af else None
    # the weighted terms decay like 1/n, a power slower than the coefficients;
    # twice the pairs keep the check's window, the first omitted term, narrow
    return _z_series("gamma_param_deriv", z, p, target_digits, 2, lambda n: af / n, coeff,
                     weight=lambda n: n - 1, check_terms=2048)


def gamma_ab(a, b, z, p: int, target_digits: int) -> Real:
    """sum_{n>=0} (1/(an+b) - ln((an+b+1)/(an+b))) z^n for a, b > 0."""
    af = _as_fraction(a, "a")
    bf = _as_fraction(b, "b")
    if af <= 0 or bf <= 0:
        raise DomainError("gamma_ab needs a > 0 and b > 0")
    return _z_series("gamma_ab", z, p, target_digits, 0, lambda n: 1 / (af * n + bf),
                     lambda n, w: _series_coeff(af * n + bf, w))


# ---------------------------------------------------------------------------
# D and E


def D(x, route: str, p: int, target_digits: int) -> Real:
    """Limit of the alternating consecutive-ratio product with parameter x.

    PRODUCT accelerates the product itself; GAMMA_SERIES uses
    exp(x + gamma'_x(-1) - gamma_x(-1)); BARNES_CLOSED composes the
    half-parameter closed form with the e^x trailing-factor bridge. The
    routes validate each other; none is trusted alone.

    What the routes share: PRODUCT's log partials and GAMMA_SERIES's
    directed check both sum their logs through ``numkernel.PrimeLogTable``.
    Agreement still counts, because GAMMA_SERIES's value is its CRVZ sum,
    whose terms take ``ln_rational`` directly; the table only decides
    whether the directed check passes, so a fault in it can move PRODUCT's
    value but not GAMMA_SERIES's, and the two values then disagree.
    Neither PRODUCT nor GAMMA_SERIES touches the Hurwitz zeta.
    BARNES_CLOSED does, through ln_barnesG's Hurwitz form, and zeta'(-1)
    does not cancel between its ln G terms.
    zeta'(-1) is also the primary route of LN_GLAISHER, so a BARNES_CLOSED
    value checked against a `glaisher` expression shares that term with
    it; the packaged registry holds no such pair, and a test keeps it so.
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
