"""Degree-5 modular quantities built on the kernel: the eta-quotient a(r),
the multiplier m5(r) = K(k_25r)/K(k_r), the Rogers-Ramanujan continued
fraction by two independent routes, the log-sinh parametrization of a, and
the two level-lowering maps (r -> r/25) — one acting on continued-fraction
values, one acting on a itself.

Route map (everything is certified by cross-route residuals, never trusted):

    a(r)   = f(-q)^6 / (q f(-q^5)^6)                      [eta route]
           = (k'_r/k'_25r)^2 sqrt(k_r/k_25r) m5(r)^-3      [moduli route]
    R(q)   = q^(1/5)/(1 + q/(1 + q^2/(1 + ...)))           [truncated CF]
           = 1/E,  E = (h + sqrt(h^2 + 1))^(1/5),  h = (11 + a)/2
                                                           [closed form]
           = exp(-y/5),  y = arcsinh((11 + a)/2)           [log-sinh form]
    m5(r)  is certified as a root of
           (5X - 1)^5 (1 - X) = 256 (k_r k'_r)^2 X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from mpmath import mp, mpf, workprec

from .bigmath_kernel import (
    CertificationError,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    Real,
    _ctx,
    _memoised,
    _neg_ln,
    _round_to,
    eta_f,
    solve_singular_modulus,
    to_big,
)

__all__ = [
    "ARecord",
    "M5Record",
    "multiplier_M5",
    "a_value",
    "rrcf_truncated",
    "rrcf_converged",
    "closed_form_R",
    "theta_form",
    "descend_v",
    "descend_a",
    "scale_rational",
    "a_via_eta",
]

#: refuse continued fractions deeper than this (memoryless recurrence, but a
#: runaway depth means the caller's q is far too close to 1)
_DEPTH_CAP = 1 << 20


def scale_rational(r_num: int, r_den: int, mul_num: int, mul_den: int) -> Tuple[int, int]:
    """Exact rational r*(mul_num/mul_den) in lowest terms."""
    f = Fraction(r_num, r_den) * Fraction(mul_num, mul_den)
    return f.numerator, f.denominator


def a_via_eta(q: mpf, ctx: PrecisionContext) -> mpf:
    """The eta quotient a = f(-q)^6 / (q f(-q^5)^6), unrounded, at the
    context's working precision."""
    with workprec(ctx.work_bits):
        return eta_f(q, ctx) ** 6 / (q * eta_f(q ** 5, ctx) ** 6)


@dataclass(frozen=True)
class M5Record:
    """The certified multiplier m5(r) = K(k_25r)/K(k_r)."""

    r_num: int
    r_den: int
    m5: mpf
    poly_residual: mpf  # degree-6 polynomial relation evaluated at m5


@dataclass(frozen=True)
class ARecord:
    """a(r) by two independent routes, with their disagreement."""

    r_num: int
    r_den: int
    a: mpf               # certified value: (k'_r/k'_25r)^2 sqrt(k_r/k_25r) m5^-3
    via_eta: mpf         # f(-q)^6/(q f(-q^5)^6)
    cross_residual: mpf  # |via_eta - a|


def multiplier_M5(
    r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None
) -> M5Record:
    """Multiplier of the degree-5 transformation at exact rational r.

    m5 is *defined* as the ratio K(k_25r)/K(k_r) of two certified solves and
    only certified against the degree-6 polynomial

        (5 m - 1)^5 (1 - m) - 256 (k_r k'_r)^2 m = 0,

    never obtained by solving that polynomial blind (it has six roots and no
    intrinsic selection rule).
    """
    ctx = _ctx(ctx)
    rec = solve_singular_modulus(r_num, r_den, ctx)
    n25, d25 = scale_rational(r_num, r_den, 25, 1)
    rec25 = solve_singular_modulus(n25, d25, ctx)
    with workprec(ctx.work_bits):
        m5 = rec25.K_k / rec.K_k
        kkp2 = (rec.k * rec.k_comp) ** 2
        poly = (5 * m5 - 1) ** 5 * (1 - m5) - 256 * kkp2 * m5
        return M5Record(
            r_num=r_num,
            r_den=r_den,
            m5=_round_to(ctx, m5),
            poly_residual=_round_to(ctx, abs(poly)),
        )


def a_value(
    r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None
) -> ARecord:
    """a(r) via the eta quotient and via the moduli/multiplier closed form.

    The two routes share nothing past the nome, so their agreement certifies
    both; a cross residual above tolerance raises CertificationError.
    """
    ctx = _ctx(ctx)
    rec = solve_singular_modulus(r_num, r_den, ctx)
    n25, d25 = scale_rational(r_num, r_den, 25, 1)
    rec25 = solve_singular_modulus(n25, d25, ctx)
    with workprec(ctx.work_bits):
        via_eta = a_via_eta(rec.q, ctx)
        m5 = rec25.K_k / rec.K_k
        via_moduli = (
            (rec.k_comp / rec25.k_comp) ** 2
            * mp.sqrt(rec.k / rec25.k)
            * m5 ** -3
        )
        cross = abs(via_eta - via_moduli)
        if not cross < ctx.tolerance():
            raise CertificationError(
                "a(%s/%s): eta and moduli routes disagree by %s"
                % (r_num, r_den, mp.nstr(cross, 8))
            )
        return ARecord(
            r_num=r_num,
            r_den=r_den,
            a=_round_to(ctx, via_moduli),
            via_eta=_round_to(ctx, via_eta),
            cross_residual=_round_to(ctx, cross),
        )


def rrcf_truncated(
    q: Real, depth: int, ctx: Optional[PrecisionContext] = None
) -> mpf:
    """Depth-limited Rogers-Ramanujan continued fraction

        q^(1/5) / (1 + q/(1 + q^2/(1 + ... q^depth)))

    evaluated by backward recurrence (numerically benign: every partial
    denominator is >= 1).  Powers descend from q^depth by division, which
    costs `depth` rounding errors — absorbed by the guard bits.
    """
    ctx = _ctx(ctx)
    if not isinstance(depth, int) or depth < 1:
        raise DomainError("depth must be a positive integer")
    if depth > _DEPTH_CAP:
        raise DomainError("depth %d exceeds the %d cap" % (depth, _DEPTH_CAP))
    with workprec(ctx.work_bits):
        qv = to_big(q, ctx)
        if not (0 < qv < 1):
            raise DomainError("rrcf_truncated requires 0 < q < 1")
        t = mpf(1)
        p = qv ** depth
        for _ in range(depth):
            t = 1 + p / t
            p /= qv
        # after the loop p == q^0; t is the full ascending tail
        return _round_to(ctx, mp.root(qv, 5) / t)


def rrcf_converged(
    q: Real, ctx: Optional[PrecisionContext] = None
) -> Tuple[mpf, int]:
    """(R(q), depth) with the truncation depth chosen before evaluating.

    The truncation error at depth d decays like q^(d(d+1)/2), so d is the
    smallest depth with d(d+1)/2 |ln q| >= work_bits ln 2.  The value at
    d + 2 is returned only if it agrees with the value at d below tolerance;
    otherwise, or if d + 2 would pass the depth cap (q too close to 1),
    ConvergenceError is raised.  Inside a request memo scope each (q,
    context) is evaluated once.
    """
    ctx = _ctx(ctx)
    qv = to_big(q, ctx)
    if not (0 < qv < 1):
        raise DomainError("rrcf_converged requires 0 < q < 1")
    return _memoised(("rrcf", qv, ctx), lambda: _rrcf(qv, ctx))


def _rrcf(qv: mpf, ctx: PrecisionContext) -> Tuple[mpf, int]:
    with workprec(ctx.work_bits):
        t = _neg_ln(qv)
        need = ctx.work_bits * math.log(2)
        top = _DEPTH_CAP - 2
        if top * (top + 1) / 2 * t >= need:
            depth = math.ceil((math.sqrt(1 + 8 * need / t) - 1) / 2) + 2
            cur = rrcf_truncated(qv, depth, ctx)
            if abs(cur - rrcf_truncated(qv, depth - 2, ctx)) < ctx.tolerance():
                return cur, depth
    raise ConvergenceError("continued fraction did not stabilize (q too close to 1?)")


def _fifth_root_radical(av: mpf) -> mpf:
    """E = (h + sqrt(h^2 + 1))^(1/5) with h = (11 + a)/2, for a > -11, at
    the ambient precision.  E^5 - E^-5 = 11 + a, so E = exp(y/5) with
    y = arcsinh(h), and 1/E is the closed-form R."""
    h = (11 + av) / 2
    return mp.root(h + mp.sqrt(h * h + 1), 5)


def closed_form_R(a: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """R from a given a-value: the real positive fifth root of
    -11/2 - a/2 + sqrt(125 + 22a + a^2)/2.

    With h = (11 + a)/2 that base is sqrt(h^2 + 1) - h = 1/(h + sqrt(h^2 + 1)),
    so R = 1/E for E = _fifth_root_radical(a), and large a loses nothing to
    cancellation; a <= -11 is refused, as in theta_form."""
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        av = to_big(a, ctx)
        if not av > -11:
            raise DomainError("closed_form_R requires a > -11, got %s" % av)
        return _round_to(ctx, 1 / _fifth_root_radical(av))


def theta_form(a: Real, ctx: Optional[PrecisionContext] = None) -> Tuple[mpf, mpf]:
    """Log-sinh parametrization of the closed form.

    Returns (y, R) with y = arcsinh((11 + a)/2) and R = exp(-y/5).  This is
    the radical closed form in disguise: with t = (11+a)/2,
    exp(-y) = sqrt(t^2 + 1) - t equals the fifth power of R.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        av = to_big(a, ctx)
        if not av > -11:
            raise DomainError("theta_form requires a > -11, got %s" % av)
        y = mp.asinh((11 + av) / 2)
        return _round_to(ctx, y), _round_to(ctx, mp.exp(-y / 5))


def descend_v(v: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Level-lowering map on continued-fraction values: given v = R at some r,
    returns R at r/25 as the real positive fifth root of

        v (1 - 2v + 4v^2 - 3v^3 + v^4) / (1 + 3v + 4v^2 + 2v^3 + v^4).
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        vv = to_big(v, ctx)
        if not (0 < vv < 1):
            raise DomainError("descend_v requires 0 < v < 1, got %s" % vv)
        num = 1 - 2 * vv + 4 * vv ** 2 - 3 * vv ** 3 + vv ** 4
        den = 1 + 3 * vv + 4 * vv ** 2 + 2 * vv ** 3 + vv ** 4
        return _round_to(ctx, mp.root(vv * num / den, 5))


def descend_a(a: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Level-lowering map on a-values, kept in exactly this form:

        Q(a) = (-1 - E + E^2)^5 /
               (E - E^2 + 2E^3 - 3E^4 + 5E^5 + 3E^6 + 2E^7 + E^8 + E^9)

    with E = exp(y/5), y = arcsinh((11 + a)/2).  The unusual nine-term
    denominator (note the coefficient 5 on E^5) is intentional; it is
    validated against the continued-fraction descent route by the identity
    suite rather than re-derived.

    E is _fifth_root_radical(a), the fifth root of h + sqrt(h^2 + 1) with
    h = (11 + a)/2 (so E = 1/closed_form_R(a)), and the numerator is
    evaluated without cancellation: E tends to the golden ratio as a -> 0,
    where -1 - E + E^2 would lose about |log10 a| digits.  With
    t = E - 1/E one has t^5 + 5t^3 + 5t = E^5 - E^-5 = 11 + a, hence
    (t - 1)(t^4 + t^3 + 6t^2 + 6t + 11) = a and

        -1 - E + E^2 = E (t - 1) = E a / (t^4 + t^3 + 6t^2 + 6t + 11).
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        av = to_big(a, ctx)
        if not av > -11:
            raise DomainError("descend_a requires a > -11, got %s" % av)
        E = _fifth_root_radical(av)
        t = E - 1 / E
        num = (E * av / (t ** 4 + t ** 3 + 6 * t ** 2 + 6 * t + 11)) ** 5
        den = (
            E - E ** 2 + 2 * E ** 3 - 3 * E ** 4 + 5 * E ** 5
            + 3 * E ** 6 + 2 * E ** 7 + E ** 8 + E ** 9
        )
        return _round_to(ctx, num / den)

