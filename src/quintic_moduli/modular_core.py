"""Degree-5 modular quantities built on the kernel: the eta-quotient a(r),
the multiplier m5(r) = K(k_25r)/K(k_r), the Rogers-Ramanujan continued
fraction by two independent routes, and the two level-lowering maps
(r -> r/25) — one acting on continued-fraction values, one acting on a
itself.

Route map (everything is certified by cross-route residuals, never trusted):

    a(r)   = f(-q)^6 / (q f(-q^5)^6), q^5 = nome(25r)     [eta route]
           = (k'_r/k'_25r)^2 sqrt(k_r/k_25r) m5(r)^-3      [moduli route]
    R(q)   = q^(1/5)/(1 + q/(1 + q^2/(1 + ...)))           [CF, one forward
                          pass on integers, certified by a power of two
                          over its last two convergents' bracket, read
                          as one integer quotient]
           = 1/E,  E = (h + sqrt(h^2 + 1))^(1/5),  h = (11 + a)/2
                                                           [closed form]
    m5(r)  is checked as a root of
           (5X - 1)^5 (1 - X) = 256 (k_r k'_r)^2 X        [certify's eq11]

rrcf_value(r) gates the closed form at a_value(r) against the CF lookup.
Below r = 1/25, a_via_eta and the lookups (rrcf_value's CF among them)
read a and R at a reflected point whose nome lies near 0:

    a(r)   = 125 / a(16/(25r))                    [Fricke involution, a_via_eta]
    R(r)   = (1 - phi R') / (phi + R'),  R' = R(16/r)
                                         [Ramanujan's reciprocity, _rrcf_at]

The closed form and the a-descent share E, a mantissa and an exponent
(bigmath_kernel._Float) formed on integers: h and sqrt(h^2 + 1) in fixed
point, the fifth root by integer Newton at doubling precision from a float
seed, which also gives the CF's q^(1/5) and descend_v's root, so the module
calls no mp.root.  Every value and gate here keeps the kernel's one rule:
both routes of a, the CF's value q^(1/5) B_d / A_d and its bracket 2^k,
reciprocity's phi and each gate's difference are formed on integers and
mantissas with bigmath_kernel._INT_BITS bits beyond work_bits, and no
function here switches the working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

from mpmath import mp, mpf

from .bigmath_kernel import (
    CertificationError,
    ConvergenceError,
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    _Float,
    _INT_BITS,
    _at_bits,
    _eta_at,
    _fixed,
    _floats,
    _in_open_unit,
    _memoised,
    _mul,
    _neg_ln,
    _nome,
    _plus,
    _pow,
    _product,
    _quo,
    _reflects,
    _request_memo,
    _root,
    _rounded,
    _solved,
    _term_text,
    _term_sum,
    _truncated,
    _validate_rational,
    to_big,
)

__all__ = [
    "ARecord",
    "a_value",
    "rrcf_truncated",
    "rrcf_converged",
    "RRecord",
    "rrcf_value",
    "closed_form_R",
    "descend_v",
    "descend_a",
    "a_via_eta",
    "a_via_moduli",
]

#: refuse continued fractions deeper than this (each level costs a few
#: multiplications and no memory, but a runaway depth means the caller's q
#: is far too close to 1); it binds only for callers of the public
#: functions, since the lookup reflects every r below 1/25
_DEPTH_CAP = 1 << 20


def a_via_eta(r_num: int, r_den: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """The eta quotient a = f(-q)^6 / (q f(-q^5)^6) at q = nome(r), where
    q^5 is the nome of 25r; on mantissas, rounded once to work_bits.
    Below _REFLECT_BELOW it is 125 / a(16/(25r)): a = (eta(tau)/eta(5 tau))^6
    at q = e^(2 pi i tau), and the Fricke involution tau -> -1/(5 tau) of
    Gamma0(5) sends it to 125/a with no other factor, moving q = nome(r) to
    nome(16/(25r)), near 0."""
    _validate_rational(r_num, r_den)
    b = ctx.work_bits + _INT_BITS
    if _reflects(r_num, r_den):
        (far,) = _floats(_a_eta_at(16 * r_den, 25 * r_num, ctx))
        return _at_bits(_quo((125, 0), far, b), ctx.work_bits)
    eta_r, eta_25r, q = _floats(
        *(_eta_at(m * r_num, r_den, ctx) for m in (1, 25)), _rounded(ctx, _nome(r_num, r_den, ctx))
    )
    return _at_bits(_quo(_pow(eta_r, 6, b), _mul(q, _pow(eta_25r, 6, b), b), b), ctx.work_bits)


def _a_eta_at(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    """a_via_eta at r, shared within a request scope."""
    return _memoised("a_eta", a_via_eta, r_num, r_den, ctx)


class ARecord(NamedTuple):
    """a(r) by two independent routes, with their disagreement."""

    a: mpf               # certified value: (k'_r/k'_25r)^2 sqrt(k_r/k_25r) m5^-3
    via_eta: mpf         # f(-q)^6/(q f(-q^5)^6)
    cross_residual: mpf  # |via_eta - a|


def a_via_moduli(r_num: int, r_den: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """The moduli route a = (k'_r/k'_25r)^2 sqrt(k_r/k_25r) m5^-3 from the
    solves at r and 25r, with m5^-3 = (K(k_r)/K(k_25r))^3, on mantissas cut
    to work_bits + _INT_BITS bits and rounded once to work_bits."""
    rec, rec25 = _solved(r_num, r_den, ctx), _solved(25 * r_num, r_den, ctx)
    b = ctx.work_bits + _INT_BITS
    (k, kp, K), (k25, kp25, K25) = (_floats(x.k, x.k_comp, x.K_k) for x in (rec, rec25))
    ratios = _pow(_quo(kp, kp25, b), 2, b), _root(_quo(k, k25, b), b), _pow(_quo(K, K25, b), 3, b)
    return _at_bits(_product(b, *ratios), ctx.work_bits)


def a_value(
    r_num: int, r_den: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> ARecord:
    """a(r) via the eta quotient at nome(r) and via the moduli/multiplier
    closed form, gated on their disagreement relative to a.

    The two routes share nothing past the nome, so their agreement certifies
    both; a cross residual of 10^-tol_exp * a or more raises
    CertificationError.  The registry does not use this gate: eq29 compares
    a_via_eta(4r) with a_via_moduli(4r) as a residual.  The moduli route
    runs first, so an r or 25r past the solver's bound is refused
    (DomainError) before the eta route computes.
    """
    via_moduli = a_via_moduli(r_num, r_den, ctx)
    via_eta = a_via_eta(r_num, r_den, ctx)
    gap = _routes_agree(via_eta, via_moduli, ctx, "a(%s/%s): eta and moduli routes disagree",
                        r_num, r_den)
    return ARecord(a=_rounded(ctx, via_moduli), via_eta=_rounded(ctx, via_eta), cross_residual=gap)


def _routes_agree(x: mpf, y: mpf, ctx: PrecisionContext, what: str, *r) -> mpf:
    """The gate of two routes to one positive value: x - y formed by
    _term_sum and judged against y (PrecisionContext.verdict).  Returns
    |x - y| rounded once to precision_bits; a difference that fails raises
    CertificationError, "<what> by <gap>", with `what` formatted only then,
    each of the terms r quoted by _term_text."""
    xf, yf = _floats(x, y)
    diff = _term_sum(((1, *xf), (-1, *yf)), ctx.work_bits + _INT_BITS)[0]
    gap, passed = ctx.verdict(diff, yf)
    if not passed:
        raise CertificationError("%s by %s" % (what % tuple(map(_term_text, r)), mp.nstr(gap, 8)))
    return gap


def rrcf_truncated(q: Real, depth: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Depth-limited Rogers-Ramanujan continued fraction

        q^(1/5) / (1 + q/(1 + q^2/(1 + ... q^depth)))

    evaluated by the forward recurrence of _rrcf_forward, whose integer
    scale carries 2 bitlen(depth) + 8 bits past work_bits for the
    truncations of its `depth` levels, and read by _rrcf_value as one
    integer quotient, rounded once.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise DomainError("depth must be a positive integer")
    if depth > _DEPTH_CAP:
        raise DomainError("depth %d exceeds the %d cap" % (depth, _DEPTH_CAP))
    qv = to_big(q, ctx)
    if not _in_open_unit(qv):
        raise DomainError("rrcf_truncated requires 0 < q < 1")
    a, b, _, _ = _rrcf_forward(qv, depth, ctx)
    return _rrcf_value(qv, a, b, ctx)


def _rrcf_forward(qv: mpf, depth: int, ctx: PrecisionContext) -> Tuple[int, int, int, int]:
    """(A_d, B_d, B_(d-1), frac) at d = depth: the last two convergents'
    terms of T = 1 + q/(1 + q^2/(1 + ...)) as integers with `frac`
    fractional bits, T_d = A_d / B_d.

    The Wallis recurrence A_n = A_(n-1) + q^n A_(n-2), B_n = B_(n-1) +
    q^n B_(n-2) (A_-1 = A_0 = B_0 = 1, B_-1 = 0) runs forward with frac =
    work_bits + 2 bitlen(depth) + 8, where each level truncates a few
    times, always down: each integer is at most its exact value times
    2^frac.  Every partial numerator q^n is positive, so consecutive
    convergents bracket T, and A_n B_(n-1) - A_(n-1) B_n = (-1)^(n-1)
    q^(n(n+1)/2) exactly: |T - T_d| <= q^(d(d+1)/2) / (B_d B_(d-1))
    (_bracket_exp bounds it).
    """
    frac = ctx.work_bits + 2 * depth.bit_length() + 8
    one = 1 << frac
    _, q_man, q_exp, _ = qv._mpf_
    qi = _fixed(q_man, q_exp, frac)
    a_prev, a, b_prev, b = one, one, 0, one
    p = one  # q^n
    for _ in range(depth):
        p = p * qi >> frac
        a_prev, a = a, a + (p * a_prev >> frac)
        b_prev, b = b, b + (p * b_prev >> frac)
    return a, b, b_prev, frac


def _bracket_exp(qv: mpf, t: float, depth: int, b: int, b_prev: int, frac: int) -> int:
    """k with q^(d(d+1)/2) / (B_d B_(d-1)) <= 2^k at d = depth, for t =
    _neg_ln(q) and _rrcf_forward's b, b_prev with `frac` fractional bits.

    B_n >= b 2^-frac >= 2^(bitlen(b) - 1 - frac), and q^(d(d+1)/2) =
    2^-(d(d+1)/2 t / ln 2).  t is within (2 bc + 4) 2^-50 of -ln q,
    relatively, for q's mantissa of bc bits (ln of the mantissa and exp ln 2
    are each within a few ulps; above q = 1/2, log1p of the float 1 - q
    within 2^-51).  So that exponent, a float, is lowered by (bc + 4)
    2^-48 of itself, over twice that error and its own two roundings, and
    rounded down.  2^k thus lies less than about three bits above the
    bracket.  The exponent is capped at 2^1023: it passes that, or is inf,
    only for q below about 2^-(2^1023), where -log2 q alone exceeds it.
    """
    bc = qv._mpf_[3]
    below = depth * (depth + 1) // 2 * t / math.log(2) * (1 - (bc + 4) * 2.0 ** -48)
    return 2 * frac + 2 - b.bit_length() - b_prev.bit_length() - math.floor(min(below, 2.0 ** 1023))


def _rrcf_value(qv: mpf, a: int, b: int, ctx: PrecisionContext) -> mpf:
    """R = q^(1/5) / T_d = q^(1/5) B_d / A_d for _rrcf_forward's a, b, as one
    integer quotient rounded once to precision_bits.  q^(1/5) is
    _root5_of's root to work_bits + 32 bits, and B_d / A_d lies in (1/2,
    1], so the quotient keeps about that many bits."""
    _, man, exp, _ = qv._mpf_
    q5, e = _root5_of(man, exp, ctx.work_bits + _INT_BITS)
    return _rounded(ctx, (q5 * b // a, e))


def _rrcf_depth(t: float, work_bits: int) -> int:
    """rrcf_converged's depth for t = -ln q: two past the smallest d >= 1
    with d(d+1)/2 t >= work_bits ln 2, or 0 where that passes _DEPTH_CAP.
    d is the ceiling of 4x / (1 + sqrt(1 + 8x)), x = work_bits ln 2 / t,
    which no small x cancels to 0, as (sqrt(1 + 8x) - 1)/2 would."""
    need = work_bits * math.log(2)
    top = _DEPTH_CAP - 2
    if top * (top + 1) / 2 * t < need:
        return 0
    x = need / t
    return max(1, math.ceil(4 * x / (1 + math.sqrt(1 + 8 * x)))) + 2


def rrcf_converged(q: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Tuple[mpf, int]:
    """(R(q), depth) with the truncation depth chosen before evaluating.

    The truncation error at depth d decays like q^(d(d+1)/2), so d is the
    smallest depth with d(d+1)/2 |ln q| >= work_bits ln 2, and the
    continued fraction is evaluated once, forward, at d + 2 (_rrcf_depth).
    The value is returned only if 2^k, a bound on the bracket of its last
    two convergents taken from q's exponent and the bit lengths of B_d and
    B_(d-1) (_bracket_exp), passes the verdict against T_d >= 1, the pair
    (1, k) against (1, 0); otherwise, or if d + 2 would pass the depth cap
    (q too close to 1), ConvergenceError is raised.  At d + 2 the bracket
    lies more than 128 + (2d + 3) log2(1/q) bits under the gate, so the
    bound's few bits of slack never decide.
    The value is _rrcf_value's one quotient; no working precision is set.
    """
    qv = to_big(q, ctx)
    if not _in_open_unit(qv):
        raise DomainError("rrcf_converged requires 0 < q < 1")
    t = _neg_ln(qv)
    depth = _rrcf_depth(t, ctx.work_bits)
    if depth:
        a, b, b_prev, frac = _rrcf_forward(qv, depth, ctx)
        if ctx.verdict((1, _bracket_exp(qv, t, depth, b, b_prev, frac)), (1, 0))[1]:
            return _rrcf_value(qv, a, b, ctx), depth
    raise ConvergenceError("continued fraction did not stabilize (q too close to 1?)")


def _rrcf_at(r_num: int, r_den: int, ctx: PrecisionContext) -> Tuple[mpf, int]:
    """(R, depth) at q = nome(r) as rrcf_converged gives them, shared within
    a request scope.

    Below _REFLECT_BELOW it comes from R' = R at 16/r, whose nome lies near
    0, by Ramanujan's reciprocity (phi + R(q))(phi + R(q')) = phi sqrt5 for
    q = e^(-2 pi alpha), q' = e^(-2 pi / alpha), alpha = sqrt(r)/2 (Berndt,
    Ramanujan's Notebooks III, ch. 16), with the depth summed at 16/r.  As
    phi sqrt5 = phi + 2 and phi^2 = phi + 1, that is R = (1 - phi R') /
    (phi + R'), free of cancellation."""
    return _memoised("rrcf", _rrcf_by_reciprocity, r_num, r_den, ctx)


def _rrcf_by_reciprocity(r_num: int, r_den: int, ctx: PrecisionContext) -> Tuple[mpf, int]:
    if not _reflects(r_num, r_den):
        return rrcf_converged(_rounded(ctx, _nome(r_num, r_den, ctx)), ctx)
    far, depth = _rrcf_at(16 * r_den, r_num, ctx)
    frac = ctx.work_bits + _INT_BITS  # R' and phi in fixed point: R lies near 1/phi
    rf, phi = _fixed(*far._mpf_[1:3], frac), ((1 << frac) + math.isqrt(5 << 2 * frac)) >> 1
    return _rounded(ctx, (((1 << 2 * frac) - phi * rf) // (phi + rf), -frac)), depth


class RRecord(NamedTuple):
    """R at q = nome(r) by two routes, with their disagreement."""

    closed: mpf      # closed_form_R(a)
    truncated: mpf   # the continued fraction; below 1/25 by reciprocity from 16/r
    depth: int       # the depth it was summed at (16/r's below 1/25)
    difference: mpf  # |closed - truncated|
    a: mpf           # a_value(r).a


@_request_memo()
def rrcf_value(r_num: int, r_den: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT) -> RRecord:
    """R at q = nome(r) by the closed form at a_value(r) and by the registry's
    continued fraction (_rrcf_at, which reflects below _REFLECT_BELOW), in
    one request scope; a difference of 10^-tol_exp * truncated or more raises
    CertificationError.  a_value runs first, so an r or 25r past the
    solver's bound is refused (DomainError) before anything else computes."""
    arec = a_value(r_num, r_den, ctx)
    closed = closed_form_R(arec.a, ctx)
    truncated, depth = _rrcf_at(r_num, r_den, ctx)
    gap = _routes_agree(closed, truncated, ctx,
                        "rrcf at r=%s: closed form and continued fraction differ",
                        Fraction(r_num, r_den))
    return RRecord(closed, truncated, depth, gap, arec.a)


def _root5(n: int) -> int:
    """n^(1/5) for an integer n >= 0, to within a few units: Newton steps at
    doubling precision from a float seed.  Each level solves for about half
    the root's bits plus 8 (n shifted down by five times the rest), and one
    step x + (n/x^4 - x)/5 doubles them; the quotient is taken from the
    top 2R + 16 bits of n over the top R + 16 of x^4, R the root's bits."""
    if n < 1 << 250:
        return int(float(n) ** 0.2)
    half = (n.bit_length() + 9) // 10 - 8
    x = _root5(n >> 5 * half) << half
    bits = x.bit_length()
    cut = bits - 16  # x^2 kept to its top bits + 16 bits
    x2 = x * x >> cut
    drop = bits + 16  # and x^4 then to its top bits + 16
    quotient = (n >> 2 * cut + drop) // (x2 * x2 >> drop)
    return x + (quotient - x) // 5


def _root5_of(man: int, exp: int, bits: int, den: int = 1) -> Tuple[int, int]:
    """((man / den) 2^exp)^(1/5) for integers man, den > 0 as (M, e), the
    value M 2^e with M of about `bits` bits, to within a few units: the
    quotient is taken to about 5 * bits bits with an exponent that is a
    multiple of 5, and its root by _root5."""
    shift = 5 * bits + den.bit_length() - man.bit_length()
    shift += (exp - shift) % 5
    return _root5((man << shift) // den), (exp - shift) // 5


def _fifth_root_radical(sign: int, a: _Float, frac: int) -> _Float:
    """E = (h + sqrt(h^2 + 1))^(1/5) with h = (11 + a)/2 and a > -11, for
    a = (-1)^sign man 2^exp given as sign and the _Float (man, exp), as a
    _Float to within a few units of its mantissa's last bit, at least
    2^-frac.  E^5 - E^-5 = 11 + a, so E = exp(y/5) with y = arcsinh(h),
    and 1/E is the closed-form R.

    2h and 2 sqrt(h^2 + 1) = sqrt((2h)^2 + 4) are formed on integers with
    `frac` fractional bits (a truncated there), and E by _root5.  E >= 1,
    so the fixed point keeps E's relative precision.  Where a passes 2^64,
    2h is cut to frac + 64 bits with its exponent, 2^drop, and so is the 4
    under the root (to nothing once drop passes frac, where it lies more
    than 2 frac bits under (2h)^2): E's root is then taken on about
    frac + 13 bits, and its exponent carries drop / 5, so a huge a costs
    no more than a = 2^64."""
    man, exp = a
    drop = max(0, exp + man.bit_length() - 64)
    a_int = _fixed(man, exp, frac - drop)
    two_h = _fixed(11, 0, frac - drop) + (-a_int if sign else a_int)
    four = 4 << 2 * (frac - drop) if drop <= frac else 0
    two_base = two_h + math.isqrt(two_h * two_h + four)
    return _root5(two_base << 4 * frac - 1 + drop % 5), drop // 5 - frac


def closed_form_R(a: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """R from a given a-value: the real positive fifth root of
    -11/2 - a/2 + sqrt(125 + 22a + a^2)/2.

    With h = (11 + a)/2 that base is sqrt(h^2 + 1) - h = 1/(h + sqrt(h^2 + 1)),
    so R = 1/E for E = _fifth_root_radical(a), and large a loses nothing to
    cancellation; 1/E is one integer quotient, rounded once.  a <= -11 is
    refused."""
    av = to_big(a, ctx)
    if not av > -11:
        raise DomainError("closed_form_R requires a > -11, got %s" % mp.nstr(av, 15))
    frac = ctx.work_bits + _INT_BITS
    sign, man, exp, _ = av._mpf_
    return _rounded(ctx, _quo((1, 0), _fifth_root_radical(sign, (man, exp), frac), frac + 1))


def descend_v(v: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Level-lowering map on continued-fraction values: given v = R at some r,
    returns R at r/25 as the real positive fifth root of

        v (1 - 2v + 4v^2 - 3v^3 + v^4) / (1 + 3v + 4v^2 + 2v^3 + v^4).

    Both quartics are integers with work_bits + 32 fractional bits, by
    Horner's rule; on (0, 1) the first lies above 0.67 and the second in
    [1, 11], so each keeps its relative precision.  v enters the product as
    its mantissa with its own exponent, so a tiny v keeps its relative
    precision too; the fifth root is _root5_of that quotient, rounded once
    to precision_bits.
    """
    vv = to_big(v, ctx)
    if not (0 < vv < 1):
        raise DomainError("descend_v requires 0 < v < 1, got %s" % mp.nstr(vv, 15))
    frac = ctx.work_bits + _INT_BITS
    one = 1 << frac
    _, v_man, v_exp, _ = vv._mpf_
    vi = _fixed(v_man, v_exp, frac)
    num, den = one, one
    for n_coeff, d_coeff in ((-3, 2), (4, 4), (-2, 3), (1, 1)):
        num = (num * vi >> frac) + n_coeff * one
        den = (den * vi >> frac) + d_coeff * one
    return _rounded(ctx, _root5_of(v_man * num, v_exp, frac, den))


def descend_a(a: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
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

    Each of E, t = E - 1/E (by _quo and _plus), the quartic and the
    nine-term denominator is held as a mantissa of work_bits + 32 bits
    with its own exponent, the last two by Horner's rule (_plus_times),
    the denominator as E (1 + E (-1 + E (2 + ... + E (1 + E)))).  So a
    huge a, whose denominator grows like E^9 = a^(9/5), costs products of
    a bounded width.  E >= 1, the quartic >= 11 and the denominator >= 11,
    so no sum cancels.  g = E |a| / quartic, g^5 and g^5 / den are _mul,
    _quo and _pow of mantissas with their own exponents, a's among them,
    so a tiny or huge a keeps its relative precision too; the quotient
    (_descended) is rounded once to precision_bits.
    """
    av = to_big(a, ctx)
    if not av > -11:
        raise DomainError("descend_a requires a > -11, got %s" % mp.nstr(av, 15))
    sign, man, exp, _ = av._mpf_
    quotient, q_exp = _descended(sign, (man, exp), ctx.work_bits + _INT_BITS)
    return _rounded(ctx, (-quotient if sign else quotient, q_exp))


def _descended(sign: int, a: _Float, frac: int) -> _Float:
    """|Q(a)| for a = (-1)^sign man 2^exp > -11 given as sign and the
    _Float (man, exp): descend_a's body, unrounded, each mantissa cut to
    `frac` bits; Q(a) has a's sign."""
    radical = _fifth_root_radical(sign, a, frac)
    e = _truncated(*radical, frac)
    t = _plus(radical, _quo((1, 0), radical, frac), frac, -1)
    quartic = t
    for coeff in (1, 6, 6):
        quartic = _plus_times(quartic, coeff, t, frac)
    quartic = _plus_times(quartic, 11, (1, 0), frac)  # + 11, times 1
    den = e
    for coeff in (1, 2, 3, 5, -3, 2, -1, 1):
        den = _plus_times(den, coeff, e, frac)
    g = _quo(_mul(e, a, frac), quartic, frac)  # E |a| / quartic
    return _quo(_pow(g, 5, frac), den, frac)


def _plus_times(y: _Float, coeff: int, x: _Float, bits: int) -> _Float:
    """(y + coeff) x for y = man 2^exp and x likewise, as a mantissa cut to
    its top `bits` bits and its exponent: one Horner step.  y holds `bits`
    bits, so where its exponent is positive, coeff lies below its last bit
    and is left out."""
    man, exp = y
    if exp <= 0:
        man += coeff << -exp
    return _mul((man, exp), x, bits)
