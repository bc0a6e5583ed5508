"""The identity registry: its entry types, its sixteen checkers and the
suite runner, which judges each entry by the one pass rule.

Each registry id names one residual that independent routes of the library
must drive below 10^(-tol_exp) times its scale, the largest term it sums (of
a polynomial relation, its largest monomial).  Ids are grouped so relations
that share their solves are computed together; entries within a group report
the same wall-clock cost.  A checker only computes: it returns each residual
and its scale keyed by registry id, on mantissas at work_bits +
_GATE_INT_BITS, with any residual its entry's detail attaches, and writes
and raises nothing.  It reaches every solve, nome, eta value, continued
fraction and eta quotient a through a lookup keyed by the exact rational
point (f(-q^m) is the eta value at m^2 r).  The key is always the exact
point; the nome lookup there (bigmath_kernel._nome) takes the nome at
r = n/d as the m-th power of a held nome at r/m^2, m = 5, 2 or n, and
below 1 it first takes the nome at 1/(nd), whose n-th and d-th powers
are the nomes at r and 1/r.  So a full verify takes 3.1 to 3.2
exps per request over the benchmark's verify-full sets (7.5 with no
chains) and eq5/eq19/eq24 about 2.2 (3.25).  run_suite alone opens the
request memo the lookups share and runs the checkers in it, so one
run_suite call computes each value once, and a group's cost leaves out
what earlier groups already computed; then it gates every residual by
the one pass rule, PrecisionContext.verdict, and builds every entry.  A
residual that misses the gate is a failing entry, never an abort.  The
registry order is canonical: reports list entries in this order no matter
how the ids were requested.  Entries and reports are plain data; the CLI
alone turns them into JSON.

Every id is formed on integer mantissas: each value a
bigmath_kernel._Float, every product, power, quotient and root of them
taken by the kernel's mantissa arithmetic and cut to work_bits + 48 bits,
the powers a group needs shared, and the terms summed by _term_sum into an
exact residual and scale, each a mantissa and an exponent that the verdict
compares exactly, on integers, so no checker reads the precision its
caller set and nothing rounds before a pass is decided.  Each is checked
in the power it holds in, so certify takes no mpmath root: eq6, eq10 and
eq31 in the 24th, 12th and -12th, and the ascent ids eq26, eq29, eq30
and eq34, as the ladder climbs, in twelfth powers on s = k k' from the
solves, sharing its _rung, _cubic_root and _cubic_residual.  eq7 reads
that s too, and eq11 holds the multiplier m5 = K(k_25r)/K(k_r) as a root of
(5 m - 1)^5 (1 - m) = 256 s^2 m (_m5_relation).  Each reads s from
bigmath_kernel._kkprime, the solve's exact product, through _kkprime_at.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from mpmath import mpf

from .bigmath_kernel import (
    DEFAULT_CONTEXT,
    Operand,
    PrecisionContext,
    UsageError,
    _Float,
    _GATE_INT_BITS,
    _at_bits,
    _eta_at,
    _floats,
    _kkprime,
    _mul,
    _pi,
    _plus,
    _pow,
    _product,
    _quo,
    _request_memo,
    _root,
    _rounded,
    _solved,
    _term_sum,
    _truncated,
    _validate_rational,
)
from .modular_core import (
    _a_eta_at,
    _rrcf_at,
    a_via_moduli,
    descend_a,
    descend_v,
)
from .quintic_ladder import _cubic_residual, _cubic_root, _rung, g_invariant
from .report import to_decimal

__all__ = ["IdentityEntry", "IdentityReport", "REGISTRY", "UsageError", "run_suite"]


class IdentityEntry(NamedTuple):
    """One certified identity: its registry id, the measured residual,
    whether it certified against the scale in detail["scale"], and cost.

    Entries computed together from shared solves (e.g. the three
    modulus-pair relations) carry the same elapsed_ms.  Every looked-up
    value is shared across groups within one run_suite call, so elapsed_ms
    leaves out the values that earlier groups already paid for.
    """

    id: str
    residual: mpf
    passed: bool
    elapsed_ms: int
    detail: Dict[str, str]


class IdentityReport(NamedTuple):
    """An ordered batch of identity checks at one (r, precision) point."""

    entries: List[IdentityEntry]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)


#: (residual, scale), pairs (man, exp) as _term_sum sums them, or
#: (residual, scale, the detail its entry carries: a string, or a pair
#: run_suite writes as a decimal)
Residual = Union[Tuple[Operand, Operand], Tuple[Operand, Operand, Dict[str, Union[str, Operand]]]]
Residuals = Dict[str, Residual]

def _check_eq5(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # continued fraction against the eta quotient: 1/R^5 - 11 - R^5 = a(r)
    b = ctx.work_bits + _GATE_INT_BITS
    r_cf, a = _floats(_rrcf_at(rn, rd, ctx)[0], _a_eta_at(rn, rd, ctx))
    r5 = _pow(r_cf, 5, b)
    terms = ((1, *_quo((1, 0), r5, b)), (-11, 1, 0), (-1, *r5), (-1, *a))
    return {"eq5-eta-quotient": _term_sum(terms, b)}


def _check_eq6(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # f(-q)^8 = 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4, checked cubed:
    # f(-q)^24 = 256 k^2 k'^8 / q (K/pi)^12
    rec, b = _solved(rn, rd, ctx), ctx.work_bits + _GATE_INT_BITS
    k, kp, K, q, f = _floats(rec.k, rec.k_comp, rec.K_k, rec.q, _eta_at(rn, rd, ctx))
    rhs = _product(b, _pow(k, 2, b), _pow(kp, 8, b), _pow(_quo(K, _pi(b), b), 12, b))
    return {"eq6-eta8": _term_sum(((1, *_pow(f, 24, b)), (-256, *_quo(rhs, q, b))), b)}


def _check_eq7(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # f(-q^2)^6 = 2 k k' K^3 / (pi^3 sqrt(q)), with q^2 the nome of 4r
    rec, b = _solved(rn, rd, ctx), ctx.work_bits + _GATE_INT_BITS
    K, q, f2 = _floats(rec.K_k, rec.q, _eta_at(4 * rn, rd, ctx))
    num = _mul(_kkprime_at(rn, rd, ctx, b), _pow(K, 3, b), b)
    rhs = _quo(num, _mul(_pow(_pi(b), 3, b), _root(q, b), b), b)
    return {"eq7-eta2": _term_sum(((1, *_pow(f2, 6, b)), (-2, *rhs)), b)}


def _check_eq10(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """K(k_25r) = m K(k_r) with the multiplier m rebuilt from the eta
    quotient a = f(-q)^6 / (q f(-q^5)^6) and the moduli: the eighth-power
    eta identity (eq6) at r and at 25r, whose nome is q^5, divides to
    (q a)^4 = (k/k_25)^2 (k'/k'_25)^8 q^4 m^-12, so

        m^12 = (k/k_25)^2 (k'/k'_25)^8 / a^4,

    and the residual is m^12 K(k_r)^12 - K(k_25r)^12, the identity in its
    twelfth power, against agm-route K's: no root is taken.  (Polishing m
    through the degree-6 polynomial instead would break down at r = 1,
    where the K-ratio is a double root of that polynomial.)"""
    rec, rec25 = _solved(rn, rd, ctx), _solved(25 * rn, rd, ctx)
    b = ctx.work_bits + _GATE_INT_BITS
    k, k25, kp, kp25, K, K25, a = _floats(
        rec.k, rec25.k, rec.k_comp, rec25.k_comp, rec.K_k, rec25.K_k, _a_eta_at(rn, rd, ctx)
    )
    num = _product(b, _pow(k, 2, b), _pow(kp, 8, b), _pow(K, 12, b))
    den = _product(b, _pow(k25, 2, b), _pow(kp25, 8, b), _pow(a, 4, b))
    return {"eq10-multiplier": _term_sum(((1, *_quo(num, den, b)), (-1, *_pow(K25, 12, b))), b)}


def _check_eq11(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # scaled by the largest monomial of (5m - 1)^5 (1 - m) - 256 (k k')^2 m
    # expanded, not by its two sides: they cancel with 1 - m as r grows.
    # The identity is ill-conditioned near r = 1, where m5 is a double root,
    # and as r -> 0, where m5 -> 1/5 and (5m - 1)^5 is flat: at r = 1/10^4
    # and 512 bits any m5 within 3.4e-25 of the computed one passes, while
    # m5 - 1/5 = 4.1e-28.  That is the identity's conditioning, not the gate's
    rec, rec25 = _solved(rn, rd, ctx), _solved(25 * rn, rd, ctx)
    b = ctx.work_bits + _GATE_INT_BITS
    m = _quo(*_floats(rec25.K_k, rec.K_k), b)
    return {"eq11-m5-poly": _m5_relation(_kkprime_at(rn, rd, ctx, b), m, b)}


#: the coefficients of m^0, ..., m^6 in (5 m - 1)^5 (1 - m)
_M5_COEFFS = (-1, 26, -275, 1500, -4375, 6250, -3125)


def _m5_relation(s: _Float, m: _Float, bits: int) -> Residual:
    """(residual, scale) of (5 m - 1)^5 (1 - m) - 256 s^2 m at m = m5 in
    (1/5, 1] and s = k k' at r, both _Float, on integers, each product cut
    to `bits` bits and each sum taken by _term_sum.

    The residual is the two sides as written: t = 5 m - 1 and 1 - m are
    exact on m5's mantissa, and t^5 (1 - m) is t^4 times the exact
    t (1 - m).  The scale is the largest of the eight monomials of the
    polynomial expanded, from m^j by repeated products of the mantissa,
    not the two sides, which cancel with 1 - m as r grows."""
    power, monomials = (1, 0), []
    for c in _M5_COEFFS:
        monomials.append((c, *power))
        power = _mul(power, m, bits)
    rhs = (-256, *_mul(_pow(s, 2, bits), m, bits))
    man, exp = m
    t = 5 * man - (1 << -exp)
    lhs = (1, *_mul(_pow((t, exp), 4, bits), (t * ((1 << -exp) - man), 2 * exp), bits))
    return _term_sum((lhs, rhs), bits)[0], _term_sum(monomials + [rhs], bits)[1]


def _pair_relations(
    k: mpf, k25: mpf, kp: mpf, kp25: mpf, a: mpf, below_one: bool, bits: int
) -> Tuple[Residual, ...]:
    """(residual, scale) of eq13 against the reference a, of eq14, and of
    eq15 in its stated and its swapped orientation, at the modulus pair
    (k, k25) = (k_r, k_25r) with complements (kp, kp25); below_one says
    whether r < 1, which picks eq13's spelling of k - k25.

    Each value is a positive _Float cut to `bits` bits.  The powers are
    shared: w^2 = k k25 and w, powers of k and w for eq14's nine monomials,
    and u^2 = sqrt(k), v^2 = sqrt(k25), u, v and u v for eq15's six, which
    the two orientations sum with opposite signs but for 4 u v (1 - u^4
    v^4).  Each relation is summed by _term_sum."""
    K, K25, KP, KP25, A = _floats(k, k25, kp, kp25, a)
    ww = _mul(K, K25, bits)
    w = _root(ww, bits)
    k2 = _mul(K, K, bits)
    k3, k4 = _mul(k2, K, bits), _mul(k2, k2, bits)
    w3, w4 = _mul(ww, w, bits), _mul(ww, ww, bits)
    w5 = _mul(w4, w, bits)
    k3w, k3w5 = _mul(k3, w, bits), _mul(k3, w5, bits)
    eq14 = _term_sum(
        (
            (1, *_mul(k3, k3, bits)), (-16, *k3w), (10, *_mul(k2, k3w, bits)),
            (15, *_mul(k4, ww, bits)), (-20, *_mul(k3, w3, bits)), (15, *_mul(k2, w4, bits)),
            (10, *_mul(K, w5, bits)), (-16, *k3w5), (1, *_mul(w3, w3, bits)),
        ),
        bits,
    )

    u2, v2 = _root(K, bits), _root(K25, bits)
    uv = _mul(_root(u2, bits), _root(v2, bits), bits)
    monomials = (  # u^6, v^6, u^4 v^2, u^2 v^4, u v, u^5 v^5
        _mul(K, u2, bits), _mul(K25, v2, bits), _mul(K, v2, bits), _mul(u2, K25, bits),
        uv, _mul(uv, ww, bits),
    )
    stated, swapped = (
        _term_sum([(c, *m) for c, m in zip(signs, monomials)], bits)
        for signs in ((1, -1, 5, -5, 4, -4), (-1, 1, -5, 5, 4, -4))
    )

    # eq13's w-form and d = k - k_25, as _check_thm22 spells them
    kp2, kp25_2 = _mul(KP, KP, bits), _mul(KP25, KP25, bits)
    if below_one:
        d = _quo(_plus(kp25_2, kp2, bits, -1), _plus(K, K25, bits), bits)
    else:
        d = _plus(K, K25, bits, -1)
    wp = _root(_mul(KP, KP25, bits), bits)
    inner = _plus(
        _quo(w, K, bits), _quo(_mul(wp, d, bits), _mul(KP, _plus(K, w, bits), bits), bits), bits
    )
    w_form = _product(
        bits, _quo(_mul(K, kp2, bits), _mul(w, kp25_2, bits), bits), _pow(inner, 3, bits)
    )
    eq13 = _term_sum(((1, *w_form), (-1, *A)), bits)
    return eq13, eq14, stated, swapped


def _check_thm22(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Residuals of the three modulus-pair relations at (k_r, k_25r),
    formed on integers by _pair_relations.

    With w = sqrt(k_r k_25r) and w' = sqrt(k'_r k'_25r):

      eq13-thm22      a(r) minus the w-form
                      k^3 (k^2-1)/(w^5 - k^2 w) * (w/k + w'/k' - ww'/(kk'))^3,
                      where the reference a(r) comes from the eta route so the
                      two sides share no machinery past the solves.  It is
                      evaluated as k k'^2/(w k'_25^2) (w/k + w'd/(k'(k+w)))^3
                      with d = k - k_25, or (k'_25^2 - k'^2)/(k + k_25) for
                      r < 1, where both moduli near 1: no cancellation;
      eq14-w-poly     the degree-6 polynomial in w that determines k_25r
                      from k_r;
      eq15-depressed  the quartic-root ("depressed") relation between
                      u = k_r^(1/4) and v = k_25r^(1/4).  The source states
                      that orientation, but numerically it is the *swap* that
                      vanishes, so the swap is the one judged; both are
                      evaluated, and the probe details name the smaller.
                      The two sum the same terms, so they share one
                      exponent and their mantissas compare exactly.
    """
    rec, rec25 = _solved(rn, rd, ctx), _solved(25 * rn, rd, ctx)
    eq13, eq14, (stated, _), (swapped, scale15) = _pair_relations(
        rec.k, rec25.k, rec.k_comp, rec25.k_comp, _a_eta_at(rn, rd, ctx), rn < rd,
        ctx.work_bits + _GATE_INT_BITS,
    )
    stated_smaller = abs(stated[0]) <= abs(swapped[0])
    orientation = "stated (u = k_r^(1/4))" if stated_smaller else "swapped (u = k_25r^(1/4))"
    detail = {
        "vanishing_orientation": orientation,
        "stated_residual": stated,
        "swapped_residual": swapped,
    }
    return {"eq13-thm22": eq13, "eq14-w-poly": eq14, "eq15-depressed": (swapped, scale15, detail)}


def _check_eq19(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # CF-value descent r -> r/25 against a direct evaluation at r/25
    hi, lo = _rrcf_at(rn, rd, ctx)[0], _rrcf_at(rn, 25 * rd, ctx)[0]
    v, v_lo = _floats(descend_v(hi, ctx), lo)
    return {"eq19-v-descent": _term_sum(((1, *v), (-1, *v_lo)), ctx.work_bits + _GATE_INT_BITS)}


def _check_eq24(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # a-value descent r -> r/25 against the eta quotient at r/25
    a_hi, a_lo = _a_eta_at(rn, rd, ctx), _a_eta_at(rn, 25 * rd, ctx)
    a, lo = _floats(descend_a(a_hi, ctx), a_lo)
    return {"eq24-q-descent": _term_sum(((1, *a), (-1, *lo)), ctx.work_bits + _GATE_INT_BITS)}


def _kkprime_at(r_num: int, r_den: int, ctx: PrecisionContext, bits: int) -> _Float:
    """s = k k' at r itself (bigmath_kernel._kkprime), cut to `bits` bits:
    the quantity the ascent law relates, s(r)/s(r') = (g(r')/g(r))^12, and
    eq7 and eq11 read."""
    return _truncated(*_kkprime(r_num, r_den, ctx), bits)


def _check_eq26(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """u_map's cubic P at the point the ascent visits, x = g(r/25)/g(r), so
    c = x^3 = (s(r)/s(r/25))^(1/4), at its root rounded as u_map rounds."""
    b = ctx.work_bits + _GATE_INT_BITS
    c = _root(_root(_quo(_kkprime_at(rn, rd, ctx, b), _kkprime_at(rn, 25 * rd, ctx, b), b), b), b)
    (w,) = _floats(_rounded(ctx, _cubic_root(c, ctx)))
    return {"eq26-u-defining": _cubic_residual(c, w, b)}


def _check_thm31(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """The eta quotient A = f(-q^2)/(q^(1/3) f(-q^10)) at q = nome(r) is
    a_via_eta(4r)^(1/6), since q^2 is the nome of 4r.  It satisfies (i)
    A^6 = a(4r), checked as a_via_eta(4r) against a(4r) from the moduli
    route, and (ii) the u_map defining relation against the invariant ratio
    V' = g(25r)/g(r) = (s(r)/s(25r))^(1/12).  (ii) takes no root of A: with
    c = A^3 = sqrt(a(4r)) and w the root of P (_cubic_root), u_map(A)^2 =
    A w, so its twelfth power a(4r) w^6 is judged against s(r)/s(25r).
    Reported as one entry, the worse of the two relative to its scale,
    |residual| / scale compared exactly on the mantissas (a sum and its
    scale share one exponent), with both residuals attached."""
    b = ctx.work_bits + _GATE_INT_BITS
    a, a_4r = _floats(_a_eta_at(4 * rn, rd, ctx), _rounded(ctx, a_via_moduli(4 * rn, rd, ctx)))
    eta = _term_sum(((1, *a), (-1, *a_4r)), b)

    w = _cubic_root(_root(a, b), ctx)
    ratio = _quo(_kkprime_at(rn, rd, ctx, b), _kkprime_at(25 * rn, rd, ctx, b), b)
    rel = _term_sum(((1, *_mul(a, _pow(w, 6, b), b)), (-1, *ratio)), b)

    ((res_eta, _), (scale_eta, _)), ((res_rel, _), (scale_rel, _)) = eta, rel
    worse = rel if abs(res_eta) * scale_rel < abs(res_rel) * scale_eta else eta
    detail = {"sixth_power_vs_a(4r)": eta[0], "invariant_ratio_relation": rel[0]}
    return {"eq29-thm31": (*worse, detail)}


def _ascent_law(ctx: PrecisionContext, *points: Tuple[int, int]) -> Residual:
    """(residual, scale) of g(mid)/g(lhs) = p_map(g(arg)/g(mid)) in its
    twelfth power, on s = k k' at the points (n, d) lhs, mid and arg: since
    (g(r')/g(r))^12 = s(r)/s(r'), it reads s(lhs)/s(mid) = p^12, and with
    x^6 = t = sqrt(s(mid)/s(arg)), p^6 = p_map(x)^6 = _rung(t)."""
    b = ctx.work_bits + _GATE_INT_BITS
    s_lhs, s_mid, s_arg = (_kkprime_at(n, d, ctx, b) for n, d in points)
    p6 = _rung(_root(_quo(s_mid, s_arg, b), b), ctx)
    return _term_sum(((1, *_quo(s_lhs, s_mid, b)), (-1, *_mul(p6, p6, b))), b)


def _check_thm32(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Descent form of the ascent law on class invariants:
    g(r)/g(r/25) = p_map(g(25r)/g(r)), by _ascent_law."""
    return {"eq30-thm32": _ascent_law(ctx, (rn, 25 * rd), (rn, rd), (25 * rn, rd))}


def _check_eq31(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """The class invariant g(r) = (2 k k')^(-1/12) from the solve against
    the same through eta, in its -12th power: g^-12 against
    2 k k' = pi^3 sqrt(q) f(-q^2)^6 / K^3 (eq7, with q^2 the nome of 4r).
    No root is taken."""
    rec, b = _solved(rn, rd, ctx), ctx.work_bits + _GATE_INT_BITS
    g, q, f, K = _floats(g_invariant(rn, rd, ctx), rec.q, _eta_at(4 * rn, rd, ctx), rec.K_k)
    rhs = _quo(_product(b, _pow(_pi(b), 3, b), _root(q, b), _pow(f, 6, b)), _pow(K, 3, b), b)
    return {"eq31-g-def": _term_sum(((1, *_quo((1, 0), _pow(g, 12, b), b)), (-1, *rhs)), b)}


def _check_eq34(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Ascent form, the step the ladder takes from its seeds:
    g(25r) = g(r)/p_map(g(r/25)/g(r)), by _ascent_law."""
    return {"eq34-thm33": _ascent_law(ctx, (25 * rn, rd), (rn, rd), (rn, 25 * rd))}


def _check_reciprocal(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # k_(1/r) = k'_r holds by construction: both solves evaluate the same
    # theta quotient at max(r, 1/r) and swap the pair.  Each side is still
    # certified by its own K-ratio residual inside the solver.
    k, kp = _floats(_solved(rd, rn, ctx).k, _solved(rn, rd, ctx).k_comp)
    return {"k-reciprocal": _term_sum(((1, *k), (-1, *kp)), ctx.work_bits + _GATE_INT_BITS)}


#: (ids produced, checker) in canonical order — checker signature
#: (r_num, r_den, ctx) -> residuals keyed by those ids
_GROUPS: Tuple[Tuple[Tuple[str, ...], Callable[..., Residuals]], ...] = (
    (("eq5-eta-quotient",), _check_eq5),
    (("eq6-eta8",), _check_eq6),
    (("eq7-eta2",), _check_eq7),
    (("eq10-multiplier",), _check_eq10),
    (("eq11-m5-poly",), _check_eq11),
    (("eq13-thm22", "eq14-w-poly", "eq15-depressed"), _check_thm22),
    (("eq19-v-descent",), _check_eq19),
    (("eq24-q-descent",), _check_eq24),
    (("eq26-u-defining",), _check_eq26),
    (("eq29-thm31",), _check_thm31),
    (("eq30-thm32",), _check_thm32),
    (("eq31-g-def",), _check_eq31),
    (("eq34-thm33",), _check_eq34),
    (("k-reciprocal",), _check_reciprocal),
)

#: canonical id order
REGISTRY: Tuple[str, ...] = tuple(i for ids, _ in _GROUPS for i in ids)


def run_suite(
    r_num: int,
    r_den: int = 1,
    ids: Optional[Iterable[str]] = None,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> IdentityReport:
    """Evaluate the requested identity residuals at exact rational r.

    ids=None runs the full registry.  Unknown ids, no id at all and a
    string in place of a list of ids raise UsageError naming the registry,
    so a report always certifies something.  Entries come back in registry
    order with measured residuals, pass flags and wall-clock cost.

    This is the one place a registry entry is made and judged, in two
    phases.  First every requested group's checker runs, in one request
    memo, so each modulus, nome, eta value, continued fraction, invariant g
    and eta quotient a is computed once per rational point and a group's
    elapsed_ms leaves out what earlier groups already paid for.  Then each
    entry is judged and written.  Every residual a checker returns, exact
    as _term_sum sums it, takes the one pass rule, ctx.verdict, which
    compares it with its scale exactly: the entry passes when
    |residual| < 10^(-tol_exp) * scale and stores |residual| rounded once
    to precision_bits.  Its detail writes |scale|, and each residual
    a checker attaches, rounded once to work_bits, as a 12-digit decimal
    (_decimal).  A failing residual is reported, not raised.  Nothing
    outlives the call.  The groups solve from r/25 to 100r; a point past
    the solver's bound raises its DomainError from the group that first
    solves there, before any entry is judged or written.
    """
    _validate_rational(r_num, r_den)
    # a string is an iterable of its characters, never of ids
    wanted = set(REGISTRY if ids is None else () if isinstance(ids, str) else ids)
    unknown = sorted(wanted - set(REGISTRY))
    if unknown or not wanted:
        problem = (
            "unknown identity id(s) " + ", ".join(unknown) if unknown
            else "ids must be a list of ids, not a string" if isinstance(ids, str)
            else "no identity id given"
        )
        raise UsageError("%s; registry: %s" % (problem, ", ".join(REGISTRY)))

    computed: List[Tuple[Residuals, int]] = []
    with _request_memo():
        for group_ids, checker in _GROUPS:
            if wanted.intersection(group_ids):
                t0 = time.perf_counter()
                residuals = checker(r_num, r_den, ctx)
                computed.append((residuals, int((time.perf_counter() - t0) * 1000)))

    produced: Dict[str, IdentityEntry] = {}
    for residuals, ms in computed:
        for id_, (res, scale, *detail) in residuals.items():
            if id_ in wanted:
                gap, passed = ctx.verdict(res, scale)
                detail = {
                    name: v if isinstance(v, str) else _decimal(v, ctx)
                    for name, v in dict(*detail, scale=scale).items()
                }
                produced[id_] = IdentityEntry(id_, gap, passed, ms, detail)
    return IdentityReport([produced[i] for i in REGISTRY if i in produced])


def _decimal(x: Operand, ctx: PrecisionContext) -> str:
    """|x| rounded once to work_bits, as a decimal of 12 significant
    digits: how an entry's detail writes its scale and the residuals its
    checker attaches."""
    return to_decimal(_at_bits((abs(x[0]), x[1]), ctx.work_bits), 12)
