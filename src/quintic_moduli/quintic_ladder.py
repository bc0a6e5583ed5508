"""The closed-form ascent r -> 25r for the singular modulus.

Everything here revolves around three maps of one positive real variable:

    u_star(y)   X with X^2 = (sqrt(1 + 18 y^6 + y^12) - 1)/(2 y^2) + y^4/2,
                i.e. X = y^2 sqrt(B) with B in [1, 5] formed on integers
                from u = y^6 (or from y^-6 for y > 1)
    u_map(x)    the positive Y solving
                   x^2/(sqrt5 Y) - sqrt5 Y/x^2 = (Y^3 - 1/Y^3)/sqrt5,
                i.e. Y = sqrt(z) for the unique positive root z of the cubic
                   x^2 z^3 + 5 z^2 - x^4 z - x^2 = 0,
                solved as z = x w with c w^3 + 5 w^2 - c w - 1 = 0,
                c = x^3, whose root lies in (1/sqrt5, 1) for every x > 0,
                by Newton on integers from a float seed, and gated on
                that cubic's residual against its largest monomial,
                evaluated on the integer mantissas of x and y
    p_map(x)    u_map( descend_a( u_star(x)^6 ) ^ (1/6) )

p_map carries the class invariant g(r) = (2 k_r k'_r)^(-1/12) one rung up
the ladder (Theorem 3.3):

    g(25 r) = g(r) / p_map( g(r/25)/g(r) ),

so each rung's p_map value is the ratio fed to the next.  From
k k' = 1/(2 g^12) the stable quadratic branch
k^2 = 2 (k k')^2 / (1 + sqrt(1 - 4 (k k')^2)) gives the smaller modulus:
k above r = 1, and k' below it, where k is its complement; at r = 1,
where the branch has a double root, k = k' = sqrt(k k').  Near r = 1 the
branch amplifies the rounding of k k' by 1/|1 - 2k^2|, and a radicand
1 - 4 (k k')^2 that rounds below zero is taken as zero.  Each rung is
certified, relative to its size, against a fresh independent solve of
the K-ratio equation; nothing is trusted on the radicals' say-so alone.

u_star and u_map's Newton carry bigmath_kernel._INT_BITS fractional bits
beyond work_bits, and u_star switches no working precision.  ladder climbs
from r0 alone: it checks the start and solves the two seeds, g at r0 and
at r0/25, unless a caller passes either g in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import mpf_div, round_nearest

from .bigmath_kernel import (
    CertificationError,
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    _GATE_INT_BITS,
    _INT_BITS,
    _MAX_ITER,
    _ONE,
    _complement_raw,
    _fixed,
    _floats,
    _memoised,
    _mul,
    _round_to,
    _rounded,
    _solved,
    _sqrt,
    _term_sum,
    _validate_rational,
    _validate_solvable,
    solve_singular_modulus,
    to_big,
)
from .modular_core import descend_a

__all__ = [
    "BranchError",
    "LadderStep",
    "LadderTrace",
    "u_defining_residual",
    "u_map",
    "u_star",
    "p_map",
    "g_invariant",
    "ladder",
    "audit_example_forms",
]


#: digits the ladder's relative gate 10^-(tol_exp - GATE_SLACK_DIGITS)
#: gives up against the single-solve tolerance; see ladder
GATE_SLACK_DIGITS = 20


class BranchError(RuntimeError):
    """The root/branch selection rule could not be satisfied: no candidate
    met the defining equation, or a descended a-value was not positive."""


@dataclass(frozen=True)
class LadderStep:
    """One certified rung: level j takes r_(j-1) to r_j = 25 r_(j-1).  r is
    r_j = 25^j r0 exactly, and the one place a level's r is computed."""

    level: int
    r: Fraction
    x: mpf                # g(r_(j-1)/25) / g(r_(j-1)), fed to p_map
    p_value: mpf          # p_map(x), the next level's x
    kkprime: mpf          # k_(r_j) k'_(r_j) = 1/(2 g(r_j)^12) from the ascent
    k: mpf                # recovered modulus
    oracle_residual: mpf  # |k - independent solve at r_j| (absolute)


@dataclass(frozen=True)
class LadderTrace:
    gate_exp: int  # each rung's k certifies to a relative 10^-gate_exp
    seed_g: mpf    # the seed g at r0 the climb used, given or solved
    seed_g25: mpf  # the seed g at r0/25
    steps: Tuple[LadderStep, ...]


def _cleared_relation(xv: mpf, yv: mpf, bits: int) -> Tuple[mpf, mpf]:
    """(residual, scale): the cleared cubic x^4 z - 5 z^2 - x^2 z^3 + x^2
    at z = y^2 and its largest term, exact.

    It is the relation u_map inverts times C = sqrt5 x^2 y^3 > 0, so the
    ratio of residual to largest term is the relation's own.  The monomials
    are formed on the mantissas of x and y, each power and product cut to
    its top `bits` bits, and summed by _term_sum."""
    x, y = _floats(xv, yv)
    x2, z = _mul(x, x, bits), _mul(y, y, bits)
    z2 = _mul(z, z, bits)
    x4z, x2z3 = _mul(_mul(x2, x2, bits), z, bits), _mul(x2, _mul(z2, z, bits), bits)
    return _term_sum(((1, *x4z), (-5, *z2), (-1, *x2z3), (1, *x2)), bits)


def _u_relation(xv: mpf, yv: mpf) -> Tuple[mpf, mpf]:
    """(residual, scale) of the relation u_map inverts,
    x^2/(sqrt5 y) - sqrt5 y/x^2 - y^3/sqrt5 + y^-3/sqrt5, at the ambient
    precision: the cleared cubic's two values (_cleared_relation at
    _GATE_INT_BITS bits past it), each divided once by C = sqrt5 x^2 y^3.
    The scale, its largest term, is >= 1, since the first two multiply
    to 1."""
    prec = mp.prec
    c = (_sqrt(mpf(5)) * xv ** 2 * yv ** 3)._mpf_
    return tuple(
        mp.make_mpf(mpf_div(v._mpf_, c, prec, round_nearest))
        for v in _cleared_relation(xv, yv, prec + _GATE_INT_BITS)
    )


def u_defining_residual(x: Real, y: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """How far (x, y) is from the relation u_map inverts:
    |x^2/(sqrt5 y) - sqrt5 y/x^2 - (y^3 - y^-3)/sqrt5|."""
    with workprec(ctx.work_bits):
        xv, yv = to_big(x, ctx), to_big(y, ctx)
        if xv <= 0 or yv <= 0:
            raise DomainError("u_defining_residual requires positive arguments")
        return _round_to(ctx, abs(_u_relation(xv, yv)[0]))


#: bits of the cubic's root that u_map's float seed is trusted to: it is
#: nudged up by 2^-_SEED_BITS, and Newton doubles from there
_SEED_BITS = 48


def _float_seed(c: float) -> float:
    """The root of P(w) = c w^3 + 5 w^2 - c w - 1 in (1/sqrt5, 1) by Newton
    in floats from w = 1, where P = 4, until rounding ends the descent;
    nudged up by 2^-_SEED_BITS.  c is x^3 as a float: 0 where that
    underflows, and clamped to 1e300, past which the root rounds to 1."""
    c = min(c, 1e300)
    w = 1.0
    for _ in range(_MAX_ITER):
        w_next = w - (((c * w + 5) * w - c) * w - 1) / ((3 * c * w + 10) * w - c)
        if not w_next < w:
            break
        w = w_next
    return w * (1 + 2.0 ** -_SEED_BITS)


def _newton_int(w: int, c: int, bits: int) -> Tuple[int, int]:
    """(P, the Newton step from w) on integers with `bits` fractional bits,
    for P(w) = c w^3 + 5 w^2 - c w - 1 and P'(w) by Horner's rule.

    c is capped at 2^(2 bits + 8): past it the root, 1 - 2/c + O(c^-2), is
    1 to within 2^-(bits+7) either way."""
    c = min(c, 1 << 2 * bits + 8)
    one = 1 << bits
    cw = c * w >> bits
    p = ((((cw + 5 * one) * w >> bits) - c) * w >> bits) - one
    dp = ((3 * cw + 10 * one) * w >> bits) - c
    return p, w - (p << bits) // dp


def _doubling_precisions(bits: int) -> List[int]:
    """_SEED_BITS < b_1 < ... < b_n = bits, each about twice the last."""
    precs = []
    while bits > _SEED_BITS:
        precs.append(bits)
        bits = (bits + 1) // 2
    return precs[::-1]


def u_map(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """The positive branch Y(x) of the two-variable quintic relation.

    The cleared form of the relation is the cubic in z = Y^2

        x^2 z^3 + 5 z^2 - x^4 z - x^2 = 0,

    whose roots multiply to +1 and sum to -5/x^2, so exactly one is
    positive.  It is solved in the scaled variable w = z/x, where it reads

        P(w) = c w^3 + 5 w^2 - c w - 1 = 0,      c = x^3.

    P(1/sqrt5) = -4c/(5 sqrt5) < 0 < P(1) = 4, so the root lies in
    (1/sqrt5, 1) for every x > 0, and since P'' > 0 on w > 0, Newton
    started at any w > 0 with P(w) >= 0 falls monotonically onto it.  The
    start is a float Newton solve nudged a few ulps upward (_float_seed),
    used only if P >= 0 there, otherwise w = 1.  Newton runs on integers
    with work_bits + 32 fractional bits, on c = x^3 truncated there: from
    the seed, one step per precision doubling from its 48 bits, then
    steps until rounding ends the descent.  Y = sqrt(x w).  The defining
    relation at the returned Y must certify (PrecisionContext.certifies):
    its residual against its largest term, judged as the cleared cubic
    x^4 z - 5 z^2 - x^2 z^3 + x^2 at z = Y^2 against its largest monomial
    (the relation times sqrt5 x^2 Y^3 > 0, so the same ratio), on
    integers (_cleared_relation).  Otherwise a BranchError is raised
    carrying all three candidate roots.
    """
    with workprec(ctx.work_bits):
        xv = to_big(x, ctx)
        if xv <= 0:
            raise DomainError("u_map requires x > 0, got %s" % xv)

        frac = ctx.work_bits + _INT_BITS
        _, man, exp, bc = xv._mpf_  # x = man 2^exp, so c 2^frac is exact
        # x^3 >= 2^(3 (exp + bc - 1)): at or past _newton_int's cap, c is the cap
        cap = 2 * frac + 8
        c = _fixed(man ** 3, 3 * exp, frac) if 3 * (exp + bc - 1) + frac < cap else 1 << cap
        xf = float(xv)
        w = _fixed(*mpf(_float_seed(xf * xf * xf)).man_exp, frac)
        if _newton_int(w, c, frac)[0] >= 0:
            for bits in _doubling_precisions(frac):
                drop = frac - bits
                w = _newton_int(w >> drop, c >> drop, bits)[1] << drop
        else:
            w = 1 << frac
        for _ in range(_MAX_ITER):
            w_next = _newton_int(w, c, frac)[1]
            if not w_next < w:
                break
            w = w_next

        z = xv * mpf((w, -frac))
        y = _sqrt(z)
        res, scale = _cleared_relation(xv, y, ctx.work_bits + _GATE_INT_BITS)
        if not ctx.certifies(res, scale):
            # deflate to exhibit the companions: z2 z3 = 1/z, z2 + z3 = -5/x^2 - z
            s, prod = -5 / xv ** 2 - z, 1 / z
            disc = s ** 2 - 4 * prod
            others = (
                [(s + _sqrt(disc)) / 2, (s - _sqrt(disc)) / 2]
                if disc >= 0
                else [mpc(s / 2, _sqrt(-disc) / 2), mpc(s / 2, -_sqrt(-disc) / 2)]
            )
            raise BranchError(
                "u_map(%s): positive root %s fails the defining relation "
                "(relative residual %s); companion roots %s"
                % (
                    mp.nstr(xv, 12),
                    mp.nstr(z, 12),
                    mp.nstr(abs(res) / scale, 6),
                    [mp.nstr(o, 8) for o in others],
                )
            )
        return _round_to(ctx, y)


def u_star(y: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Inverse companion of u_map: the X > 0 with

        X^2 = (sqrt(1 + 18 y^6 + y^12) - 1) / (2 y^2) + y^4 / 2.

    The subtraction is rationalized, so tiny y loses nothing to
    cancellation: X = y^2 sqrt(B) with u = y^6 and

        B = (18 + u) / (2 (sqrt(1 + 18u + u^2) + 1)) + 1/2,

    or for y > 1, with v = y^-6, B = (18v + 1) / (2 (sqrt(v^2 + 18v + 1)
    + v)) + 1/2.  B lies in [1, 5], so it is formed on integers with
    work_bits + 32 fractional bits, each power of y truncated there; y^2
    is exact from y's mantissa, and X is rounded once.
    """
    yv = to_big(y, ctx)
    if yv <= 0:
        raise DomainError("u_star requires y > 0, got %s" % yv)
    frac = ctx.work_bits + _INT_BITS
    one = 1 << frac
    _, man, exp, _ = yv._mpf_
    y2_man, y2_exp = man * man, 2 * exp  # y^2, exactly
    if yv <= 1:
        y2 = _fixed(y2_man, y2_exp, frac)
        u = (y2 * y2 >> frac) * y2 >> frac
        rad = one + 18 * u + (u * u >> frac)
        b = ((18 * one + u) << frac) // (2 * (math.isqrt(rad << frac) + one))
    else:
        shift = frac - y2_exp
        inv2 = (1 << shift) // y2_man if shift >= 0 else 0
        v = (inv2 * inv2 >> frac) * inv2 >> frac
        rad = (v * v >> frac) + 18 * v + one
        b = ((18 * v + one) << frac) // (2 * (math.isqrt(rad << frac) + v))
    root_b = math.isqrt(b + (one >> 1) << frac)
    return _rounded(ctx, y2_man * root_b, y2_exp - frac)


def p_map(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """One rung of the ascent: u_map(descend_a(u_star(x)^6)^(1/6)).

    The inner sixth power is an a-value, the descent lowers its level by 25,
    and u_map converts the descended value back to a twelfth-root ratio."""
    with workprec(ctx.work_bits):
        xs = u_star(x, ctx)
        a_lower = descend_a(xs ** 6, ctx)
        if a_lower <= 0:
            raise BranchError(
                "p_map(%s): descended a-value %s is not positive"
                % (mp.nstr(to_big(x, ctx), 12), mp.nstr(a_lower, 8))
            )
        return u_map(mp.root(a_lower, 6), ctx)


def g_invariant(
    r_num: int, r_den: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> mpf:
    """The class invariant g(r) = (2 k_r k'_r)^(-1/12) from a certified
    solve.  g(1) = 1, g(1/r) = g(r), and g is increasing in r beyond 1 (the
    product k k' shrinks from 1/2)."""
    rec = _solved(r_num, r_den, ctx)
    with workprec(ctx.work_bits):
        return _round_to(ctx, 1 / mp.root(2 * rec.k * rec.k_comp, 12))


def _g_at(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    """g_invariant at r, shared within a request scope."""
    return _memoised("g", g_invariant, r_num, r_den, ctx)


def _k_branch(pv: mpf) -> mpf:
    """The smaller of k and k' from p = k k' > 0 on the cancellation-free
    branch k^2 = 2p^2/(1 + sqrt(1 - 4p^2)), at the ambient precision; a
    radicand below zero, p > 1/2, is taken as zero."""
    rad = 1 - 4 * pv ** 2
    return _sqrt(2 * pv ** 2 / (1 + (_sqrt(rad) if rad > 0 else 0)))


def ladder(
    r0_num: int,
    r0_den: int,
    n: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    *,
    g_r0: Optional[Real] = None,
    g_r0_over25: Optional[Real] = None,
) -> LadderTrace:
    """Climb n rungs from r0: certified k at 25 r0, 625 r0, ..., 25^n r0.

    The climb carries g (see the module docstring): from x_1 =
    g(r0/25)/g(r0), rung j takes p_j = p_map(x_j), g_j = g_(j-1)/p_j and
    x_(j+1) = p_j, so no rung takes a root, and any r0 climbs.

    The checks come first: r0, n, the two ends r0/25 and 25^n r0 of the
    climb (a DomainError past bigmath_kernel._R_MAX) and tol_exp, then any
    seed given; each missing seed is solved only after them, so a bad seed
    costs no solve.
    The seeds are g at r0 and at r0/25: a given one must lie in [1, inf)
    (else DomainError), and a missing one is g_invariant at max(r, 1/r),
    since g(1/r) = g(r), so no nome below r = 1 is taken.  A given seed is
    rounded to precision_bits where it is read, as a solved one is, and the
    trace echoes the seeds the climb starts from, so a replay from the echo
    is exact; k k' = 1/(2 g^12) carries that rounding twelvefold.  A
    context with tol_exp <= GATE_SLACK_DIGITS is refused (DomainError): its
    relative gate would be 10^0 or looser and pass any k.

    Every level's k is checked against an independent K-ratio solve; a
    level whose |k_j - k_oracle| does not certify against
    k_oracle 10^GATE_SLACK_DIGITS (a relative gate
    10^-(tol_exp - GATE_SLACK_DIGITS)) raises CertificationError with the
    partial trace (including the failing step) as payload; the trace's
    gate_exp records that exponent.  The gate is relative because k shrinks
    like 4 e^(-pi sqrt(r)/2) up the ladder, so an absolute one stops
    checking anything within a few rungs; the 20 digits of slack reflect
    that the certified quantity degrades by a bounded factor per rung while
    tol_exp is calibrated for single solves.  oracle_residual stays
    absolute.

    At a level just off r = 1, where k k' is within rounding of 1/2, a
    radicand 1 - 4 (k k')^2 that rounds below zero is taken as zero, and
    below r = 1 a branch root past 1 (from a bad seed) is taken as 1, so
    that level certifies or raises CertificationError naming the
    amplification 1/|1 - 2k^2|, never DomainError.
    """
    _validate_rational(r0_num, r0_den)
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    # the climb solves from r0/25 to 25^n r0 (25^20 r0 is past _R_MAX
    # for any valid r0, so no n above 20 is computed)
    _validate_solvable(r0_num, 25 * r0_den)
    _validate_solvable(r0_num * 25 ** min(n, 20), r0_den)
    gate_exp = ctx.tol_exp - GATE_SLACK_DIGITS
    if gate_exp < 1:
        raise DomainError(
            "ladder needs tol_exp >= %d, got %d: its relative gate "
            "10^-(tol_exp - %d) must lie below 1"
            % (GATE_SLACK_DIGITS + 1, ctx.tol_exp, GATE_SLACK_DIGITS)
        )
    fr0 = Fraction(r0_num, r0_den)
    with workprec(ctx.work_bits):
        seeds = {}
        # the given seeds are checked before a missing one is solved
        for name, g, r in sorted(
            (("g_r0", g_r0, fr0), ("g_r0_over25", g_r0_over25, fr0 / 25)),
            key=lambda seed: seed[1] is None,
        ):
            if g is None:
                r = max(r, 1 / r)
                seeds[name] = g_invariant(r.numerator, r.denominator, ctx)
                continue
            v = to_big(g, ctx)
            if not 1 <= v < mp.inf:
                raise DomainError("%s must lie in [1, inf), got %s" % (name, v))
            seeds[name] = _round_to(ctx, v)
        seed_g, seed_g25 = seeds["g_r0"], seeds["g_r0_over25"]

        steps: List[LadderStep] = []
        g, x = seed_g, seed_g25 / seed_g
        for j in range(1, n + 1):
            rj = fr0 * 25 ** j
            pv = p_map(x, ctx)
            g /= pv
            kk = 1 / (2 * g ** 12)
            if rj == 1:
                k_j = _round_to(ctx, _sqrt(kk))
            elif rj > 1:
                k_j = _round_to(ctx, _k_branch(kk))
            else:
                k_j = _complement_raw(min(_k_branch(kk), _ONE), ctx.precision_bits)

            oracle = solve_singular_modulus(rj.numerator, rj.denominator, ctx)
            resid = abs(k_j - oracle.k)
            step = LadderStep(
                level=j,
                r=rj,
                x=_round_to(ctx, x),
                p_value=pv,
                kkprime=_round_to(ctx, kk),
                k=k_j,
                oracle_residual=_round_to(ctx, resid),
            )
            steps.append(step)
            if not ctx.certifies(resid, oracle.k * 10 ** GATE_SLACK_DIGITS):
                raise CertificationError(
                    "ladder level %d (r = %s) missed the oracle by %s "
                    "(relative %s; relative gate 10^-%d; k from k k' "
                    "amplifies errors by 1/|1 - 2k^2| = %s)"
                    % (j, rj, mp.nstr(resid, 8), mp.nstr(resid / oracle.k, 8), gate_exp,
                       mp.nstr(1 / abs(1 - 2 * oracle.k ** 2), 3)),
                    payload=LadderTrace(gate_exp, seed_g, seed_g25, tuple(steps)),
                )
            x = pv
        return LadderTrace(gate_exp, seed_g, seed_g25, tuple(steps))


def audit_example_forms(ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    """Check two traditional closed-form shorthands for k_125 and k_625
    against certified values, reporting each as data.

    For each target this reports the certified ladder value and the
    shorthand taken at face value:

      k_125:  sqrt(1/2 - sqrt(1 - (9 - 4 sqrt5) P^2)/2),    P = p_map(1)
      k_625:  sqrt(1/2 - sqrt(1 - (P'/(161 + 72 sqrt5))^2)/2),
              P' = p_map(161 - 72 sqrt5)

    The certified ascent feeds p_map the invariant ratio
    x = g(r0/25)/g(r0) and takes g(25 r0) = g(r0)/p_map(x) and
    k k' = 1/(2 g(25 r0)^12).  The face-value forms feed it x^12 (the same
    as x = 1 for k_125) and skip the twelfth power of p.  A form
    holds when its difference certifies against the oracle k.  Both
    shorthands miss their oracles and are recorded as failing, with the
    measured differences; the canonical ascents certify to full tolerance.
    """

    def entry(value: mpf, oracle: mpf) -> dict:
        with workprec(ctx.work_bits):
            diff = abs(value - oracle)
        return {
            "value": _round_to(ctx, value),
            "oracle": oracle,
            "difference": _round_to(ctx, diff),
            "holds": ctx.certifies(diff, oracle),
        }

    out = {}
    for r0 in (5, 25):
        oracle = solve_singular_modulus(25 * r0, 1, ctx).k
        (step,) = ladder(r0, 1, 1, ctx).steps
        out["canonical_%d" % (25 * r0)] = entry(step.k, oracle)

    with workprec(ctx.work_bits):
        s5 = _sqrt(mpf(5))
        p1 = p_map(mpf(1), ctx)
        verb125 = _sqrt(
            mpf(1) / 2 - _sqrt(1 - (9 - 4 * s5) * p1 ** 2) / 2
        )
        out["verbatim_125"] = entry(verb125, out["canonical_125"]["oracle"])

        parg = p_map(161 - 72 * s5, ctx)
        verb625 = _sqrt(
            mpf(1) / 2 - _sqrt(1 - (parg / (161 + 72 * s5)) ** 2) / 2
        )
        out["verbatim_625"] = entry(verb625, out["canonical_625"]["oracle"])
    return out
