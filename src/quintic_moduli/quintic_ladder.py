"""The closed-form ascent r -> 25r for the singular modulus.

Everything here revolves around three maps of one positive real variable:

    u_star(y)   X with X^2 = (sqrt(1 + 18 y^6 + y^12) - 1)/(2 y^2) + y^4/2
    u_map(x)    the positive Y solving
                   x^2/(sqrt5 Y) - sqrt5 Y/x^2 = (Y^3 - 1/Y^3)/sqrt5,
                i.e. Y = sqrt(z) for the unique positive root z of the cubic
                   x^2 z^3 + 5 z^2 - x^4 z - x^2 = 0
    p_map(x)    u_map( descend_a( u_star(x)^6 ) ^ (1/6) )

p_map advances the twelfth-root ratio of consecutive modulus products one
rung up the ladder: writing s(r) = k_r k'_r,

    s(25 r) = s(r) * p_map( (s(r)/s(r/25))^(1/12) )^12,

and the new modulus is recovered from s(25r) by the stable quadratic branch
k^2 = 2 s^2 / (1 + sqrt(1 - 4 s^2)).  Each rung is certified, relative to
its size, against a fresh independent solve of the defining K-ratio
equation; nothing is trusted on the say-so of the radicals alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import mp, mpc, mpf, workprec

from .bigmath_kernel import (
    CertificationError,
    DomainError,
    PrecisionContext,
    Real,
    _ctx,
    _round_to,
    eta_f,
    nome,
    solve_singular_modulus,
    to_big,
)
from .modular_core import a_value, descend_a, scale_rational
from .report import IdentityEntry

__all__ = [
    "BranchError",
    "GRecord",
    "LadderStep",
    "LadderTrace",
    "u_defining_residual",
    "u_map",
    "u_star",
    "p_map",
    "g_invariant",
    "k_from_kkprime",
    "ascend_once",
    "ladder",
    "verify_thm31",
    "verify_thm32",
    "audit_example_forms",
]


class BranchError(RuntimeError):
    """The root/branch selection rule could not be satisfied: either no
    candidate met the defining equation, or a ladder level dropped below
    r = 1 where the ascent's branch conventions stop applying."""


@dataclass(frozen=True)
class GRecord:
    """The class invariant g(r) = (2 k_r k'_r)^(-1/12), certified through
    the underlying modulus solve."""

    r_num: int
    r_den: int
    g: mpf


@dataclass(frozen=True)
class LadderStep:
    """One certified rung: level j takes r_(j-1) to r_j = 25 r_(j-1)."""

    level: int
    x: mpf                # twelfth-root ratio fed to p_map
    p_value: mpf          # p_map(x)
    kkprime: mpf          # k_(r_j) k'_(r_j) from the ascent
    k: mpf                # recovered modulus
    oracle_residual: mpf  # |k - independent solve at r_j| (absolute)


@dataclass(frozen=True)
class LadderTrace:
    r0_num: int
    r0_den: int
    n: int
    steps: Tuple[LadderStep, ...] = field(default_factory=tuple)


def u_defining_residual(
    x: Real, y: Real, ctx: Optional[PrecisionContext] = None
) -> mpf:
    """How far (x, y) is from the relation u_map inverts:
    |x^2/(sqrt5 y) - sqrt5 y/x^2 - (y^3 - y^-3)/sqrt5|."""
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        xv, yv = to_big(x, ctx), to_big(y, ctx)
        if xv <= 0 or yv <= 0:
            raise DomainError("u_defining_residual requires positive arguments")
        s5 = mp.sqrt(mpf(5))
        return _round_to(
            ctx,
            abs(xv ** 2 / (s5 * yv) - s5 * yv / xv ** 2 - (yv ** 3 - yv ** -3) / s5),
        )


def u_map(x: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """The positive branch Y(x) of the two-variable quintic relation.

    The cleared form of the relation is the cubic

        p(z) = x^2 z^3 + 5 z^2 - x^4 z - x^2 = 0      (z = Y^2);

    its three roots multiply to +1 and sum to -5/x^2, so exactly one is
    positive.  Since p(0) = -x^2 < 0, p(x) = 4x^2 > 0 and p'' > 0 on z > 0,
    Newton started at z = x falls monotonically onto that root; it stops
    when rounding ends the descent.  The returned Y must satisfy the
    defining relation to 10^-tol_exp relative to the largest of its four
    terms (a scale >= 1, since the first two terms multiply to 1), or a
    BranchError is raised carrying all three candidate roots.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        xv = to_big(x, ctx)
        if xv <= 0:
            raise DomainError("u_map requires x > 0, got %s" % xv)

        x2, x4 = xv ** 2, xv ** 4
        z = xv
        for _ in range(ctx.max_iter):
            z_next = z - (x2 * z ** 3 + 5 * z ** 2 - x4 * z - x2) / (
                3 * x2 * z ** 2 + 10 * z - x4
            )
            if not z_next < z:
                break
            z = z_next

        y = mp.sqrt(z)
        s5 = mp.sqrt(mpf(5))
        scale = max(x2 / (s5 * y), s5 * y / x2, y ** 3 / s5, 1 / (s5 * y ** 3))
        res = u_defining_residual(xv, y, ctx) / scale
        if not res < ctx.tolerance():
            # deflate to exhibit the companions: z2 z3 = 1/z, z2 + z3 = -5/x^2 - z
            s, prod = -5 / x2 - z, 1 / z
            disc = s ** 2 - 4 * prod
            others = (
                [(s + mp.sqrt(disc)) / 2, (s - mp.sqrt(disc)) / 2]
                if disc >= 0
                else [mpc(s / 2, mp.sqrt(-disc) / 2), mpc(s / 2, -mp.sqrt(-disc) / 2)]
            )
            raise BranchError(
                "u_map(%s): positive root %s fails the defining relation "
                "(relative residual %s); companion roots %s"
                % (
                    mp.nstr(xv, 12),
                    mp.nstr(z, 12),
                    mp.nstr(res, 6),
                    [mp.nstr(o, 8) for o in others],
                )
            )
        return _round_to(ctx, y)


def u_star(y: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Inverse companion of u_map: the X > 0 with

        X^2 = (sqrt(1 + 18 y^6 + y^12) - 1) / (2 y^2) + y^4 / 2.

    The subtraction is rationalized as t/(sqrt(1+t)+1) with
    t = 18 y^6 + y^12, so tiny y loses nothing to cancellation.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        yv = to_big(y, ctx)
        if yv <= 0:
            raise DomainError("u_star requires y > 0, got %s" % yv)
        t = 18 * yv ** 6 + yv ** 12
        x2 = t / (mp.sqrt(1 + t) + 1) / (2 * yv ** 2) + yv ** 4 / 2
        return _round_to(ctx, mp.sqrt(x2))


def p_map(x: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """One rung of the ascent: u_map(descend_a(u_star(x)^6)^(1/6)).

    The inner sixth power is an a-value, the descent lowers its level by 25,
    and u_map converts the descended value back to a twelfth-root ratio."""
    ctx = _ctx(ctx)
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
    r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None
) -> GRecord:
    """g(r) = (2 k_r k'_r)^(-1/12) from a certified solve.  g(1) = 1 and
    g is increasing in r beyond 1 (the product k k' shrinks from 1/2)."""
    ctx = _ctx(ctx)
    rec = solve_singular_modulus(r_num, r_den, ctx)
    with workprec(ctx.work_bits):
        g = 1 / mp.root(2 * rec.k * rec.k_comp, 12)
        return GRecord(r_num=r_num, r_den=r_den, g=_round_to(ctx, g))


def k_from_kkprime(p: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Recover k in (0, 1/sqrt2] from the product p = k k'.

    Uses the cancellation-free branch k^2 = 2p^2/(1 + sqrt(1 - 4p^2)).
    Rounding can push a p meant to be exactly 1/2 a hair above it; a
    radicand no more negative than 2^-(precision_bits) is clamped to zero,
    anything worse is a domain error.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        pv = to_big(p, ctx)
        if not (0 < pv <= mpf(1)):
            raise DomainError("k k' must lie in (0, 1/2], got %s" % pv)
        rad = 1 - 4 * pv ** 2
        if rad < 0:
            if rad < -(mpf(2) ** (-ctx.precision_bits)):
                raise DomainError("product %s exceeds the maximum 1/2" % mp.nstr(pv, 12))
            rad = mpf(0)
        return _round_to(ctx, mp.sqrt(2 * pv ** 2 / (1 + mp.sqrt(rad))))


def ascend_once(
    kkp_r: Real, kkp_r_over_25: Real, ctx: Optional[PrecisionContext] = None
) -> mpf:
    """s(25r) from s(r) and s(r/25), where s(r) = k_r k'_r.

    The product s peaks at exactly 1/2 (r = 1); a value a rounding error
    above that is clamped, matching the policy in k_from_kkprime.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        half = mpf(1) / 2
        slack = mpf(2) ** (-ctx.precision_bits)
        vals = []
        for name, raw in (("kkp_r", kkp_r), ("kkp_r_over_25", kkp_r_over_25)):
            v = to_big(raw, ctx)
            if half < v <= half + slack:
                v = half
            if not (0 < v <= half):
                raise DomainError("%s must lie in (0, 1/2], got %s" % (name, v))
            vals.append(v)
        hi, lo = vals
        x = mp.root(hi / lo, 12)
        return _round_to(ctx, hi * p_map(x, ctx) ** 12)


def ladder(
    r0_num: int,
    r0_den: int,
    k_r0: Real,
    k_r0_over25: Real,
    n: int,
    ctx: Optional[PrecisionContext] = None,
) -> LadderTrace:
    """Climb n rungs from r0: certified k at 25 r0, 625 r0, ..., 25^n r0.

    Seeds are the moduli at r0 and r0/25.  Every level's k is checked
    against an independent K-ratio solve; a level missing its oracle by a
    relative 10^-(tol_exp - 20) or more (|k_j - k_oracle| measured against
    k_oracle) raises CertificationError with the partial trace (including
    the failing step) as payload.  The gate is relative because k shrinks
    like 4 e^(-pi sqrt(r)/2) up the ladder, so an absolute one stops checking
    anything within a few rungs; the 20 digits of slack reflect that the
    certified quantity degrades by a bounded factor per rung while tol_exp
    is calibrated for single solves.  oracle_residual stays absolute.

    Levels with 25^j r0 < 1 are refused (BranchError): below r = 1 the
    ascent's positivity conventions flip; use the reciprocal symmetry
    k(1/r) = k'(r) and climb from the reflected point instead.
    """
    ctx = _ctx(ctx)
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    fr0 = Fraction(r0_num, r0_den)
    if fr0 <= 0:
        raise DomainError("r0 must be positive")
    with workprec(ctx.work_bits):
        k_hi = to_big(k_r0, ctx)
        k_lo = to_big(k_r0_over25, ctx)
        for name, v in (("k_r0", k_hi), ("k_r0_over25", k_lo)):
            if not (0 < v < 1):
                raise DomainError("%s must lie in (0, 1), got %s" % (name, v))
        sq = lambda k: k * mp.sqrt((1 - k) * (1 + k))  # k k'
        prev2, prev = sq(k_lo), sq(k_hi)

        gate_exp = ctx.tol_exp - 20
        gate = mpf(10) ** (-gate_exp)
        steps: List[LadderStep] = []
        for j in range(1, n + 1):
            rj = fr0 * 25 ** j
            if rj < 1:
                raise BranchError(
                    "level %d sits at r = %s < 1; reflect through k(1/r) = k'(r) "
                    "and ascend from the reciprocal point" % (j, rj)
                )
            x = mp.root(prev / prev2, 12)
            pv = p_map(x, ctx)
            cur = prev * pv ** 12
            k_j = k_from_kkprime(cur, ctx)

            oracle = solve_singular_modulus(rj.numerator, rj.denominator, ctx)
            resid = abs(k_j - oracle.k)
            step = LadderStep(
                level=j,
                x=_round_to(ctx, x),
                p_value=pv,
                kkprime=_round_to(ctx, cur),
                k=k_j,
                oracle_residual=_round_to(ctx, resid),
            )
            steps.append(step)
            if not resid < gate * oracle.k:
                raise CertificationError(
                    "ladder level %d (r = %s) missed the oracle by %s "
                    "(relative %s; relative gate 10^-%d)"
                    % (j, rj, mp.nstr(resid, 8), mp.nstr(resid / oracle.k, 8), gate_exp),
                    payload=LadderTrace(r0_num, r0_den, n, tuple(steps)),
                )
            prev2, prev = prev, cur
        return LadderTrace(r0_num, r0_den, n, tuple(steps))


def verify_thm31(
    r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None
) -> List[IdentityEntry]:
    """The eta quotient A = f(-q^2)/(q^(1/3) f(-q^10)) at q = nome(r)
    satisfies (i) A^6 = a(4r) and (ii) the u_map defining relation against
    the invariant ratio V' = g(25r)/g(r).  Reported as one entry whose
    residual is the worse of the two, with both attached."""
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        q = nome(r_num, r_den, ctx)
        A = eta_f(q ** 2, ctx) / (mp.cbrt(q) * eta_f(q ** 10, ctx))

        n4, d4 = scale_rational(r_num, r_den, 4, 1)
        a4 = a_value(n4, d4, ctx)
        res_eta = abs(A ** 6 - a4.via_moduli)

        n25, d25 = scale_rational(r_num, r_den, 25, 1)
        vp = g_invariant(n25, d25, ctx).g / g_invariant(r_num, r_den, ctx).g
        res_rel = u_defining_residual(A, vp, ctx)

        worst = max(res_eta, res_rel)
        return [
            IdentityEntry(
                "eq29-thm31",
                _round_to(ctx, worst),
                bool(worst < ctx.tolerance()),
                detail={
                    "sixth_power_vs_a(4r)": mp.nstr(res_eta, 12),
                    "invariant_ratio_relation": mp.nstr(res_rel, 12),
                },
            )
        ]


def verify_thm32(
    r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None
) -> List[IdentityEntry]:
    """Descent form of the ascent law on class invariants:
    g(r)/g(r/25) = p_map(g(25r)/g(r))."""
    ctx = _ctx(ctx)
    n_lo, d_lo = scale_rational(r_num, r_den, 1, 25)
    n_hi, d_hi = scale_rational(r_num, r_den, 25, 1)
    g_lo = g_invariant(n_lo, d_lo, ctx).g
    g_mid = g_invariant(r_num, r_den, ctx).g
    g_hi = g_invariant(n_hi, d_hi, ctx).g
    with workprec(ctx.work_bits):
        res = abs(g_mid / g_lo - p_map(g_hi / g_mid, ctx))
        return [
            IdentityEntry(
                "eq30-thm32", _round_to(ctx, res), bool(res < ctx.tolerance())
            )
        ]


def audit_example_forms(ctx: Optional[PrecisionContext] = None) -> dict:
    """Check two traditional closed-form shorthands for k_125 and k_625
    against certified values, reporting each as data.

    For each target this reports the certified ladder value and the
    shorthand taken at face value:

      k_125:  sqrt(1/2 - sqrt(1 - (9 - 4 sqrt5) P^2)/2),    P = p_map(1)
      k_625:  sqrt(1/2 - sqrt(1 - (P'/(161 + 72 sqrt5))^2)/2),
              P' = p_map(161 - 72 sqrt5)

    The face-value forms feed p_map the un-rooted invariant ratio (and, for
    k_125, skip the twelfth power); the certified ascent uses
    x = (s(r0)/s(r0/25))^(1/12) and s(25 r0) = s(r0) p_map(x)^12.  Both
    shorthands miss their oracles and are recorded as failing, with the
    measured differences; the canonical ascents certify to full tolerance.
    """
    ctx = _ctx(ctx)
    out = {}
    with workprec(ctx.work_bits):
        s5 = mp.sqrt(mpf(5))

        rec5 = solve_singular_modulus(5, 1, ctx)
        rec15 = solve_singular_modulus(1, 5, ctx)
        oracle125 = solve_singular_modulus(125, 1, ctx)
        trace = ladder(5, 1, rec5.k, rec15.k, 1, ctx)
        out["canonical_125"] = {
            "value": trace.steps[0].k,
            "oracle": oracle125.k,
            "difference": trace.steps[0].oracle_residual,
            "holds": bool(trace.steps[0].oracle_residual < ctx.tolerance()),
        }
        p1 = p_map(mpf(1), ctx)
        verb125 = mp.sqrt(
            mpf(1) / 2 - mp.sqrt(1 - (9 - 4 * s5) * p1 ** 2) / 2
        )
        d125 = abs(verb125 - oracle125.k)
        out["verbatim_125"] = {
            "value": _round_to(ctx, verb125),
            "oracle": oracle125.k,
            "difference": _round_to(ctx, d125),
            "holds": bool(d125 < ctx.tolerance()),
        }

        rec25 = solve_singular_modulus(25, 1, ctx)
        rec1 = solve_singular_modulus(1, 1, ctx)
        oracle625 = solve_singular_modulus(625, 1, ctx)
        trace625 = ladder(25, 1, rec25.k, rec1.k, 1, ctx)
        out["canonical_625"] = {
            "value": trace625.steps[0].k,
            "oracle": oracle625.k,
            "difference": trace625.steps[0].oracle_residual,
            "holds": bool(trace625.steps[0].oracle_residual < ctx.tolerance()),
        }
        parg = p_map(161 - 72 * s5, ctx)
        verb625 = mp.sqrt(
            mpf(1) / 2 - mp.sqrt(1 - (parg / (161 + 72 * s5)) ** 2) / 2
        )
        d625 = abs(verb625 - oracle625.k)
        out["verbatim_625"] = {
            "value": _round_to(ctx, verb625),
            "oracle": oracle625.k,
            "difference": _round_to(ctx, d625),
            "holds": bool(d625 < ctx.tolerance()),
        }
    return out
