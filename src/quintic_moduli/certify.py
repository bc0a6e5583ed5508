"""Registry of certified identities and the suite runner.

Each registry id names one residual that independent routes of the library
must drive below 10^(-tol_exp).  Ids are grouped so relations that share
their solves are computed together; entries within a group report the same
wall-clock cost.  One run_suite call solves each modulus and computes each
eta value once, so a group's cost leaves out what earlier groups already
computed.  The registry order is canonical: reports list entries in this
order no matter how the ids were requested.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from mpmath import mp, workprec

from .bigmath_kernel import (
    PrecisionContext,
    _ctx,
    _request_memo,
    _round_to,
    eta_f,
    nome,
    solve_singular_modulus,
)
from .modular_core import (
    a_value,
    a_via_eta,
    descend_a,
    descend_v,
    multiplier_M5,
    rrcf_converged,
    scale_rational,
    verify_thm22,
)
from .quintic_ladder import (
    p_map,
    g_invariant,
    u_defining_residual,
    u_map,
    verify_thm31,
    verify_thm32,
)
from .report import IdentityEntry, IdentityReport

__all__ = ["REGISTRY", "UsageError", "run_suite"]


class UsageError(ValueError):
    """A caller asked for something the registry does not contain."""


#: canonical id order
REGISTRY: Tuple[str, ...] = (
    "eq5-eta-quotient",
    "eq6-eta8",
    "eq7-eta2",
    "eq10-multiplier",
    "eq11-m5-poly",
    "eq13-thm22",
    "eq14-w-poly",
    "eq15-depressed",
    "eq19-v-descent",
    "eq24-q-descent",
    "eq26-u-defining",
    "eq29-thm31",
    "eq30-thm32",
    "eq31-g-def",
    "eq34-thm33",
    "k-reciprocal",
)


def _entry(ctx: PrecisionContext, id_: str, residual) -> List[IdentityEntry]:
    return [
        IdentityEntry(id_, _round_to(ctx, abs(residual)), bool(abs(residual) < ctx.tolerance()))
    ]


def _check_eq5(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # continued fraction against the eta quotient: 1/R^5 - 11 - R^5 = a(r)
    with workprec(ctx.work_bits):
        q = nome(rn, rd, ctx)
        r_cf, _ = rrcf_converged(q, ctx)
        lhs = 1 / r_cf ** 5 - 11 - r_cf ** 5
        rhs = a_via_eta(q, ctx)
        return _entry(ctx, "eq5-eta-quotient", lhs - rhs)


def _check_eq6(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # f(-q)^8 = 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4
    #         = (256 k^2 k'^8 / q)^(1/3) K^4 / pi^4
    rec = solve_singular_modulus(rn, rd, ctx)
    with workprec(ctx.work_bits):
        rhs = (
            mp.cbrt(256 * rec.k ** 2 * rec.k_comp ** 8 / rec.q)
            * rec.K_k ** 4
            / mp.pi ** 4
        )
        return _entry(ctx, "eq6-eta8", eta_f(rec.q, ctx) ** 8 - rhs)


def _check_eq7(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # f(-q^2)^6 = 2 k k' K^3 / (pi^3 sqrt(q))
    rec = solve_singular_modulus(rn, rd, ctx)
    with workprec(ctx.work_bits):
        rhs = 2 * rec.k * rec.k_comp * rec.K_k ** 3 / (mp.pi ** 3 * mp.sqrt(rec.q))
        return _entry(ctx, "eq7-eta2", eta_f(rec.q ** 2, ctx) ** 6 - rhs)


def _check_eq10(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    """K(k_25r) = m * K(k_r) with the multiplier m rebuilt through eta
    products: the eighth-power eta identity gives K^4 at both levels (the
    nome at level 25r is q^5), so

        m^4 = (f(-q^5)/f(-q))^8 q^(4/3) (k/k_25)^(2/3) (k'/k'_25)^(8/3)

    and the residual is |m K(k_r) - K(k_25r)| against agm-route K's.
    (Polishing m through the degree-6 polynomial instead would break down
    at r = 1, where the K-ratio is a double root of that polynomial.)"""
    rec = solve_singular_modulus(rn, rd, ctx)
    n25, d25 = scale_rational(rn, rd, 25, 1)
    rec25 = solve_singular_modulus(n25, d25, ctx)
    with workprec(ctx.work_bits):
        m4 = (
            (eta_f(rec.q ** 5, ctx) / eta_f(rec.q, ctx)) ** 8
            * rec.q
            * mp.cbrt(
                rec.q * (rec.k / rec25.k) ** 2 * (rec.k_comp / rec25.k_comp) ** 8
            )
        )
        m = mp.root(m4, 4)
        return _entry(ctx, "eq10-multiplier", m * rec.K_k - rec25.K_k)


def _check_eq11(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    rec = multiplier_M5(rn, rd, ctx)
    return _entry(ctx, "eq11-m5-poly", rec.poly_residual)


def _check_eq19(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # CF-value descent r -> r/25 against a direct evaluation at r/25
    with workprec(ctx.work_bits):
        hi, _ = rrcf_converged(nome(rn, rd, ctx), ctx)
        n_lo, d_lo = scale_rational(rn, rd, 1, 25)
        lo, _ = rrcf_converged(nome(n_lo, d_lo, ctx), ctx)
        return _entry(ctx, "eq19-v-descent", descend_v(hi, ctx) - lo)


def _check_eq24(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # a-value descent r -> r/25 against the eta quotient at r/25
    with workprec(ctx.work_bits):
        q_hi = nome(rn, rd, ctx)
        a_hi = a_via_eta(q_hi, ctx)
        n_lo, d_lo = scale_rational(rn, rd, 1, 25)
        q_lo = nome(n_lo, d_lo, ctx)
        a_lo = a_via_eta(q_lo, ctx)
        return _entry(ctx, "eq24-q-descent", descend_a(a_hi, ctx) - a_lo)


def _check_eq26(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # the defining relation at the point the ascent actually visits
    rec = solve_singular_modulus(rn, rd, ctx)
    n_lo, d_lo = scale_rational(rn, rd, 1, 25)
    rec_lo = solve_singular_modulus(n_lo, d_lo, ctx)
    with workprec(ctx.work_bits):
        s_hi = rec.k * rec.k_comp
        s_lo = rec_lo.k * rec_lo.k_comp
        x = mp.root(s_hi / s_lo, 12)
        y = u_map(x, ctx)
        return _entry(ctx, "eq26-u-defining", u_defining_residual(x, y, ctx))


def _check_eq31(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # invariant from the modulus product vs the same through eta
    rec = solve_singular_modulus(rn, rd, ctx)
    g_rec = g_invariant(rn, rd, ctx).g
    with workprec(ctx.work_bits):
        kkp_eta = (
            mp.pi ** 3 * mp.sqrt(rec.q) * eta_f(rec.q ** 2, ctx) ** 6 / (2 * rec.K_k ** 3)
        )
        g_eta = 1 / mp.root(2 * kkp_eta, 12)
        return _entry(ctx, "eq31-g-def", g_rec - g_eta)


def _check_eq34(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # ascent form on modulus products: (s(25r)/s(r))^(1/12) = p_map((s(r)/s(r/25))^(1/12))
    n_lo, d_lo = scale_rational(rn, rd, 1, 25)
    n_hi, d_hi = scale_rational(rn, rd, 25, 1)
    rec_lo = solve_singular_modulus(n_lo, d_lo, ctx)
    rec = solve_singular_modulus(rn, rd, ctx)
    rec_hi = solve_singular_modulus(n_hi, d_hi, ctx)
    with workprec(ctx.work_bits):
        s = lambda rr: rr.k * rr.k_comp
        lhs = mp.root(s(rec_hi) / s(rec), 12)
        rhs = p_map(mp.root(s(rec) / s(rec_lo), 12), ctx)
        return _entry(ctx, "eq34-thm33", lhs - rhs)


def _check_reciprocal(rn: int, rd: int, ctx: PrecisionContext) -> List[IdentityEntry]:
    # k_(1/r) = k'_r holds by construction: both solves evaluate the same
    # theta quotient at max(r, 1/r) and swap the pair.  Each side is still
    # certified by its own K-ratio residual inside the solver.
    rec = solve_singular_modulus(rn, rd, ctx)
    rec_inv = solve_singular_modulus(rd, rn, ctx)
    with workprec(ctx.work_bits):
        return _entry(ctx, "k-reciprocal", rec_inv.k - rec.k_comp)


#: (ids produced, checker) — checker signature (r_num, r_den, ctx) -> entries
_GROUPS: Tuple[Tuple[Tuple[str, ...], Callable], ...] = (
    (("eq5-eta-quotient",), _check_eq5),
    (("eq6-eta8",), _check_eq6),
    (("eq7-eta2",), _check_eq7),
    (("eq10-multiplier",), _check_eq10),
    (("eq11-m5-poly",), _check_eq11),
    (("eq13-thm22", "eq14-w-poly", "eq15-depressed"), verify_thm22),
    (("eq19-v-descent",), _check_eq19),
    (("eq24-q-descent",), _check_eq24),
    (("eq26-u-defining",), _check_eq26),
    (("eq29-thm31",), verify_thm31),
    (("eq30-thm32",), verify_thm32),
    (("eq31-g-def",), _check_eq31),
    (("eq34-thm33",), _check_eq34),
    (("k-reciprocal",), _check_reciprocal),
)


def run_suite(
    r_num: int,
    r_den: int = 1,
    ids: Optional[Iterable[str]] = None,
    ctx: Optional[PrecisionContext] = None,
) -> IdentityReport:
    """Evaluate the requested identity residuals at exact rational r.

    ids=None runs the full registry.  Unknown ids raise UsageError naming
    the registry.  Entries come back in registry order with measured
    residuals, pass flags against 10^(-tol_exp), and wall-clock cost.

    The groups run in one memo scope, so each modulus and eta value is
    computed once per call; a group's elapsed_ms leaves out the
    solves that earlier groups already paid for.  Nothing outlives the call.
    """
    ctx = _ctx(ctx)
    if ids is None:
        wanted = set(REGISTRY)
    else:
        wanted = set(ids)
        unknown = sorted(wanted - set(REGISTRY))
        if unknown:
            raise UsageError(
                "unknown identity id(s) %s; registry: %s"
                % (", ".join(unknown), ", ".join(REGISTRY))
            )

    produced: Dict[str, IdentityEntry] = {}
    with _request_memo():
        for group_ids, checker in _GROUPS:
            if not wanted.intersection(group_ids):
                continue
            t0 = time.perf_counter()
            entries = checker(r_num, r_den, ctx)
            ms = int((time.perf_counter() - t0) * 1000)
            for e in entries:
                e.elapsed_ms = ms
                if e.id in wanted:
                    produced[e.id] = e

    ordered = [produced[i] for i in REGISTRY if i in produced]
    return IdentityReport(
        r_num=r_num,
        r_den=r_den,
        precision_bits=ctx.precision_bits,
        tol_exp=ctx.tol_exp,
        entries=ordered,
    )
