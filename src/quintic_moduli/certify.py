"""The identity registry: its sixteen checkers and the suite runner.

Each registry id names one residual that independent routes of the library
must drive below 10^(-tol_exp).  Ids are grouped so relations that share
their solves are computed together; entries within a group report the same
wall-clock cost.  A checker only computes: it returns its residuals keyed by
registry id, at the ambient precision.  run_suite alone sets that precision,
opens the request memo, gates every residual and builds every entry, so one
run_suite call solves each modulus and computes each nome, eta value and
continued fraction once, and a group's cost leaves out what earlier groups
already computed.  The registry order is canonical: reports list entries in
this order no matter how the ids were requested.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from mpmath import mp, mpf, workprec

from .bigmath_kernel import (
    PrecisionContext,
    _ctx,
    _request_memo,
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
)
from .quintic_ladder import g_invariant, p_map, u_defining_residual, u_map
from .report import IdentityEntry, IdentityReport

__all__ = ["REGISTRY", "UsageError", "run_suite"]


class UsageError(ValueError):
    """A caller asked for something the registry does not contain."""


#: a residual, or a residual with the detail strings its entry carries
Residual = Union[mpf, Tuple[mpf, Dict[str, str]]]
Residuals = Dict[str, Residual]


def _check_eq5(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # continued fraction against the eta quotient: 1/R^5 - 11 - R^5 = a(r)
    q = nome(rn, rd, ctx)
    r_cf, _ = rrcf_converged(q, ctx)
    lhs = 1 / r_cf ** 5 - 11 - r_cf ** 5
    return {"eq5-eta-quotient": lhs - a_via_eta(q, ctx)}


def _check_eq6(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # f(-q)^8 = 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4
    #         = (256 k^2 k'^8 / q)^(1/3) K^4 / pi^4
    rec = solve_singular_modulus(rn, rd, ctx)
    rhs = (
        mp.cbrt(256 * rec.k ** 2 * rec.k_comp ** 8 / rec.q)
        * rec.K_k ** 4
        / mp.pi ** 4
    )
    return {"eq6-eta8": eta_f(rec.q, ctx) ** 8 - rhs}


def _check_eq7(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # f(-q^2)^6 = 2 k k' K^3 / (pi^3 sqrt(q))
    rec = solve_singular_modulus(rn, rd, ctx)
    rhs = 2 * rec.k * rec.k_comp * rec.K_k ** 3 / (mp.pi ** 3 * mp.sqrt(rec.q))
    return {"eq7-eta2": eta_f(rec.q ** 2, ctx) ** 6 - rhs}


def _check_eq10(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """K(k_25r) = m * K(k_r) with the multiplier m rebuilt through eta
    products: the eighth-power eta identity gives K^4 at both levels (the
    nome at level 25r is q^5), so

        m^4 = (f(-q^5)/f(-q))^8 q^(4/3) (k/k_25)^(2/3) (k'/k'_25)^(8/3)

    and the residual is |m K(k_r) - K(k_25r)| against agm-route K's.
    (Polishing m through the degree-6 polynomial instead would break down
    at r = 1, where the K-ratio is a double root of that polynomial.)"""
    rec = solve_singular_modulus(rn, rd, ctx)
    rec25 = solve_singular_modulus(*scale_rational(rn, rd, 25, 1), ctx)
    m4 = (
        (eta_f(rec.q ** 5, ctx) / eta_f(rec.q, ctx)) ** 8
        * rec.q
        * mp.cbrt(rec.q * (rec.k / rec25.k) ** 2 * (rec.k_comp / rec25.k_comp) ** 8)
    )
    return {"eq10-multiplier": mp.root(m4, 4) * rec.K_k - rec25.K_k}


def _check_eq11(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    return {"eq11-m5-poly": multiplier_M5(rn, rd, ctx).poly_residual}


def _depressed_form(u: mpf, v: mpf) -> mpf:
    return u ** 6 - v ** 6 + 5 * u ** 2 * v ** 2 * (u ** 2 - v ** 2) + 4 * u * v * (
        1 - u ** 4 * v ** 4
    )


def _check_thm22(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Residuals of the three modulus-pair relations at (k_r, k_25r).

    With w = sqrt(k_r k_25r) and w' = sqrt(k'_r k'_25r):

      eq13-thm22      a(r) minus the w-form
                      k^3 (k^2-1)/(w^5 - k^2 w) * (w/k + w'/k' - ww'/(kk'))^3,
                      where the reference a(r) comes from the eta route so the
                      two sides share no machinery past the solves;
      eq14-w-poly     the degree-6 polynomial in w that determines k_25r
                      from k_r;
      eq15-depressed  the quartic-root ("depressed") relation between
                      u = k_r^(1/4) and v = k_25r^(1/4).  The source states
                      that orientation, but numerically it is the *swap* that
                      vanishes; both are evaluated and the vanishing one is
                      reported, with the probe details attached.
    """
    rec = solve_singular_modulus(rn, rd, ctx)
    rec25 = solve_singular_modulus(*scale_rational(rn, rd, 25, 1), ctx)
    k, kp = rec.k, rec.k_comp
    k25, kp25 = rec25.k, rec25.k_comp
    w = mp.sqrt(k * k25)
    wp = mp.sqrt(kp * kp25)

    a_ref = a_via_eta(rec.q, ctx)
    w_form = (
        k ** 3 * (k ** 2 - 1) / (w ** 5 - k ** 2 * w)
        * (w / k + wp / kp - w * wp / (k * kp)) ** 3
    )

    res14 = (
        k ** 6
        + k ** 3 * (-16 + 10 * k ** 2) * w
        + 15 * k ** 4 * w ** 2
        - 20 * k ** 3 * w ** 3
        + 15 * k ** 2 * w ** 4
        + k * (10 - 16 * k ** 2) * w ** 5
        + w ** 6
    )

    u, v = mp.root(k, 4), mp.root(k25, 4)
    stated = _depressed_form(u, v)
    swapped = _depressed_form(v, u)
    if abs(stated) <= abs(swapped):
        res15, orientation = abs(stated), "stated (u = k_r^(1/4))"
    else:
        res15, orientation = abs(swapped), "swapped (u = k_25r^(1/4))"

    return {
        "eq13-thm22": w_form - a_ref,
        "eq14-w-poly": res14,
        "eq15-depressed": (
            res15,
            {
                "vanishing_orientation": orientation,
                "stated_residual": mp.nstr(abs(stated), 12),
                "swapped_residual": mp.nstr(abs(swapped), 12),
            },
        ),
    }


def _check_eq19(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # CF-value descent r -> r/25 against a direct evaluation at r/25
    hi, _ = rrcf_converged(nome(rn, rd, ctx), ctx)
    lo, _ = rrcf_converged(nome(*scale_rational(rn, rd, 1, 25), ctx), ctx)
    return {"eq19-v-descent": descend_v(hi, ctx) - lo}


def _check_eq24(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # a-value descent r -> r/25 against the eta quotient at r/25
    a_hi = a_via_eta(nome(rn, rd, ctx), ctx)
    a_lo = a_via_eta(nome(*scale_rational(rn, rd, 1, 25), ctx), ctx)
    return {"eq24-q-descent": descend_a(a_hi, ctx) - a_lo}


def _check_eq26(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # the defining relation at the point the ascent actually visits
    rec = solve_singular_modulus(rn, rd, ctx)
    rec_lo = solve_singular_modulus(*scale_rational(rn, rd, 1, 25), ctx)
    x = mp.root(rec.k * rec.k_comp / (rec_lo.k * rec_lo.k_comp), 12)
    return {"eq26-u-defining": u_defining_residual(x, u_map(x, ctx), ctx)}


def _check_thm31(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """The eta quotient A = f(-q^2)/(q^(1/3) f(-q^10)) at q = nome(r)
    satisfies (i) A^6 = a(4r) and (ii) the u_map defining relation against
    the invariant ratio V' = g(25r)/g(r).  Reported as one entry whose
    residual is the worse of the two, with both attached."""
    q = nome(rn, rd, ctx)
    A = eta_f(q ** 2, ctx) / (mp.cbrt(q) * eta_f(q ** 10, ctx))
    res_eta = abs(A ** 6 - a_value(*scale_rational(rn, rd, 4, 1), ctx).a)

    g_hi = g_invariant(*scale_rational(rn, rd, 25, 1), ctx).g
    res_rel = u_defining_residual(A, g_hi / g_invariant(rn, rd, ctx).g, ctx)

    return {
        "eq29-thm31": (
            max(res_eta, res_rel),
            {
                "sixth_power_vs_a(4r)": mp.nstr(res_eta, 12),
                "invariant_ratio_relation": mp.nstr(res_rel, 12),
            },
        )
    }


def _check_thm32(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Descent form of the ascent law on class invariants:
    g(r)/g(r/25) = p_map(g(25r)/g(r))."""
    g_lo = g_invariant(*scale_rational(rn, rd, 1, 25), ctx).g
    g_mid = g_invariant(rn, rd, ctx).g
    g_hi = g_invariant(*scale_rational(rn, rd, 25, 1), ctx).g
    return {"eq30-thm32": g_mid / g_lo - p_map(g_hi / g_mid, ctx)}


def _check_eq31(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # invariant from the modulus product vs the same through eta
    rec = solve_singular_modulus(rn, rd, ctx)
    g_rec = g_invariant(rn, rd, ctx).g
    kkp_eta = (
        mp.pi ** 3 * mp.sqrt(rec.q) * eta_f(rec.q ** 2, ctx) ** 6 / (2 * rec.K_k ** 3)
    )
    return {"eq31-g-def": g_rec - 1 / mp.root(2 * kkp_eta, 12)}


def _check_eq34(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # ascent form on modulus products: (s(25r)/s(r))^(1/12) = p_map((s(r)/s(r/25))^(1/12))
    rec_lo = solve_singular_modulus(*scale_rational(rn, rd, 1, 25), ctx)
    rec = solve_singular_modulus(rn, rd, ctx)
    rec_hi = solve_singular_modulus(*scale_rational(rn, rd, 25, 1), ctx)
    s = lambda rr: rr.k * rr.k_comp
    lhs = mp.root(s(rec_hi) / s(rec), 12)
    rhs = p_map(mp.root(s(rec) / s(rec_lo), 12), ctx)
    return {"eq34-thm33": lhs - rhs}


def _check_reciprocal(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # k_(1/r) = k'_r holds by construction: both solves evaluate the same
    # theta quotient at max(r, 1/r) and swap the pair.  Each side is still
    # certified by its own K-ratio residual inside the solver.
    rec = solve_singular_modulus(rn, rd, ctx)
    return {"k-reciprocal": solve_singular_modulus(rd, rn, ctx).k - rec.k_comp}


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
    ctx: Optional[PrecisionContext] = None,
) -> IdentityReport:
    """Evaluate the requested identity residuals at exact rational r.

    ids=None runs the full registry.  Unknown ids raise UsageError naming
    the registry.  Entries come back in registry order with measured
    residuals, pass flags against 10^(-tol_exp), and wall-clock cost.

    This is the one place a registry entry is made.  The groups run in one
    scope: working precision ctx.work_bits and one request memo, so each
    modulus, nome, eta value and continued fraction is computed once per
    call and a group's elapsed_ms leaves out the solves that earlier groups
    already paid for.
    Every residual a checker returns is then judged by IdentityEntry.gated,
    inside that scope.  Nothing outlives the call.
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
    with _request_memo(), workprec(ctx.work_bits):
        for group_ids, checker in _GROUPS:
            if not wanted.intersection(group_ids):
                continue
            t0 = time.perf_counter()
            residuals = checker(r_num, r_den, ctx)
            ms = int((time.perf_counter() - t0) * 1000)
            for id_, value in residuals.items():
                if id_ in wanted:
                    residual, detail = value if isinstance(value, tuple) else (value, None)
                    produced[id_] = IdentityEntry.gated(ctx, id_, residual, detail)
                    produced[id_].elapsed_ms = ms

    ordered = [produced[i] for i in REGISTRY if i in produced]
    return IdentityReport(
        r_num=r_num,
        r_den=r_den,
        precision_bits=ctx.precision_bits,
        tol_exp=ctx.tol_exp,
        entries=ordered,
    )
