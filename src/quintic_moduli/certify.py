"""The identity registry: its entry types, its sixteen checkers and the
suite runner, which judges each entry by the one pass rule.

Each registry id names one residual that independent routes of the library
must drive below 10^(-tol_exp) times its scale, the largest term it sums (of
a polynomial relation, its largest monomial).  Ids are grouped so relations
that share their solves are computed together; entries within a group report
the same wall-clock cost.  A checker only computes: it returns each residual
and its scale keyed by registry id, at the ambient precision, and raises
nothing.  It reaches every solve, nome, eta value, continued fraction,
invariant g and eta quotient a through a lookup keyed by the exact rational
point (f(-q^m) is the eta value at m^2 r), never by a power of a float nome.
run_suite alone sets that precision, opens the request memo the lookups
share, gates every residual and builds every entry, so one run_suite call
computes each value once, and a group's cost leaves out what earlier groups
already computed.  A residual that misses the gate is a failing entry, never
an abort.  The registry order is canonical: reports list entries in this
order no matter how the ids were requested.  Entries and reports are plain
data; the CLI alone turns them into JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from mpmath import mp, mpf, workprec

from .bigmath_kernel import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    _eta_at,
    _request_memo,
    _round_to,
    _solved,
    _sqrt,
    _summed,
)
from .modular_core import (
    _a_eta_at,
    _rrcf_at,
    a_via_moduli,
    descend_a,
    descend_v,
    multiplier_M5,
)
from .quintic_ladder import _g_at, _u_relation, p_map, u_map

__all__ = ["IdentityEntry", "IdentityReport", "REGISTRY", "UsageError", "run_suite"]


class UsageError(ValueError):
    """A caller asked for something the registry does not contain."""


@dataclass
class IdentityEntry:
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
    elapsed_ms: int = 0
    detail: Dict[str, str] = field(default_factory=dict)


@dataclass
class IdentityReport:
    """An ordered batch of identity checks at one (r, precision) point."""

    entries: List[IdentityEntry]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)


#: (residual, scale), or (residual, scale, the detail strings its entry carries)
Residual = Union[Tuple[mpf, mpf], Tuple[mpf, mpf, Dict[str, str]]]
Residuals = Dict[str, Residual]


def _check_eq5(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # continued fraction against the eta quotient: 1/R^5 - 11 - R^5 = a(r)
    r_cf = _rrcf_at(rn, rd, ctx)
    return {
        "eq5-eta-quotient": _summed(1 / r_cf ** 5, -11, -r_cf ** 5, -_a_eta_at(rn, rd, ctx))
    }


def _check_eq6(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # f(-q)^8 = 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4
    #         = (256 k^2 k'^8 / q)^(1/3) K^4 / pi^4
    rec = _solved(rn, rd, ctx)
    rhs = (
        mp.cbrt(256 * rec.k ** 2 * rec.k_comp ** 8 / rec.q)
        * rec.K_k ** 4
        / mp.pi ** 4
    )
    return {"eq6-eta8": _summed(_eta_at(rn, rd, ctx) ** 8, -rhs)}


def _check_eq7(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # f(-q^2)^6 = 2 k k' K^3 / (pi^3 sqrt(q)), with q^2 the nome of 4r
    rec = _solved(rn, rd, ctx)
    rhs = 2 * rec.k * rec.k_comp * rec.K_k ** 3 / (mp.pi ** 3 * _sqrt(rec.q))
    return {"eq7-eta2": _summed(_eta_at(4 * rn, rd, ctx) ** 6, -rhs)}


def _check_eq10(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """K(k_25r) = m * K(k_r) with the multiplier m rebuilt through eta
    products: the eighth-power eta identity gives K^4 at both levels (the
    nome at level 25r is q^5), so

        m^4 = (f(-q^5)/f(-q))^8 q^(4/3) (k/k_25)^(2/3) (k'/k'_25)^(8/3)

    and the residual is |m K(k_r) - K(k_25r)| against agm-route K's.
    (Polishing m through the degree-6 polynomial instead would break down
    at r = 1, where the K-ratio is a double root of that polynomial.)"""
    rec, rec25 = _solved(rn, rd, ctx), _solved(25 * rn, rd, ctx)
    m4 = (
        (_eta_at(25 * rn, rd, ctx) / _eta_at(rn, rd, ctx)) ** 8
        * rec.q
        * mp.cbrt(rec.q * (rec.k / rec25.k) ** 2 * (rec.k_comp / rec25.k_comp) ** 8)
    )
    return {"eq10-multiplier": _summed(mp.root(m4, 4) * rec.K_k, -rec25.K_k)}


def _check_eq11(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # scaled by the largest monomial of (5m - 1)^5 (1 - m) - 256 (k k')^2 m
    # expanded, not by its two sides: they cancel with 1 - m as r grows.
    # The identity is ill-conditioned near r = 1, where m5 is a double root,
    # and as r -> 0, where m5 -> 1/5 and (5m - 1)^5 is flat: at r = 1/10^4
    # and 512 bits any m5 within 3.4e-25 of the computed one passes, while
    # m5 - 1/5 = 4.1e-28.  That is the identity's conditioning, not the gate's
    m, rec = multiplier_M5(rn, rd, ctx), _solved(rn, rd, ctx)
    monomials = [c * m.m5 ** j for j, c in enumerate((-1, 26, -275, 1500, -4375, 6250, -3125))]
    monomials.append(256 * (rec.k * rec.k_comp) ** 2 * m.m5)
    return {"eq11-m5-poly": (m.poly_residual, max(map(abs, monomials)))}


def _depressed_form(u: mpf, v: mpf) -> Tuple[mpf, mpf]:
    # the monomials of u^6 - v^6 + 5 u^2 v^2 (u^2 - v^2) + 4 u v (1 - u^4 v^4)
    return _summed(
        u ** 6, -v ** 6, 5 * u ** 4 * v ** 2, -5 * u ** 2 * v ** 4,
        4 * u * v, -4 * u ** 5 * v ** 5,
    )


def _check_thm22(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Residuals of the three modulus-pair relations at (k_r, k_25r).

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
                      vanishes; both are evaluated and the vanishing one is
                      reported, with the probe details attached.
    """
    rec, rec25 = _solved(rn, rd, ctx), _solved(25 * rn, rd, ctx)
    k, kp = rec.k, rec.k_comp
    k25, kp25 = rec25.k, rec25.k_comp
    w = _sqrt(k * k25)
    wp = _sqrt(kp * kp25)

    d = (kp25 ** 2 - kp ** 2) / (k + k25) if rn < rd else k - k25
    w_form = k * kp ** 2 / (w * kp25 ** 2) * (w / k + wp / kp * d / (k + w)) ** 3

    res14 = _summed(
        k ** 6, -16 * k ** 3 * w, 10 * k ** 5 * w, 15 * k ** 4 * w ** 2,
        -20 * k ** 3 * w ** 3, 15 * k ** 2 * w ** 4, 10 * k * w ** 5,
        -16 * k ** 3 * w ** 5, w ** 6,
    )

    u, v = mp.root(k, 4), mp.root(k25, 4)
    (stated, scale15), (swapped, _) = _depressed_form(u, v), _depressed_form(v, u)
    if abs(stated) <= abs(swapped):
        res15, orientation = abs(stated), "stated (u = k_r^(1/4))"
    else:
        res15, orientation = abs(swapped), "swapped (u = k_25r^(1/4))"

    return {
        "eq13-thm22": _summed(w_form, -_a_eta_at(rn, rd, ctx)),
        "eq14-w-poly": res14,
        "eq15-depressed": (
            res15,
            scale15,
            {
                "vanishing_orientation": orientation,
                "stated_residual": mp.nstr(abs(stated), 12),
                "swapped_residual": mp.nstr(abs(swapped), 12),
            },
        ),
    }


def _check_eq19(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # CF-value descent r -> r/25 against a direct evaluation at r/25
    hi, lo = _rrcf_at(rn, rd, ctx), _rrcf_at(rn, 25 * rd, ctx)
    return {"eq19-v-descent": _summed(descend_v(hi, ctx), -lo)}


def _check_eq24(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # a-value descent r -> r/25 against the eta quotient at r/25
    a_hi, a_lo = _a_eta_at(rn, rd, ctx), _a_eta_at(rn, 25 * rd, ctx)
    return {"eq24-q-descent": _summed(descend_a(a_hi, ctx), -a_lo)}


def _check_eq26(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # the defining relation at the point the ascent actually visits,
    # x = g(r/25)/g(r) = (k k' at r / k k' at r/25)^(1/12)
    x = _g_at(rn, 25 * rd, ctx) / _g_at(rn, rd, ctx)
    return {"eq26-u-defining": _u_relation(x, u_map(x, ctx))}


def _check_thm31(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """The eta quotient A = f(-q^2)/(q^(1/3) f(-q^10)) at q = nome(r) is
    a_via_eta(4r)^(1/6), since q^2 is the nome of 4r.  It satisfies (i)
    A^6 = a(4r), checked as a_via_eta(4r) against a(4r) from the moduli
    route, and (ii) the u_map defining relation against the invariant ratio
    V' = g(25r)/g(r).  Reported as one entry, the worse of the two relative
    to its scale, with both residuals attached."""
    a_eta = _a_eta_at(4 * rn, rd, ctx)
    a_4r = _round_to(ctx, a_via_moduli(4 * rn, rd, ctx))
    res_eta, scale_eta = _summed(a_eta, -a_4r)

    v = _g_at(25 * rn, rd, ctx) / _g_at(rn, rd, ctx)
    A = mp.root(a_eta, 6)
    res_rel, scale_rel = _u_relation(A, v)

    worse = max((res_eta, scale_eta), (res_rel, scale_rel), key=lambda p: abs(p[0]) / p[1])
    return {
        "eq29-thm31": (
            *worse,
            {
                "sixth_power_vs_a(4r)": mp.nstr(abs(res_eta), 12),
                "invariant_ratio_relation": mp.nstr(abs(res_rel), 12),
            },
        )
    }


def _check_thm32(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    """Descent form of the ascent law on class invariants:
    g(r)/g(r/25) = p_map(g(25r)/g(r))."""
    g_lo = _g_at(rn, 25 * rd, ctx)
    g_mid = _g_at(rn, rd, ctx)
    g_hi = _g_at(25 * rn, rd, ctx)
    return {"eq30-thm32": _summed(g_mid / g_lo, -p_map(g_hi / g_mid, ctx))}


def _check_eq31(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # invariant from the modulus product vs the same through eta (q^2 = nome(4r))
    rec = _solved(rn, rd, ctx)
    g_rec = _g_at(rn, rd, ctx)
    kkp_eta = (
        mp.pi ** 3 * _sqrt(rec.q) * _eta_at(4 * rn, rd, ctx) ** 6 / (2 * rec.K_k ** 3)
    )
    return {"eq31-g-def": _summed(g_rec, -1 / mp.root(2 * kkp_eta, 12))}


def _check_eq34(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # ascent form on modulus products s = k k', where (s(r)/s(r'))^(1/12) = g(r')/g(r):
    # (s(25r)/s(r))^(1/12) = p_map((s(r)/s(r/25))^(1/12))
    g_lo = _g_at(rn, 25 * rd, ctx)
    g_mid = _g_at(rn, rd, ctx)
    g_hi = _g_at(25 * rn, rd, ctx)
    return {"eq34-thm33": _summed(g_mid / g_hi, -p_map(g_lo / g_mid, ctx))}


def _check_reciprocal(rn: int, rd: int, ctx: PrecisionContext) -> Residuals:
    # k_(1/r) = k'_r holds by construction: both solves evaluate the same
    # theta quotient at max(r, 1/r) and swap the pair.  Each side is still
    # certified by its own K-ratio residual inside the solver.
    return {"k-reciprocal": _summed(_solved(rd, rn, ctx).k, -_solved(rn, rd, ctx).k_comp)}


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

    ids=None runs the full registry.  Unknown ids raise UsageError naming
    the registry.  Entries come back in registry order with measured
    residuals, pass flags and wall-clock cost.

    This is the one place a registry entry is made and judged.  The groups
    run in one scope: working precision ctx.work_bits and one request memo,
    so each modulus, nome, eta value, continued fraction, invariant g and
    eta quotient a is computed once per rational point and a group's
    elapsed_ms leaves out what earlier groups already paid for.  Inside that
    scope every residual a checker returns meets the one pass rule,
    ctx.certifies: the entry stores |residual| rounded to precision_bits,
    passes when |residual| < 10^(-tol_exp) * scale, and keeps the scale in
    detail["scale"].  A failing residual is reported, not raised.  Nothing
    outlives the call.
    """
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
            for id_, (residual, scale, *detail) in residuals.items():
                if id_ in wanted:
                    res = abs(residual)
                    detail = dict(*detail, scale=mp.nstr(abs(scale), 12))
                    produced[id_] = IdentityEntry(
                        id_, _round_to(ctx, res), ctx.certifies(res, scale), ms, detail
                    )

    return IdentityReport([produced[i] for i in REGISTRY if i in produced])
