"""The closed-form ascent r -> 25r for the singular modulus.

Everything here revolves around three maps of one positive real variable:

    u_star(y)   X with X^2 = (sqrt(1 + 18 y^6 + y^12) - 1)/(2 y^2) + y^4/2,
                i.e. X = y^2 sqrt(B(y^6)) with B in [1, 5] formed on
                integers (_radicand_b) from t = y^6, or from 1/t for t >= 1
    u_map(x)    the positive Y solving
                   x^2/(sqrt5 Y) - sqrt5 Y/x^2 = (Y^3 - 1/Y^3)/sqrt5,
                i.e. Y = sqrt(z) for the unique positive root z of the cubic
                   x^2 z^3 + 5 z^2 - x^4 z - x^2 = 0,
                solved as z = x w with P(w) = c w^3 + 5 w^2 - c w - 1 = 0,
                c = x^3, whose root lies in (1/sqrt5, 1) for every c > 0,
                by Newton on integers from a float seed, and gated on P's
                residual against its largest monomial (_cubic_root)
    p_map(x)    u_map( descend_a( u_star(x)^6 ) ^ (1/6) )

One rung core, _rung, gives p_map in sixth powers and takes no root but
square roots and descend_a's fifth roots: from t = x^6, u_star(x)^6 =
t^2 B(t)^3, A is descend_a of that, c = sqrt(A) is the c of u_map at
A^(1/6), and p_map(x)^6 = c w^3 for the root w of P.  p_map is the core
and one sixth root; u_map is the core's Newton and gate at c = x^3.

The ladder carries the product s(r) = k_r k'_r = 1/(2 g(r)^12) of the
class invariant g(r) = (2 k_r k'_r)^(-1/12), where Theorem 3.3,

    g(25 r) = g(r) / p_map( g(r/25)/g(r) ),

reads in sixth powers: with t = (g(r/25)/g(r))^6 = sqrt(s(r)/s(r/25)),

    s(25 r) = s(r) (p^6)^2,      p^6 = p_map(t^(1/6))^6 = _rung(t),

and each rung's p^6 is the next rung's t, so no rung and no seed takes a
root.  From s the stable quadratic branch
k^2 = 2 s^2 / (1 + sqrt(1 - 4 s^2)) gives the smaller modulus: k above
r = 1, and k' below it, where k is its complement; at r = 1, where the
branch has a double root, k = k' = sqrt(s).  Near r = 1 the branch
amplifies the rounding of s by 1/|1 - 2k^2|, and a radicand 1 - 4 s^2
that rounds below zero is taken as zero.  Each rung is certified,
relative to its size, against a fresh independent solve of the K-ratio
equation; nothing is trusted on the radicals' say-so alone.

The rung, the branch and u_star work on integer mantissas with
bigmath_kernel._INT_BITS fractional bits beyond work_bits, and switch no
working precision.  ladder climbs from r0 alone: it checks the start and
solves the two seeds, k k' at r0 and at r0/25, unless a caller passes
either in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_abs,
    mpf_div,
    mpf_mul,
    mpf_nthroot,
    mpf_sub,
    round_nearest,
)

from .bigmath_kernel import (
    BranchError,
    CertificationError,
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    Real,
    _Float,
    _GATE_INT_BITS,
    _INT_BITS,
    _MAX_ITER,
    _ONE,
    _at_bits,
    _complement,
    _fixed,
    _floats,
    _kkprime,
    _mul,
    _pow,
    _quo,
    _request_memo,
    _root,
    _rounded,
    _sqrt_raw,
    _term_sum,
    _term_text,
    _validate_rational,
    solve_singular_modulus,
    to_big,
)
from .modular_core import _descended

__all__ = [
    "BranchError",
    "LadderStep",
    "LadderTrace",
    "u_map",
    "u_star",
    "p_map",
    "g_invariant",
    "ladder",
]


#: digits the ladder's relative gate 10^-(tol_exp - GATE_SLACK_DIGITS)
#: gives up against the single-solve tolerance; see ladder
GATE_SLACK_DIGITS = 20


class LadderStep(NamedTuple):
    """One certified rung: level j takes r_(j-1) to r_j = 25 r_(j-1).  r is
    r_j = 25^j r0 exactly, and the one place a level's r is computed."""

    level: int
    r: Fraction
    x6: mpf               # (g(r_(j-1)/25) / g(r_(j-1)))^6, the rung's t
    p6: mpf               # p_map(x)^6 = _rung(t), the next level's x6
    kkprime: mpf          # s = k_(r_j) k'_(r_j) = s(r_(j-1)) p6^2 from the ascent
    k: mpf                # recovered modulus
    oracle_residual: mpf  # |k - independent solve at r_j| (absolute)


class LadderTrace(NamedTuple):
    gate_exp: int          # each rung's k certifies to a relative 10^-gate_exp
    seed_kkprime: mpf      # the seed k k' at r0 the climb used, given or solved
    seed_kkprime25: mpf    # the seed k k' at r0/25
    steps: Tuple[LadderStep, ...]


def _cubic_residual(c: _Float, w: _Float, bits: int) -> Tuple[_Float, _Float]:
    """(residual, scale): P(w) = c w^3 + 5 w^2 - c w - 1 and its largest
    monomial, the four formed on mantissas cut to `bits` bits and summed
    by _term_sum."""
    w2, cw = _mul(w, w, bits), _mul(c, w, bits)
    return _term_sum(((1, *_mul(cw, w2, bits)), (5, *w2), (-1, *cw), (-1, 1, 0)), bits)


#: bits of the cubic's root that the float seed is trusted to; the first
#: Newton level asks for no more than about twice that
_SEED_BITS = 48


def _float_seed(c: float) -> float:
    """The root of P(w) = c w^3 + 5 w^2 - c w - 1 in (1/sqrt5, 1) by Newton
    in floats from w = 1, where P = 4, until rounding ends the descent: a
    few ulps from the root.  c is 0 where it underflows a float, and
    clamped to 1e300, past which the root rounds to 1."""
    c = min(c, 1e300)
    w = 1.0
    for _ in range(_MAX_ITER):
        w_next = w - (((c * w + 5) * w - c) * w - 1) / ((3 * c * w + 10) * w - c)
        if not w_next < w:
            break
        w = w_next
    return w


def _newton_int(w: int, c: int, bits: int) -> int:
    """The Newton step from w on integers with `bits` fractional bits, for
    P(w) = c w^3 + 5 w^2 - c w - 1 and P'(w) by Horner's rule.

    c is capped at 2^(2 bits + 8): past it the root, 1 - 2/c + O(c^-2), is
    1 to within 2^-(bits+7) either way."""
    c = min(c, 1 << 2 * bits + 8)
    one = 1 << bits
    cw = c * w >> bits
    p = ((((cw + 5 * one) * w >> bits) - c) * w >> bits) - one
    dp = ((3 * cw + 10 * one) * w >> bits) - c
    return w - (p << bits) // dp


def _doubling_precisions(bits: int) -> List[int]:
    """_SEED_BITS < b_1 < ... < b_n = bits, each level half the next one's
    bits plus 8: one Newton step doubles the bits it starts from, and the
    8 guard bits absorb the few units each level's truncations cost, which
    would otherwise double with every level."""
    precs = []
    while bits > _SEED_BITS:
        precs.append(bits)
        bits = (bits + 1) // 2 + 8
    return precs[::-1]


def _cubic_root(c: _Float, ctx: PrecisionContext) -> _Float:
    """The root w of P(w) = c w^3 + 5 w^2 - c w - 1 in (1/sqrt5, 1) for
    c > 0, with frac = work_bits + 32 fractional bits, gated.

    P(1/sqrt5) = -4c/(5 sqrt5) < 0 < P(1) = 4, so the root lies in
    (1/sqrt5, 1) for every c > 0.  The start is a float Newton solve
    (_float_seed), trusted to 48 bits.  Newton then runs on integers, on c
    truncated to `frac` fractional bits (the cap of _newton_int, read from
    c's exponent, where c would pass it): one step per level of
    _doubling_precisions, each level solving for half the next one's bits
    plus 8, up to `frac`.  Nothing in the schedule is trusted: P at w must
    pass the verdict (PrecisionContext.verdict) against its largest
    monomial, the four monomials formed on mantissas and summed by
    _term_sum; otherwise a BranchError is raised (_branch_error), quoting
    P over that monomial, one correctly rounded quotient of their
    mantissas, which share one exponent."""
    frac = ctx.work_bits + _INT_BITS
    man, exp = c
    cap = 2 * frac + 8
    top = exp + man.bit_length()  # 2^(top - 1) <= c < 2^top
    ci = _fixed(man, exp, frac) if top - 1 + frac < cap else 1 << cap
    cut = max(man.bit_length() - 53, 0)  # c as a float, inf past its range
    cf = math.ldexp(man >> cut, exp + cut) if top < 1000 else math.inf
    w = _fixed(int(math.ldexp(_float_seed(cf), 64)), -64, frac)
    for bits in _doubling_precisions(frac):
        drop = frac - bits
        w = _newton_int(w >> drop, ci >> drop, bits) << drop

    root = (w, -frac)
    res, scale = _cubic_residual(c, root, ctx.work_bits + _GATE_INT_BITS)
    if not ctx.verdict(res, scale)[1]:
        raise _branch_error(c, root, _at_bits(Fraction(res[0], scale[0]), ctx.work_bits))
    return root


def _branch_error(c: _Float, w: _Float, relative: mpf) -> BranchError:
    """The BranchError for a root w of P that failed its gate.  P's signs
    change once, so w is its one positive root: no other is a branch."""
    cv, wv = (mp.make_mpf(from_man_exp(*v)) for v in (c, w))
    return BranchError(
        "c w^3 + 5 w^2 - c w - 1 at c = %s: positive root %s fails the defining "
        "relation (relative residual %s)"
        % (mp.nstr(cv, 12), mp.nstr(wv, 12), mp.nstr(relative, 6))
    )


def u_map(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """The positive branch Y(x) of the two-variable quintic relation.

    The cleared form of the relation is the cubic in z = Y^2

        x^2 z^3 + 5 z^2 - x^4 z - x^2 = 0,

    whose roots multiply to +1 and sum to -5/x^2, so exactly one is
    positive.  It is solved in the scaled variable w = z/x, where it reads

        P(w) = c w^3 + 5 w^2 - c w - 1 = 0,      c = x^3,

    the cleared cubic divided by -x^2 < 0, so the same relation.  w is
    _cubic_root at c = x^3, exact from x's mantissa: Newton on integers
    from a float seed, gated on P against its largest monomial, raising
    BranchError where the gate fails.  Y = sqrt(x w) is the root of the
    exact product of the two mantissas, rounded once to precision_bits.
    """
    xv = to_big(x, ctx)
    if xv <= 0:
        raise DomainError("u_map requires x > 0, got %s" % mp.nstr(xv, 15))
    _, man, exp, _ = xv._mpf_
    w, w_exp = _cubic_root((man * man * man, 3 * exp), ctx)
    return _sqrt_raw(man * w, exp + w_exp, ctx.precision_bits)


def _radicand_b(t: _Float, frac: int) -> int:
    """B(t) 2^frac for t > 0, truncated, where u_star(y) = y^2 sqrt(B(y^6)):

        B = (18 + t) / (2 (sqrt(1 + 18t + t^2) + 1)) + 1/2,

    or for t >= 1, with v = 1/t, B = (18v + 1) / (2 (sqrt(v^2 + 18v + 1)
    + v)) + 1/2, the subtraction in sqrt(1 + 18t + t^2) - 1 rationalized
    either way.  B lies in [1, 5], so t or v is taken to `frac` fractional
    bits and B formed on integers there; a t or v below 2^-frac is 0."""
    man, exp = t
    one = 1 << frac
    if man.bit_length() + exp <= 0:  # t < 1
        u = _fixed(man, exp, frac)
        rad = one + 18 * u + (u * u >> frac)
        b = ((18 * one + u) << frac) // (2 * (math.isqrt(rad << frac) + one))
    else:
        v = _fixed(1, frac - exp, 0) // man
        rad = (v * v >> frac) + 18 * v + one
        b = ((18 * v + one) << frac) // (2 * (math.isqrt(rad << frac) + v))
    return b + (one >> 1)


def u_star(y: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Inverse companion of u_map: the X > 0 with

        X^2 = (sqrt(1 + 18 y^6 + y^12) - 1) / (2 y^2) + y^4 / 2.

    The subtraction is rationalized, so tiny y loses nothing to
    cancellation: X = y^2 sqrt(B) with B = _radicand_b(y^6), formed on
    integers with work_bits + 32 fractional bits from y^6, which is exact
    from y's mantissa, as is y^2; X is rounded once.
    """
    yv = to_big(y, ctx)
    if yv <= 0:
        raise DomainError("u_star requires y > 0, got %s" % mp.nstr(yv, 15))
    frac = ctx.work_bits + _INT_BITS
    _, man, exp, _ = yv._mpf_
    y2_man, y2_exp = man * man, 2 * exp  # y^2, exactly
    b = _radicand_b((y2_man * y2_man * y2_man, 3 * y2_exp), frac)
    return _rounded(ctx, (y2_man * math.isqrt(b << frac), y2_exp - frac))


def _rung(t: _Float, ctx: PrecisionContext) -> _Float:
    """p_map(x)^6 from t = x^6 > 0, with no root but square roots and
    descend_a's fifth roots, each mantissa cut to work_bits + 32 bits.

    u_star(x)^6 = t^2 B(t)^3 (_radicand_b), A = descend_a of that,
    unrounded (modular_core._descended), and c = sqrt(A) is the c = X^3
    of u_map at X = A^(1/6); with w = _cubic_root(c), which raises
    BranchError where P(w) fails its gate, u_map(X) = sqrt(X w), so
    p_map(x)^6 = X^3 w^3 = c w^3."""
    frac = ctx.work_bits + _INT_BITS
    b = (_radicand_b(t, frac), -frac)
    a = _mul(_mul(t, t, frac), _pow(b, 3, frac), frac)
    c = _root(_descended(0, a, frac), frac)
    return _mul(c, _pow(_cubic_root(c, ctx), 3, frac), frac)


def p_map(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """One rung of the ascent: u_map(descend_a(u_star(x)^6)^(1/6)).

    The inner sixth power is an a-value, the descent lowers its level by 25,
    and u_map converts the descended value back to a twelfth-root ratio.
    It is the sixth root of _rung(x^6), x^6 exact from x's mantissa,
    rounded once to precision_bits."""
    xv = to_big(x, ctx)
    if xv <= 0:
        raise DomainError("p_map requires x > 0, got %s" % mp.nstr(xv, 15))
    _, man, exp, _ = xv._mpf_
    man3 = man * man * man
    p6 = _rung((man3 * man3, 6 * exp), ctx)
    return mp.make_mpf(mpf_nthroot(from_man_exp(*p6), 6, ctx.precision_bits, round_nearest))


def g_invariant(
    r_num: int, r_den: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> mpf:
    """The class invariant g(r) = (2 k_r k'_r)^(-1/12) from a certified
    solve, the twelfth root of 1/(2 s) for the solve's exact product
    s = k k' (bigmath_kernel._kkprime), rounded once to precision_bits, as
    p_map takes its sixth root.  g(1) = 1, g(1/r) = g(r), and g is
    increasing in r beyond 1 (the product k k' shrinks from 1/2)."""
    man, exp = _kkprime(r_num, r_den, ctx)
    inverse = _quo((1, 0), (man, exp + 1), ctx.work_bits + _INT_BITS)
    return mp.make_mpf(mpf_nthroot(from_man_exp(*inverse), 12, ctx.precision_bits, round_nearest))


def _k_of(s: _Float, r: Fraction, ctx: PrecisionContext) -> mpf:
    """k at r from s = k k' on integers, rounded once to precision_bits.

    k^2 = 2 s^2 / (1 + sqrt(1 - 4 s^2)) is the smaller of k^2 and k'^2,
    with 1 - 4 s^2 in fixed point, taken as zero where it rounds below
    zero or s^2 >= 1/4 (a bad seed can make s huge).  Above r = 1 it is
    k^2, and k its root; below, it is k'^2, and k = sqrt(1 - k'^2) is
    bigmath_kernel._complement of it, 0 for a k'^2 past 1; at r = 1,
    k^2 = s."""
    frac = ctx.work_bits + _INT_BITS
    prec = ctx.precision_bits
    if r == 1:
        return _sqrt_raw(*s, prec)
    one = 1 << frac
    man, exp = _mul(s, s, frac)
    # 4 s^2 >= 1 from s^2 >= 2^-2 on, so a huge s is never put in fixed point
    rad = max(one - _fixed(man, exp + 2, frac), 0) if exp + man.bit_length() <= -2 else 0
    k2 = _quo((man, exp + 1), (one + math.isqrt(rad << frac), -frac), frac)
    return _sqrt_raw(*k2, prec) if r > 1 else _complement(k2, prec)


def _missed(step: LadderStep, k: mpf, gate_exp: int, ctx: PrecisionContext) -> str:
    """The message of a rung whose k missed the oracle's k: its relative
    miss and how k's spelling from k k' scales an error of k k' (_k_of),
    each operation rounded at work_bits.  Off r = 1 that is 1/|1 - 2k^2|,
    evaluated at the oracle's k; at r = 1, where 1 - 2k^2 is zero but for
    rounding, k = sqrt(k k') halves it."""
    bits, one = ctx.work_bits, _ONE._mpf_
    relative = mpf_div(step.oracle_residual._mpf_, k._mpf_, bits, round_nearest)
    if step.r == 1:
        spelling = "k = sqrt(k k') at r = 1 halves its relative error"
    else:
        two_k2 = mpf_mul(mpf_mul(from_int(2), k._mpf_), k._mpf_, bits, round_nearest)
        gain = mpf_div(one, mpf_abs(mpf_sub(one, two_k2, bits, round_nearest)), bits, round_nearest)
        spelling = "k from k k' amplifies errors by 1/|1 - 2k^2| = " + mp.nstr(mp.make_mpf(gain), 3)
    return (
        "ladder level %d (r = %s) missed the oracle by %s "
        "(relative %s; relative gate 10^-%d; %s)"
        % (step.level, _term_text(step.r), mp.nstr(step.oracle_residual, 8),
           mp.nstr(mp.make_mpf(relative), 8), gate_exp, spelling)
    )


@_request_memo()
def ladder(
    r0_num: int,
    r0_den: int,
    n: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    *,
    kkprime_r0: Optional[Real] = None,
    kkprime_r0_over25: Optional[Real] = None,
) -> LadderTrace:
    """Climb n rungs from r0: certified k at 25 r0, 625 r0, ..., 25^n r0.

    The climb carries s = k k' (see the module docstring): from
    t_1 = sqrt(s(r0)/s(r0/25)), rung j takes p_j^6 = _rung(t_j),
    s_j = s_(j-1) (p_j^6)^2 and t_(j+1) = p_j^6, each a mantissa of
    work_bits + 32 bits, so no rung takes a root, and any r0 climbs.  Each
    level's k comes from s_j by the quadratic branch on integers (_k_of).

    The checks come first: r0, n and tol_exp, then any seed given; each
    missing seed is solved only after them, so a bad seed costs no solve.
    No point is checked ahead: a seed or rung past the solver's bound
    raises that solve's DomainError, so a climb with any n stops at its
    first rung past bigmath_kernel._R_MAX.
    The seeds are k k' at r0 and at r0/25: a given one must lie in
    (0, 1/2] (else DomainError), and a missing one is the solve's exact
    k k' (bigmath_kernel._kkprime) at max(r, 1/r), where a solve reads one
    nome.  A given seed is rounded to precision_bits where it is read, as a
    solved one is, and the trace echoes the seeds the climb starts from, so
    a replay from the echo is exact.  A context with tol_exp <=
    GATE_SLACK_DIGITS is refused (DomainError): its relative gate would be
    10^0 or looser and pass any k.

    Every level's k is checked against an independent K-ratio solve by
    the one pass rule at gate_exp = tol_exp - GATE_SLACK_DIGITS: the
    verdict (PrecisionContext.verdict) of the context at tol_exp =
    gate_exp on the miss k_j - k_oracle, formed by _term_sum as the
    two-route gates form theirs, against k_oracle.  A level passes when
    |miss| < 10^-gate_exp k_oracle, and shows |miss| rounded once as its
    oracle_residual; one that fails raises CertificationError with the
    partial trace (including the failing step) as payload; the trace's
    gate_exp records that exponent.
    The gate is relative because k shrinks like 4 e^(-pi sqrt(r)/2) up
    the ladder, so an absolute one stops checking anything within a few
    rungs; the 20 digits of slack reflect that the certified quantity
    degrades by a bounded factor per rung while tol_exp is calibrated for
    single solves.  oracle_residual stays absolute.  A rung whose cubic
    root fails its gate raises BranchError.

    At a level just off r = 1, where k k' is within rounding of 1/2, a
    radicand 1 - 4 (k k')^2 that rounds below zero is taken as zero, and
    below r = 1 a branch root past 1 (from a bad seed) is taken as 1, so
    that level certifies or raises CertificationError naming the
    amplification 1/|1 - 2k^2| (at r = 1 itself, where k = sqrt(k k'),
    naming that spelling, which halves the error), never DomainError.

    A climb runs in its own request scope (bigmath_kernel._request_memo),
    opened by the decorator, so the oracle at 25^j r0 takes its nome as the
    fifth power of the nome at 25^(j-1) r0, and a climb of up to 8 rungs
    pays for two exps, its seeds' (or, from r0 below 1, the seed's at 1/r0
    and the first oracle's); nothing is kept once it returns.
    """
    _validate_rational(r0_num, r0_den)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError("n must be a positive integer")
    gate_exp = ctx.tol_exp - GATE_SLACK_DIGITS
    if gate_exp < 1:
        raise DomainError(
            "ladder needs tol_exp >= %d, got %d: its relative gate "
            "10^-(tol_exp - %d) must lie below 1"
            % (GATE_SLACK_DIGITS + 1, ctx.tol_exp, GATE_SLACK_DIGITS)
        )
    fr0 = Fraction(r0_num, r0_den)
    seeds = {}
    # the given seeds are checked before a missing one is solved
    for name, seed, r in sorted(
        (("kkprime_r0", kkprime_r0, fr0), ("kkprime_r0_over25", kkprime_r0_over25, fr0 / 25)),
        key=lambda seed: seed[1] is None,
    ):
        if seed is None:
            r = max(r, 1 / r)  # s(1/r) = s(r), and a solve at R >= 1 reads one nome
            seeds[name] = _rounded(ctx, _kkprime(r.numerator, r.denominator, ctx))
            continue
        # rounded once, at precision_bits; to_big, exact on it, refuses inf and nan
        v = to_big(_at_bits(seed, ctx.precision_bits), ctx)
        if not 0 < v <= 0.5:
            raise DomainError("%s must lie in (0, 1/2], got %s" % (name, mp.nstr(v, 12)))
        seeds[name] = v
    seed_s, seed_s25 = seeds["kkprime_r0"], seeds["kkprime_r0_over25"]

    gate = ctx._replace(tol_exp=gate_exp)
    frac = ctx.work_bits + _INT_BITS
    s, s25 = _floats(seed_s, seed_s25)
    t = _root(_quo(s, s25, frac), frac)
    steps: List[LadderStep] = []
    rj = fr0
    for j in range(1, n + 1):
        rj *= 25
        p6 = _rung(t, ctx)
        s = _mul(s, _mul(p6, p6, frac), frac)
        k_j = _k_of(s, rj, ctx)

        oracle = solve_singular_modulus(rj.numerator, rj.denominator, ctx)
        k_f, oracle_f = _floats(k_j, oracle.k)
        gap, passed = gate.verdict(_term_sum(((1, *k_f), (-1, *oracle_f)), frac)[0], oracle_f)
        step = LadderStep(
            level=j,
            r=rj,
            x6=_rounded(ctx, t),
            p6=_rounded(ctx, p6),
            kkprime=_rounded(ctx, s),
            k=k_j,
            oracle_residual=gap,
        )
        steps.append(step)
        if not passed:
            raise CertificationError(
                _missed(step, oracle.k, gate_exp, ctx),
                payload=LadderTrace(gate_exp, seed_s, seed_s25, tuple(steps)),
            )
        t = p6
    return LadderTrace(gate_exp, seed_s, seed_s25, tuple(steps))
