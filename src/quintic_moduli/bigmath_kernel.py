"""Arbitrary-precision kernel: AGM, complete elliptic integrals, the certified
singular-modulus solver, and the eta function f(-q) by Euler's pentagonal
series.

All values are radix-2 floats (mpmath ``mpf``) rounded to the precision of the
governing :class:`PrecisionContext`; intermediates carry ``guard_bits`` extra.

Quantities handled here:

    agm(a, b)        arithmetic-geometric mean iteration a,b <- (a+b)/2, sqrt(ab)
    K(x)             complete elliptic integral of the first kind,
                     K(x) = pi / (2 agm(1, sqrt(1 - x^2)))
    nome(p, q)       q-series variable e^(-pi sqrt(r)) for exact rational r = p/q
    k_r              singular modulus: the unique k in (0,1) with
                     K(k') / K(k) = sqrt(r),  k' = sqrt(1 - k^2)
    f(-q)            Euler-type product prod_{n>=1} (1 - q^n), summed as
                     Euler's pentagonal series

The solver evaluates k_r in closed form as a theta quotient and certifies it
through the K-ratio.  With k' = sqrt((1-k)(1+k)) one has

    K(k)  = pi / (2 agm(1, k')),     K(k') = pi / (2 agm(1, k)),

so the certified ratio K(k')/K(k) = agm(1, k')/agm(1, k) is assembled from
the two AGM legs directly, without ever forming 1 - k'^2.

Inside a ``_request_memo()`` scope, ``solve_singular_modulus``, ``nome`` and
``eta_f`` (and ``modular_core.rrcf_converged``) compute each (arguments,
context) once and hand back the same value on every later call in the scope;
outside one they always compute.  A scope lives for one call (``run_suite``
opens it), never for the process.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, TypeVar, Union

from mpmath import mp, mpf, workprec

#: Anything convertible to an mpf at context precision.
Real = Union[int, float, str, Fraction, mpf]

__all__ = [
    "Real",
    "DomainError",
    "ConvergenceError",
    "CertificationError",
    "PrecisionContext",
    "DEFAULT_CONTEXT",
    "SingularModulusRecord",
    "to_big",
    "complement",
    "agm",
    "elliptic_K",
    "nome",
    "solve_singular_modulus",
    "eta_f",
]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its target within the iteration budget,
    or a computed value left a residual above tolerance."""


class CertificationError(RuntimeError):
    """A computed value failed its independent certification check.

    Raised when two supposedly independent routes to the same quantity
    disagree above tolerance, or a ladder level misses its oracle.
    ``payload`` carries whatever partial evidence the failing operation
    collected (e.g. a LadderTrace up to and including the bad level).
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


@dataclass(frozen=True)
class PrecisionContext:
    """Immutable numeric policy threaded through every operation."""

    precision_bits: int = 512  # mantissa bits of every returned value
    tol_exp: int = 120         # certification threshold is 10**(-tol_exp)
    guard_bits: int = 64       # extra bits carried by intermediates
    max_iter: int = 10000      # iteration cap shared by all solvers

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        if self.tol_exp <= 0:
            raise ValueError("tol_exp must be positive")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be non-negative")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")
        # the acceptance threshold must be representable with room to spare
        if self.tol_exp * math.log2(10) + self.guard_bits >= self.precision_bits:
            raise ValueError(
                "tol_exp*log2(10) + guard_bits must stay below precision_bits"
            )

    @property
    def work_bits(self) -> int:
        """Mantissa bits used for intermediate computation."""
        return self.precision_bits + self.guard_bits

    def tolerance(self) -> mpf:
        """10**(-tol_exp) as an mpf at working precision."""
        with workprec(self.work_bits):
            return mpf(10) ** (-self.tol_exp)


DEFAULT_CONTEXT = PrecisionContext()


def _ctx(ctx: Optional[PrecisionContext]) -> PrecisionContext:
    return DEFAULT_CONTEXT if ctx is None else ctx


_T = TypeVar("_T")

#: values computed in the open _request_memo() scope; None outside
_MEMO: ContextVar[Optional[dict]] = ContextVar("quintic_moduli_memo", default=None)


@contextmanager
def _request_memo() -> Iterator[None]:
    """Open a memo scope for one request.

    Within the scope each solve, nome, eta and continued-fraction value is
    computed once per (arguments, context), and later calls return that
    same value, a solve's residual included.  The memo is dropped when the
    scope exits, so nothing is shared between requests.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoised(key: tuple, compute: Callable[[], _T]) -> _T:
    """compute(), or the value it gave earlier in the open scope.  An
    exception propagates and leaves nothing stored."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _round_to(ctx: PrecisionContext, x: mpf) -> mpf:
    """Round x to the context's output precision (the `+x` idiom)."""
    with workprec(ctx.precision_bits):
        return +x


def to_big(x: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Convert ``x`` to an mpf at the context's working precision.

    Accepts int, float, decimal string, Fraction, and mpf.  Fractions are
    divided at working precision rather than round-tripped through decimal.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / mpf(x.denominator)
        return mpf(x)


def _complement_raw(k: mpf) -> mpf:
    # sqrt((1-k)(1+k)): 1-k is exact for k in (1/2, 2) (Sterbenz), so no
    # cancellation for k near 1, and no 1 - k^2 rounding collapse for tiny k.
    return mp.sqrt((1 - k) * (1 + k))


def complement(x: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """sqrt(1 - x^2) for x in [0, 1], evaluated cancellation-free."""
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        xv = to_big(x, ctx)
        if xv < 0 or xv > 1:
            raise DomainError("complement requires 0 <= x <= 1, got %s" % xv)
        return _round_to(ctx, _complement_raw(xv))


def _agm_raw(a: mpf, b: mpf, ctx: PrecisionContext) -> mpf:
    """AGM limit; assumes ambient working precision and positive inputs."""
    stop = mpf(2) ** (-ctx.precision_bits + ctx.guard_bits // 2)
    for _ in range(ctx.max_iter):
        if abs(a - b) < stop * a:
            return (a + b) / 2
        a, b = (a + b) / 2, mp.sqrt(a * b)
    raise ConvergenceError("AGM did not stabilize within max_iter")


def agm(a: Real, b: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Arithmetic-geometric mean of two positive reals.

    The iteration a,b <- ((a+b)/2, sqrt(ab)) converges quadratically; it is
    stopped once |a_n - b_n| < 2^(-precision_bits + guard_bits/2) * a_n.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        av, bv = to_big(a, ctx), to_big(b, ctx)
        if av <= 0 or bv <= 0:
            raise DomainError("agm requires positive operands")
        return _round_to(ctx, _agm_raw(av, bv, ctx))


def elliptic_K(x: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """Complete elliptic integral of the first kind at modulus ``x``.

        K(x) = integral_0^{pi/2} dt / sqrt(1 - x^2 sin^2 t)
             = pi / (2 agm(1, sqrt(1 - x^2)))

    for 0 <= x < 1.  The AGM route is quadratically convergent and is the
    production path; direct quadrature of the integral is kept to the test
    suite as an independent oracle.
    """
    ctx = _ctx(ctx)
    with workprec(ctx.work_bits):
        xv = to_big(x, ctx)
        if xv < 0 or xv >= 1:
            raise DomainError("elliptic_K requires 0 <= x < 1, got %s" % xv)
        return _round_to(ctx, mp.pi / (2 * _agm_raw(mpf(1), _complement_raw(xv), ctx)))


def _validate_rational(r_num: int, r_den: int) -> None:
    if not isinstance(r_num, int) or not isinstance(r_den, int):
        raise DomainError("r must be given as exact integers r_num/r_den")
    if r_num <= 0 or r_den <= 0:
        raise DomainError("r must be positive: got %s/%s" % (r_num, r_den))


def nome(r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None) -> mpf:
    """q = exp(-pi sqrt(r)) in (0,1) for exact rational r = r_num/r_den > 0."""
    ctx = _ctx(ctx)
    _validate_rational(r_num, r_den)
    return _memoised(("nome", r_num, r_den, ctx), lambda: _nome(r_num, r_den, ctx))


def _nome(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    with workprec(ctx.work_bits):
        r = mpf(r_num) / mpf(r_den)
        return _round_to(ctx, mp.exp(-mp.pi * mp.sqrt(r)))


@dataclass(frozen=True)
class SingularModulusRecord:
    """A certified singular-modulus solve at exact rational r."""

    r_num: int
    r_den: int
    k: mpf          # the modulus in (0,1)
    k_comp: mpf     # complementary modulus sqrt(1 - k^2)
    q: mpf          # nome exp(-pi sqrt(r))
    K_k: mpf        # K(k)
    K_kcomp: mpf    # K(k_comp)
    residual: mpf   # |K(k_comp)/K(k) - sqrt(r)| evaluated at the stored pair


def solve_singular_modulus(
    r_num: int, r_den: int = 1, ctx: Optional[PrecisionContext] = None
) -> SingularModulusRecord:
    """Evaluate k_r at exact rational r and certify its K-ratio residual.

    Evaluation is the theta quotient k = (theta2(q)/theta3(q))^2 at the nome
    q = e^(-pi sqrt(R)), R = max(r, 1/r), so q <= e^-pi.  That gives the
    modulus nearer 0; its complement comes from the cancellation-free
    sqrt((1-k)(1+k)).  For r < 1 the pair is swapped (k_r = k'_(1/r)), so
    the small modulus of either orientation keeps its relative precision.

    The returned record stores values rounded to ``precision_bits``; the
    residual |agm(1, k')/agm(1, k) - sqrt(r)| is computed from the rounded
    pair, and the same two AGM legs give K(k) and K(k').

    For small r, k_r = sqrt(1 - k'_r^2) rounds to exactly 1 once k'_r^2/2
    falls below half an ulp (r below about 1/3300 at 256 bits, 1/13000 at
    512); that raises DomainError rather than hand back a k outside (0,1).
    """
    ctx = _ctx(ctx)
    _validate_rational(r_num, r_den)
    return _memoised(
        ("solve", r_num, r_den, ctx), lambda: _solve(r_num, r_den, ctx)
    )


def _solve(r_num: int, r_den: int, ctx: PrecisionContext) -> SingularModulusRecord:
    with workprec(ctx.work_bits):
        target = mp.sqrt(mpf(r_num) / mpf(r_den))
        reflect = r_num < r_den
        q_r = mp.exp(-mp.pi * target)  # the nome of r itself, for the record
        # the theta quotient runs at the nome of max(r, 1/r)
        q = mp.exp(-mp.pi * mp.sqrt(mpf(r_den) / mpf(r_num))) if reflect else q_r
        small = _round_to(ctx, (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 2)
        big = _round_to(ctx, _complement_raw(small))
        if reflect and big == 1:
            raise DomainError(
                "k at r=%s/%s rounds to 1 at %d bits; only k_comp = %s carries "
                "its digits (raise the precision, --prec)"
                % (r_num, r_den, ctx.precision_bits, mp.nstr(small, 8))
            )
        k, k_comp = (big, small) if reflect else (small, big)

        agm_k = _agm_raw(mpf(1), k, ctx)  # pi / (2 K(k'))
        agm_comp = _agm_raw(mpf(1), k_comp, ctx)  # pi / (2 K(k))
        residual = abs(agm_comp / agm_k - target)
        if not residual < ctx.tolerance():
            raise ConvergenceError(
                "solve at r=%s/%s left residual %s above tolerance"
                % (r_num, r_den, mp.nstr(residual, 8))
            )
        return SingularModulusRecord(
            r_num=r_num,
            r_den=r_den,
            k=k,
            k_comp=k_comp,
            q=_round_to(ctx, q_r),
            K_k=_round_to(ctx, mp.pi / (2 * agm_comp)),
            K_kcomp=_round_to(ctx, mp.pi / (2 * agm_k)),
            residual=_round_to(ctx, residual),
        )


#: hard cap on the largest power q^n the eta series may have to reach;
#: reached only for q pathologically close to 1
_ETA_TERM_CAP = 10_000_000


def _neg_ln(x: mpf) -> float:
    """-ln x as a float for 0 < x < 1, from x's mantissa and exponent.

    Only sizes a truncation or a precision, so float accuracy suffices, and it
    avoids mpmath's log (whose Taylor cache costs a series per new argument
    range).  Near 1 it uses log1p of the exact 1 - x; it returns 0.0 when x
    is within 2^-1074 of 1.
    """
    if x > 0.5:
        return -math.log1p(-float(1 - x))
    return -(math.log(x.man) + x.exp * math.log(2))


def eta_f(q: Real, ctx: Optional[PrecisionContext] = None) -> mpf:
    """f(-q) = prod_{n>=1} (1 - q^n) for 0 < q < 1, by Euler's pentagonal series

        f(-q) = 1 + sum_{k>=1} (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)),

    which reaches q^n with about sqrt(2n/3) terms where the product needs n
    factors.  Near q = 1 the terms (up to about 1) cancel down to
    f(-q) ~ exp(-pi^2 / (6 |ln q|)), so the sum runs at work_bits plus
    ceil(pi^2 / (6 ln2 |ln q|)) + 8 bits, and stops at the first term below
    2^-(that precision).
    """
    ctx = _ctx(ctx)
    qv = to_big(q, ctx)
    if not (0 < qv < 1):
        raise DomainError("eta_f requires 0 < q < 1, got %s" % qv)
    return _memoised(("eta", qv, ctx), lambda: _eta(qv, ctx))


def _eta(qv: mpf, ctx: PrecisionContext) -> mpf:
    t = _neg_ln(qv)
    # the sum reaches q^n < 2^-bits at n = bits ln2 / t; the cap test is
    # that bound times t^2, so that t = 0 is refused too
    pi2_6 = math.pi ** 2 / 6
    if (ctx.work_bits + 9) * math.log(2) * t + pi2_6 > _ETA_TERM_CAP * t * t:
        raise ConvergenceError("eta series needs too many terms (q ~ 1?)")
    bits = ctx.work_bits + math.ceil(pi2_6 / (math.log(2) * t)) + 8
    with workprec(bits):
        cutoff = mp.ldexp(1, -bits)
        acc = mpf(1)
        a = qv  # q^(k(3k-1)/2), from k = 1
        if a >= cutoff:
            q3 = qv * qv * qv
            qk = qv          # q^k
            step = q3 * qv   # a_(k+1) / a_k = q^(3k+1)
            odd = True
            while a >= cutoff:
                term = a + a * qk
                acc = acc - term if odd else acc + term
                a *= step
                step *= q3
                qk *= qv
                odd = not odd
    return _round_to(ctx, acc)
