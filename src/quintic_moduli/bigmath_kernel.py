"""Arbitrary-precision kernel: AGM, complete elliptic integrals, the certified
singular-modulus solver, and the eta function f(-q) by Euler's pentagonal
series.

All values are radix-2 floats (mpmath ``mpf``) rounded to the precision of the
governing :class:`PrecisionContext`; intermediates carry 64 more (_GUARD_BITS).

Square roots and rounding work on mpf mantissas directly: ``_sqrt_raw``
takes the steps of mpmath's ``mpf_sqrt`` with its integer root from
``math.isqrt``, and ``_at_bits`` calls mpmath's ``libmp`` rounding
primitives at the bits it needs.  The pass rule,
``PrecisionContext.verdict``, rounds nothing: it compares integers
exactly.  No module calls ``mp.sqrt``.  Each quantity of a solve's pair
(k, k') has one spelling, here, for every module: ``_complement`` takes
sqrt(1 - x) of a modulus's square x, and ``_kkprime`` the product
s = k k'.

Quantities handled here:

    agm(a, b)        arithmetic-geometric mean iteration a,b <- (a+b)/2, sqrt(ab)
    K(x)             complete elliptic integral of the first kind,
                     K(x) = pi / (2 agm(1, sqrt(1 - x^2)))
    nome(p, q)       q-series variable e^(-pi sqrt(r)) for exact rational r = p/q
    k_r              singular modulus: the unique k in (0,1) with
                     K(k') / K(k) = sqrt(r),  k' = sqrt(1 - k^2)
    f(-q)            Euler-type product prod_{n>=1} (1 - q^n), summed as
                     Euler's pentagonal series

The solver evaluates k_r in closed form as a theta quotient, from the sums
E = theta3(q^4) and O = theta2(q^4) on integers, and certifies it through
the K-ratio.  The pass gives the modulus nearer 0, s, and theta3(q)^2 =
(E + O)^2; with s' = sqrt(1 - s^2), the root of an exact integer,

    K(s) = (pi/2) theta3(q)^2 (Jacobi),     K(s') = pi / (2 agm(1, s)),

so the certified ratio K(s)/K(s') = agm(1, s) theta3(q)^2, or its inverse,
takes one AGM leg: the theta and AGM routes meet only in its residual.

The AGM runs on integers, from its first step: while a and b lie far apart
each is an integer of work_bits + 32 bits with its own exponent, so no
integer grows with r; once |a - b| < 2^(-(work_bits + 40)/4) a it returns
(a + b)/2 - (a - b)^2 / (8 (a + b)), whose error is of order (a - b)^4, and
hands back the integer and its exponent.  The solver forms its residual
from that integer times theta3^2's against sqrt(r) by math.isqrt of the
exact rational, judged by ``verdict`` on that pair, and each K against
mpmath's cached fixed-point pi.  From its nome to its record the solve
works on integers and mantissas and builds an mpf only for each field.

One rule holds in every module, without exception: each value a function
returns, each residual a gate judges and each number a message prints is
formed on integers and mantissas and rounded at stated bits, so no module
switches or reads mpmath's ambient precision.  A value becomes an mpf
at stated bits by one rounding, ``_at_bits`` (of an mpf, a pair
(man, exp), a Fraction or anything mpf() reads), and each value a
function hands back by ``_rounded``, _at_bits at precision_bits.  Every
gate takes its pass flag, and the gap it shows, from the one pass rule,
``PrecisionContext.verdict``, exact on the integers of its two pairs.
A message quotes r by ``_term_text``, a term past Python's 4300-digit
int-to-str limit by its bit length, and a refused real by ``mp.nstr`` at
15 digits.  The integer kernels
carry ``_INT_BITS`` bits beyond work_bits and reach that fixed point
from a mantissa by one conversion, ``_fixed``.  A value held as a
mantissa and an exponent (a ``_Float``) has one arithmetic, here:
``_mul``, ``_pow``, ``_product``, ``_quo``, ``_plus`` and ``_root`` cut
each result to a given number of bits, and every module forms its
products, powers, quotients and roots of mantissas with them.  A
residual is summed by ``_term_sum`` into an exact sum and scale, each a
mantissa and an exponent, as the verdict reads them.  A
solve gates its K-ratio residual times an integer bound on the ratio's
sensitivity to k, so a pass vouches for tol_exp digits of k at every r.
It refuses an r with max(r, 1/r) above ``_R_MAX``, about 4.05e39,
before its nome is taken; nothing else refuses r for its size.

The public functions always compute.  Values shared within a request are
looked up by their exact rational point r: ``_solved``, ``_nome`` and
``_eta_at`` here and ``modular_core._rrcf_at`` and ``_a_eta_at`` key each
value on plain ints, (kind, n, d, precision_bits, tol_exp) with r = n/d in
lowest terms, so f(-q^m) is the eta value at m^2 r.  Inside a
``_request_memo()`` scope a lookup computes each key once and hands back
the same value on every later call; outside one it computes.  A scope lives
for one call (``certify.run_suite``, ``quintic_ladder.ladder`` and
``modular_core.rrcf_value`` open it), never for the process.  The key is
always the exact point.  Every point a request reads is r times a rational
square, so the nome lookup there takes the nome at r = n/d as the m-th
power of a held nome at r/m^2, m = 5, 2 or n, and below 1 it first takes
the nome at 1/(nd), whose n-th and d-th powers are the nomes at r and 1/r.
So only the first nome of each chain takes an exp (``_chained_nome``
decides each route, ``_nome`` bounds the chains), and a solve below 1,
which opens a scope of its own where none is open, takes one exp for its
nomes at r and 1/r.

Below ``_REFLECT_BELOW`` (r = 1/25) the eta, continued-fraction and
eta-quotient lookups take their value from a reflected point whose nome
lies near 0, where a series needs few terms: ``_eta_at`` by Dedekind's
eta(i/alpha) = sqrt(alpha) eta(i alpha) from the value at 16/r,
``modular_core._rrcf_at`` by Ramanujan's reciprocity from 16/r, and
``modular_core._a_eta_at`` by the Fricke involution from 16/(25r).  A
public function that takes r (solve_singular_modulus, nome, a_via_eta,
rrcf_value and all built on them) is accurate at every r; one that takes
q (eta_f, rrcf_converged, rrcf_truncated) sums at the q it is given.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple, TypeVar, Union

from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    mpf_pos,
    normalize,
    round_nearest,
    to_float,
)
from mpmath.libmp.libelefun import mpf_exp, pi_fixed

#: Anything convertible to an mpf at context precision.
Real = Union[int, float, str, Fraction, mpf]

__all__ = [
    "Real",
    "DomainError",
    "ConvergenceError",
    "CertificationError",
    "BranchError",
    "UsageError",
    "PrecisionContext",
    "DEFAULT_CONTEXT",
    "SingularModulusRecord",
    "to_big",
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


class BranchError(RuntimeError):
    """The root of u_map's cubic failed its defining relation."""


class UsageError(ValueError):
    """A caller asked for something the registry does not contain."""


#: extra mantissa bits every intermediate carries beyond precision_bits
_GUARD_BITS = 64


class _Precision(NamedTuple):
    precision_bits: int  # mantissa bits of every returned value
    tol_exp: int         # certification threshold is 10**(-tol_exp)


class PrecisionContext(_Precision):
    """Immutable numeric policy threaded through every operation: a named
    tuple (precision_bits, tol_exp), validated on every construction path,
    _replace and _make included."""

    __slots__ = ()

    def __new__(cls, precision_bits: int = 512, tol_exp: int = 120) -> PrecisionContext:
        # a bool is an int to isinstance, but no count of bits or digits
        if type(precision_bits) is bool or type(tol_exp) is bool or not (
            isinstance(precision_bits, int) and isinstance(tol_exp, int)
        ):
            raise ValueError("precision_bits and tol_exp must be integers")
        if precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        if tol_exp <= 0:
            raise ValueError("tol_exp must be positive")
        # the acceptance threshold must be representable with room to spare;
        # log2(10) > 1, so the integer test refuses first what the float
        # product would, and a tol_exp past the float range never reaches it
        if tol_exp >= precision_bits or tol_exp * math.log2(10) + _GUARD_BITS >= precision_bits:
            raise ValueError(
                "tol_exp*log2(10) + %d guard bits must stay below precision_bits"
                % _GUARD_BITS
            )
        return super().__new__(cls, precision_bits, tol_exp)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> PrecisionContext:
        # the namedtuple _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def work_bits(self) -> int:
        """Mantissa bits used for intermediate computation."""
        return self.precision_bits + _GUARD_BITS

    def verdict(self, residual: Operand, scale: Operand, times: int = 1) -> Tuple[mpf, bool]:
        """The one pass rule: (|residual| rounded once to precision_bits,
        whether times |residual| < 10**(-tol_exp) |scale|), the gap a gate
        shows and its pass flag, from the same operands.  scale is the size
        of the terms the residual sums, and times an integer bound on the
        residual's sensitivity to the value it certifies: the solve's bound
        above S, 1 elsewhere.  Each operand is a pair (man, exp), man 2^exp
        with man of either sign, as _term_sum sums it.  The comparison is
        exact: times |m_r| 10^tol_exp 2^(e_r - e_s) against |m_s|, decided
        by bit lengths and shifted only where those tie, so no integer
        grows with the exponent gap.  A zero scale fails every residual."""
        (man, exp), (s_man, s_exp) = residual, scale
        lhs, rhs, shift = abs(man) * times * 10 ** self.tol_exp, abs(s_man), exp - s_exp
        top = lhs.bit_length() + shift - rhs.bit_length()
        if not (lhs and rhs):
            passed = lhs < rhs
        elif top:
            passed = top < 0
        else:
            passed = lhs << shift < rhs if shift >= 0 else lhs < rhs << -shift
        return _at_bits((abs(man), exp), self.precision_bits), passed


DEFAULT_CONTEXT = PrecisionContext()

#: iteration cap on each of the AGM's two phases and on u_map's float seed
#: (quintic_ladder._float_seed)
_MAX_ITER = 10_000


_T = TypeVar("_T")

#: values computed in the open _request_memo() scope; None outside
_MEMO: ContextVar[Optional[dict]] = ContextVar("quintic_moduli_memo", default=None)


@contextmanager
def _request_memo() -> Iterator[None]:
    """Open a memo scope for one request.

    Within the scope each lookup computes its value once per (rational
    point, context), and later lookups return that same value, a solve's
    residual included.  The memo is dropped when the scope exits, so nothing
    is shared between requests.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _key(kind: str, n: int, d: int, ctx: PrecisionContext) -> tuple:
    """The memo key of a value of `kind` at r = n/d in lowest terms."""
    return kind, n, d, ctx.precision_bits, ctx.tol_exp


def _memoised(
    kind: str, compute: Callable[..., _T], r_num: int, r_den: int, ctx: PrecisionContext
) -> _T:
    """compute(n, d, ctx) at r = n/d in lowest terms, or the value it gave
    earlier in the open scope for the same key (kind, n, d, precision_bits,
    tol_exp); no computed value is None.  An exception propagates and leaves
    nothing stored."""
    _validate_rational(r_num, r_den)
    g = math.gcd(r_num, r_den)
    n, d = r_num // g, r_den // g
    memo = _MEMO.get()
    if memo is None:
        return compute(n, d, ctx)
    key = _key(kind, n, d, ctx)
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute(n, d, ctx)
    return value


#: a value man 2^exp with man >= 0 as (man, exp): the operand of the
#: mantissa arithmetic below
_Float = Tuple[int, int]

#: an operand of PrecisionContext.verdict: (man, exp) with man of either sign
Operand = Tuple[int, int]


def _rounded(ctx: PrecisionContext, x: Union[mpf, Operand]) -> mpf:
    """x, an mpf or a pair (man, exp), rounded once to nearest at the context's
    output precision: how every value a function hands back is rounded."""
    return _at_bits(x, ctx.precision_bits)


def _at_bits(x: Union[Real, Operand], bits: int) -> mpf:
    """x rounded once to nearest at `bits`: an mpf on its mantissa, a pair
    (man, exp) as man 2^exp (its bit count by int.bit_length, which is C,
    where mpmath's pure-Python from_man_exp counts in Python), a Fraction
    by one correctly rounded division, anything else as mpf() reads it at
    those bits.  The one place a value is rounded to an mpf, at any bits."""
    if isinstance(x, mpf):
        return mp.make_mpf(mpf_pos(x._mpf_, bits, round_nearest))
    if isinstance(x, tuple):
        man, exp = x
        sign, man = (1, -man) if man < 0 else (0, man)
        return mp.make_mpf(normalize(sign, man, exp, man.bit_length(), bits, round_nearest))
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, bits, round_nearest))
    return mpf(x, prec=bits, rounding=round_nearest)


def to_big(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Convert ``x`` to an mpf at the context's working precision.

    Accepts int, float, decimal string, Fraction and mpf, each rounded once
    to nearest at work_bits (``_at_bits``; a Fraction by one division).
    +-inf and nan raise DomainError: every public function that takes a
    Real reads it here.
    """
    x = _at_bits(x, ctx.work_bits)
    if not x._mpf_[1] and x._mpf_[2]:  # no mantissa but an exponent: +-inf, nan
        raise DomainError("expected a finite real, got %s" % mp.nstr(x, 15))
    return x


def _sqrt_raw(man: int, exp: int, prec: int) -> mpf:
    """sqrt(man 2^exp) for an integer man >= 0, an mpf rounded once to
    nearest at `prec`: the bits mpmath's libmpf.mpf_sqrt gives under
    round-nearest, with the floor root from math.isqrt, which is C, where
    mpmath's pure-Python backend takes it in Python.  The root is taken to
    at least prec + 2 bits, and an inexact one gets a sticky bit below it,
    as mpf_sqrt does for a nonzero remainder, so the final rounding sees
    which side of the root the true value lies."""
    if exp & 1:
        exp -= 1
        man <<= 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    m = man << shift
    root = math.isqrt(m)
    if root * root != m:
        root = (root << 1) + 1
        shift += 2
    return mp.make_mpf(from_man_exp(root, (exp - shift) // 2, prec, round_nearest))


#: bits every integer kernel carries beyond work_bits, and how close (in
#: binary orders of magnitude) the AGM's a and b must be to end its
#: wide-gap phase
_INT_BITS = 32

#: the AGM's first operand in K(x) = pi / (2 agm(1, sqrt(1 - x^2))), and
#: the complement of a tiny square (_complement)
_ONE = mp.make_mpf(from_int(1))


def _fixed(man: int, exp: int, frac: int) -> int:
    """man 2^exp for man >= 0 as an integer with `frac` fractional bits,
    truncated: the one conversion to fixed point."""
    shift = exp + frac
    return man << shift if shift >= 0 else man >> -shift


def _complement(square: _Float, prec: int) -> mpf:
    """sqrt(1 - x) for the square x = man 2^exp >= 0 of a modulus, rounded
    once to nearest at `prec` bits: k' from k^2, or k from k'^2.  With
    exp < 0, 1 - x = (2^(-exp) - man) 2^exp is an exact integer times a
    power of two, so nothing cancels for x near 1 and nothing is lost for a
    tiny x.

    That integer is about |exp| bits wide, so a tiny x skips it: x <
    2^-(prec + 2) puts sqrt(1 - x) within an eighth of an ulp below 1,
    which rounds to 1, as x = 0 gives.  An x >= 1 gives 0."""
    man, exp = square
    if not man or exp + man.bit_length() <= -(prec + 2):
        return _ONE
    return _sqrt_raw(max((1 << -exp) - man, 0) if exp < 0 else 0, exp, prec)


def _truncated(man: int, exp: int, bits: int) -> _Float:
    """man 2^exp with man >= 0 cut to its top `bits` bits."""
    drop = man.bit_length() - bits
    return (man >> drop, exp + drop) if drop > 0 else (man, exp)


def _floats(*values: mpf) -> List[_Float]:
    """Each positive mpf as a _Float."""
    return [v._mpf_[1:3] for v in values]


def _pi(bits: int) -> _Float:
    """pi to `bits` fractional bits, from mpmath's cached fixed point."""
    return pi_fixed(bits), -bits


def _mul(x: _Float, y: _Float, bits: int) -> _Float:
    """x y, cut to `bits` bits."""
    return _truncated(x[0] * y[0], x[1] + y[1], bits)


def _pow(x: _Float, n: int, bits: int) -> _Float:
    """x^n for n >= 1 by binary powering, each product cut to `bits` bits."""
    result = x if n & 1 else None
    n >>= 1
    while n:
        x = _mul(x, x, bits)
        if n & 1:
            result = x if result is None else _mul(result, x, bits)
        n >>= 1
    return result


def _product(bits: int, x: _Float, *factors: _Float) -> _Float:
    """x times each factor in turn, each product cut to `bits` bits."""
    for y in factors:
        x = _mul(x, y, bits)
    return x


def _quo(x: _Float, y: _Float, bits: int) -> _Float:
    """x / y for y > 0 to about `bits` bits, truncated."""
    shift = bits + y[0].bit_length() - x[0].bit_length()
    return _fixed(x[0], shift, 0) // y[0], x[1] - y[1] - shift


def _plus(x: _Float, y: _Float, bits: int, sign: int = 1) -> _Float:
    """x + sign y >= 0 on the scale that gives the larger `bits` bits, each
    operand truncated there."""
    unit = max(x[0].bit_length() + x[1], y[0].bit_length() + y[1]) - bits
    return _fixed(x[0], x[1], -unit) + sign * _fixed(y[0], y[1], -unit), unit


def _root(x: _Float, bits: int) -> _Float:
    """sqrt(x) to about `bits` bits, truncated, by math.isqrt."""
    shift = 2 * bits - x[0].bit_length()
    shift += (x[1] - shift) & 1
    return math.isqrt(_fixed(x[0], shift, 0)), (x[1] - shift) // 2


#: bits each power and monomial of a relation summed on integers
#: (_term_sum) keeps beyond work_bits
_GATE_INT_BITS = 48


def _term_sum(terms: Iterable[Tuple[int, int, int]], bits: int) -> Tuple[Tuple[int, int], _Float]:
    """(sum, largest |term|) of terms c man 2^exp, given as (c, man, exp)
    with man >= 0 and a small integer c: a residual with the scale the
    verdict judges it by.  Each man 2^exp is cut to its top `bits` bits
    and put on the scale that gives the largest nonzero one `bits` bits,
    and the integers, times their c, are summed.  Both results are exact
    pairs (man, exp) on that scale, the sum's man of either sign, so their
    quotient is their mantissas'."""
    cut = [(c, *_truncated(man, exp, bits)) for c, man, exp in terms]
    unit = max((man.bit_length() + exp for _, man, exp in cut if man), default=0) - bits
    fixed = [c * _fixed(man, exp, -unit) for c, man, exp in cut]
    return (sum(fixed), unit), (max(map(abs, fixed)), unit)


def _agm_raw(a: mpf, b: mpf, ctx: PrecisionContext) -> Tuple[int, int]:
    """AGM limit of two positive mpf values as (M, e), the value M 2^e with
    M an integer of about work_bits + _INT_BITS bits.

    Every step runs on integers, with math.isqrt for the square root, which
    is C, where mpmath's pure-Python backend takes its square roots in
    Python.  While a and b lie more than 2^_INT_BITS apart, each is an
    integer of work_bits + _INT_BITS bits with its own exponent, so a tiny b
    (k = 2.6e-682 at r = 10^6) keeps its relative precision and no integer
    grows with the gap: (a + b)/2 is taken on the larger one's scale and
    sqrt(ab) is math.isqrt of the exact product, at most
    2 (work_bits + _INT_BITS) + 1 bits.  The gap's logarithm halves at each
    such step, so they are few.  After that both sit on the scale that gives
    the larger one those bits.  The steps stop once
    |a - b| < 2^(-(work_bits + 40)/4) a and return
    (a + b)/2 - (a - b)^2 / (8 (a + b)), the limit of those integers up to
    a term 5 e^4 (a + b) / 128 with e = (a - b)/(a + b), below
    2^-(work_bits + 47) relative.  Stopping at 2^(-(work_bits + 40)/2)
    instead would leave (a - b)^2 / (8 (a + b)) itself under that bit, one
    step later.  The limit's error is set where b goes onto a's scale: b,
    up to 2^gap below a (gap <= _INT_BITS), keeps bits - gap bits, and the
    AGM sees that relative error through 1/ln 2^(gap + 2), so the limit lies
    within 2^32 / ln 2^34 < 2^28 units of 2^-(work_bits + 32) relative
    (measured up to 6e7 at _R_MAX), over 60 bits below precision_bits.
    """
    bits = ctx.work_bits + _INT_BITS
    (ma, ea), (mb, eb) = a.man_exp, b.man_exp
    for _ in range(_MAX_ITER):
        top_a, top_b = ma.bit_length() + ea, mb.bit_length() + eb
        if abs(top_a - top_b) <= _INT_BITS:
            break
        ua, ub = top_a - bits, top_b - bits  # each operand `bits` bits wide
        ia, ib = _fixed(ma, ea, -ua), _fixed(mb, eb, -ub)
        unit, odd = max(ua, ub), (ua + ub) & 1  # an even exponent for the root
        ma, ea = (ia >> unit - ua) + (ib >> unit - ub), unit - 1
        mb, eb = math.isqrt(ia * ib << odd), (ua + ub - odd) // 2
    else:
        raise ConvergenceError("AGM did not stabilize within %d steps" % _MAX_ITER)

    unit = max(top_a, top_b) - bits
    ia, ib = _fixed(ma, ea, -unit), _fixed(mb, eb, -unit)
    stop_shift = (ctx.work_bits + 43) // 4
    for _ in range(_MAX_ITER):
        gap = ia - ib
        if abs(gap) << stop_shift < ia:
            total = ia + ib
            return total - gap * gap // (4 * total), unit - 1
        ia, ib = (ia + ib) >> 1, math.isqrt(ia * ib)
    raise ConvergenceError("AGM did not stabilize within %d steps" % _MAX_ITER)


def _half_pi_over(man: int, exp: int, ctx: PrecisionContext) -> Tuple[int, int]:
    """pi / (2 man 2^exp) as (M, e), M of about work_bits + _INT_BITS
    bits, from mpmath's cached fixed-point pi: K from an AGM limit."""
    shift = man.bit_length() + ctx.work_bits + _INT_BITS
    return pi_fixed(shift) // man, -shift - exp - 1


def agm(a: Real, b: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Arithmetic-geometric mean of two positive reals.

    The iteration a,b <- ((a+b)/2, sqrt(ab)) converges quadratically.  It
    runs on integers (_agm_raw), with math.isqrt for the square root:
    while a and b are more than 2^32 apart each is an integer of
    work_bits + 32 bits with its own exponent, so agm(1, 1e-1000000) builds
    no wider integer than agm(1, 1/2); then both sit on the scale that
    gives the larger one those bits, until |a_n - b_n| <
    2^(-(work_bits + 40)/4) a_n.  It finishes with (a_n + b_n)/2 -
    (a_n - b_n)^2 / (8 (a_n + b_n)), rounded once to precision_bits.
    """
    av, bv = to_big(a, ctx), to_big(b, ctx)
    if av <= 0 or bv <= 0:
        raise DomainError("agm requires positive operands")
    return _rounded(ctx, _agm_raw(av, bv, ctx))


def elliptic_K(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Complete elliptic integral of the first kind at modulus ``x``.

        K(x) = integral_0^{pi/2} dt / sqrt(1 - x^2 sin^2 t)
             = pi / (2 agm(1, sqrt(1 - x^2)))

    for 0 <= x < 1.  The AGM route is quadratically convergent and is the
    production path; pi / (2 agm) is one integer quotient, rounded once.
    Direct quadrature of the integral is kept to the test suite as an
    independent oracle.
    """
    xv = to_big(x, ctx)
    if xv < 0 or xv >= 1:
        raise DomainError("elliptic_K requires 0 <= x < 1, got %s" % mp.nstr(xv, 15))
    _, man, exp, _ = xv._mpf_
    man, exp = _agm_raw(_ONE, _complement((man * man, 2 * exp), ctx.work_bits), ctx)
    return _rounded(ctx, _half_pi_over(man, exp, ctx))


#: the largest R = max(r, 1/r) a solve accepts, floor((2 10^20 / pi)^2).
#: The smaller modulus of the pair is about 4 e^(-pi sqrt(R)/2), and the
#: K-ratio sees a relative error d in it only as d / S, S <= pi sqrt(R)/2,
#: which the solve's gate multiplies back.  Up to pi sqrt(R)/2 = 10^20
#: (R about 4.05e39) that product uses 67 of the 128 bits between the
#: gate and work_bits, and a ladder rung, which loses log10 S digits,
#: stays within the 20 digits of slack its gate allows.
_R_MAX = (4 * 10 ** 40 << 512) // pi_fixed(256) ** 2


def _term_text(x: Union[int, Fraction]) -> str:
    """str(x) for an int or a Fraction, each term past Python's
    int-to-str limit given by its bit length instead: how every message
    quotes r or a term of it."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            return "%s/%s" % (_term_text(x.numerator), _term_text(x.denominator))
        x = x.numerator
    try:
        return str(x)
    except ValueError:
        return "%s<%d-bit integer>" % ("-" if x < 0 else "", x.bit_length())


def _validate_rational(r_num: int, r_den: int) -> None:
    # a bool is an int to isinstance, but no term of a rational
    if type(r_num) is bool or type(r_den) is bool or not (
        isinstance(r_num, int) and isinstance(r_den, int)
    ):
        raise DomainError("r must be given as exact integers r_num/r_den")
    if r_num <= 0 or r_den <= 0:
        raise DomainError("r must be positive: got %s/%s" % (_term_text(r_num), _term_text(r_den)))


def nome(r_num: int, r_den: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """q = exp(-pi sqrt(r)) in (0,1) for exact rational r = r_num/r_den > 0."""
    _validate_rational(r_num, r_den)
    return _rounded(ctx, _exp_nome(r_num, r_den, ctx))


def _exp_nome(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    """exp(-pi sqrt(r)) at working precision: the one spelling of the
    nome's exp, which `nome` and the first nome of each chain take (_nome).

    pi sqrt(r) is formed on integers with `frac` fractional bits, sqrt(r) by
    math.isqrt of the exact rational and pi from mpmath's cached fixed
    point, so its absolute error, a few units times sqrt(r), stays below
    2^-(work_bits + 16); one call of mpmath's mpf_exp takes it from there.
    The exponent's absolute error is the nome's relative error."""
    frac = ctx.work_bits + 20 + max(0, r_num.bit_length() - r_den.bit_length()) // 2
    arg = pi_fixed(frac) * math.isqrt((r_num << 2 * frac) // r_den) >> frac
    return mp.make_mpf(mpf_exp(from_man_exp(-arg, -frac), ctx.work_bits, round_nearest))


#: the largest product of the powers m along one chain of nomes (_nome)
_NOME_CHAIN_MAX = 1 << 19


def _nome(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    """The working-precision nome at r, which the solver reads and the eta
    and continued-fraction lookups round; shared within a request scope.

    The nome at m^2 r is the nome at r to the m-th power, so in a scope
    the nome at r may be a link: a held nome's m-th power, by _pow on its
    mantissa with _INT_BITS guard bits, rounded once to work_bits
    (_chained_nome picks the base); otherwise, and outside a scope, it is
    _exp_nome's one exp.  A ladder from r0 thus takes the exps of its two
    seeds, and the nome at each oracle 25^j r0 is a power of the one below.

    A link multiplies its base's relative error by m and adds one rounding
    of 2^-work_bits, so a nome whose chain's powers multiply to A lies
    within 2 A units of 2^-work_bits of exp(-pi sqrt(r)), relative.  Each
    entry holds A beside its nome, and a link that would take A past
    _NOME_CHAIN_MAX = 2^19 takes a fresh exp instead, so every nome lies
    within 2^-(work_bits - 20) relative, 44 bits below the rounding to
    precision_bits.  A chain of m = 5 links is at most 8 long (5^8 =
    390625), so a climb of 28 rungs takes 5 exps."""
    return _memoised("nome", _chained_nome, r_num, r_den, ctx)[0]


def _chained_nome(n: int, d: int, ctx: PrecisionContext) -> Tuple[mpf, int]:
    """(nome at r = n/d in lowest terms, the product of the powers along its
    chain, 1 for an exp): _nome's entry, the one place a nome's route is
    decided.  It is the m-th power of a held nome at r/m^2, for m = 5, 2 or
    n (r/n^2 = 1/(nd)), else an exp.  Below 1 with n > 1 and d within
    _NOME_CHAIN_MAX the nome at 1/(nd) is looked up first, so the nome at r
    is its n-th power and the nome at 1/r, whenever it is read, its d-th."""
    memo = _MEMO.get()
    if memo is not None:
        if 1 < n < d <= _NOME_CHAIN_MAX:
            _nome(1, n * d, ctx)
        for m in (5, 2, n) if n > 1 else (5, 2):
            g = math.gcd(n, m * m)  # r/m^2 in lowest terms, as m is prime or n
            base = memo.get(_key("nome", n // g, d * (m * m // g), ctx))
            if base is not None and base[1] * m <= _NOME_CHAIN_MAX:
                return _link(base[0], m, ctx), base[1] * m
    return _exp_nome(n, d, ctx), 1


def _link(y: mpf, m: int, ctx: PrecisionContext) -> mpf:
    """y^m for a working-precision nome y: _pow on its mantissa with
    _INT_BITS guard bits, rounded once to work_bits.  One link of a chain."""
    _, man, exp, _ = y._mpf_
    return _at_bits(_pow((man, exp), m, ctx.work_bits + _INT_BITS), ctx.work_bits)


def _theta_quotient(q: mpf, ctx: PrecisionContext) -> Tuple[_Float, _Float]:
    """((theta2(q)/theta3(q))^2, theta3(q)^2), each a _Float, for
    0 < q <= e^-pi, summed at q^4:

        E = theta3(q^4) = 1 + 2 sum_{n>=1} q^(4n^2),
        O = theta2(q^4) = 2 q S,   S = sum_{n>=0} q^(4n(n+1)),

    so theta3(q) = E + O and theta4(q) = E - O, and Jacobi's
    theta3^4 = theta2^4 + theta4^4 gives

        (theta2/theta3)^2 = sqrt(16 q E S (E^2 + O^2)) / (E + O)^2

    (Borwein & Borwein, Pi and the AGM, ch. 2).  Both sums run in one pass
    on integers with work_bits + _INT_BITS fractional bits, their terms
    alternating along the exponents 0, 1, 2, 4, 6, 9, ... of q^4 (two
    squarings of q's fixed point).  E and S lie just above 1, so the fixed
    point keeps their relative precision; O enters only E + O and
    E^2 + O^2 = (E + O)^2 - 4 q E S, where its absolute error suffices.
    The root is _root of q's mantissa times 16 E S (E^2 + O^2), so a q far
    below 2^-work_bits (e^(-1000 pi) at r = 10^6) still gives 4 sqrt(q).
    theta3^2 = (E + O)^2 comes back with its work_bits + _INT_BITS
    fractional bits: (pi/2) theta3^2 is K of the quotient (Jacobi).
    """
    frac = ctx.work_bits + _INT_BITS
    one = 1 << frac
    _, man, exp, _ = q._mpf_
    qi = _fixed(man, exp, frac)
    q4 = qi * qi >> frac
    q4 = q4 * q4 >> frac
    s, e = 0, 0
    term, qn = one, one  # q^(4n(n+1)) and q^(4n), from n = 0
    while term:
        s += term
        qn = qn * q4 >> frac
        term = term * qn >> frac  # q^(4(n+1)^2)
        e += term
        term = term * qn >> frac  # q^(4(n+1)(n+2))
    e = one + 2 * e
    es = e * s >> frac
    plus = e + (2 * qi * s >> frac)
    square = plus * plus >> frac
    x = es * (square - (4 * qi * es >> frac)) >> frac  # E S (E^2 + O^2)
    root, root_exp = _root((man * x, exp + 4 - frac), frac)
    return ((root << frac) // square, root_exp), (square, -frac)


class SingularModulusRecord(NamedTuple):
    """A certified singular-modulus solve at exact rational r."""

    k: mpf          # the modulus in (0,1)
    k_comp: mpf     # complementary modulus sqrt(1 - k^2)
    q: mpf          # nome exp(-pi sqrt(r))
    K_k: mpf        # K(k)
    K_kcomp: mpf    # K(k_comp)
    residual: mpf   # |K(k_comp)/K(k) - sqrt(r)|, from K_k and K_kcomp before rounding


def solve_singular_modulus(
    r_num: int, r_den: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> SingularModulusRecord:
    """Evaluate k_r at exact rational r and certify its K-ratio residual.

    Evaluation is the theta quotient k = (theta2(q)/theta3(q))^2 at the nome
    q = e^(-pi sqrt(R)), R = max(r, 1/r), so q <= e^-pi, from the theta
    series at q^4, summed in one integer pass and rooted with q's mantissa
    (_theta_quotient), rounded once.  That gives the modulus nearer 0; its
    complement sqrt(1 - k^2) is the square root of an exact integer,
    rounded once.  For r < 1 the pair is swapped (k_r = k'_(1/r)), so the
    small modulus of either orientation keeps its relative precision.  The
    record's q is the nome at r itself.  For r >= 1 they are one nome.  For
    r = n/d < 1 in lowest terms they are _nome's lookups at r and 1/r, in
    the caller's request scope or, where none is open, in one of the
    solve's own, so they are y^n and y^d, y = e^(-pi / sqrt(nd)), from one
    exp, two links of _nome's chains within its bound (_chained_nome).

    The returned record stores values rounded to ``precision_bits``.  K of
    the small modulus is Jacobi's (pi/2) theta3(q)^2 from the same pass, and
    K of the big one pi / (2 agm(1, small)), from one AGM leg at the rounded
    small modulus.  K(small)/K(big) = agm(1, small) theta3^2 is K(k')/K(k)
    for r < 1 and its reciprocal for r >= 1; the residual |K(k')/K(k) -
    sqrt(r)| must certify against sqrt(r), or ConvergenceError is raised.
    Both are formed on integers, sqrt(r) by math.isqrt of the exact
    rational, with work_bits + 32 fractional bits plus half the bit-length
    gap of r's numerator and denominator, so that the product, about
    1/sqrt(R), keeps work_bits + 32 bits on either side of r = 1.  The
    whole solve runs on integers and mantissas: it builds an mpf only for
    each record field, rounded once, and never switches precision.

    Either member of the pair may be the correctly rounded 1: k_comp from
    r = 12962 at 512 bits (3291 at 256), k from r = 1/12962 (1/3291).  The
    small member keeps its digits (k = 2.6e-682 at r = 10^6), and its AGM
    leg gives the other K.  Callers must not take elliptic_K of a member
    that is 1: K(1) is infinite and elliptic_K refuses it.

    A relative error d in the small modulus moves the ratio by about d / S,
    S = 2 k'^2 K K' / pi <= pi sqrt(R)/2 (Legendre's relation), from R = 7
    up, and by 0.457 d at R = 1, as theta3^2 does not see it.  So the
    verdict judges the residual times an integer above S (its `times`),
    within 2 of pi sqrt(R)/2 (3 at R = 1), from math.isqrt of the exact
    rational and the fixed-point pi: a pass vouches for tol_exp digits of k
    at every R.  The record's residual is the unscaled one, the gap the
    verdict shows.  No integer of the solve grows with r,
    and an r with max(r, 1/r) above _R_MAX, about 4.05e39, is refused with
    DomainError before its nome is taken.  This is the only place r is
    refused for its size.
    """
    _validate_rational(r_num, r_den)
    if r_num > _R_MAX * r_den or r_den > _R_MAX * r_num:
        raise DomainError(
            "a solve at r = %s/%s lies past the bound that keeps a ladder rung "
            "within its gate's 20 digits of slack: max(r, 1/r) must not exceed %d"
            % (_term_text(r_num), _term_text(r_den), _R_MAX)
        )
    reflect = r_num < r_den
    # the nome of r itself, for the record, and the nome of max(r, 1/r), at
    # which the theta quotient runs: below 1, two powers of one exp
    with _request_memo() if reflect and _MEMO.get() is None else nullcontext():
        q_r = _nome(r_num, r_den, ctx)
        q = _nome(r_den, r_num, ctx) if reflect else q_r
    quotient, (square, square_exp) = _theta_quotient(q, ctx)
    small = _rounded(ctx, quotient)
    _, man, exp, _ = small._mpf_
    big = _complement((man * man, 2 * exp), ctx.precision_bits)
    k, k_comp = (big, small) if reflect else (small, big)

    man, exp = _agm_raw(_ONE, small, ctx)  # pi / (2 K(big))
    # K(small)/K(big) = agm(1, small) theta3^2, the K-ratio for r < 1 and its
    # reciprocal for r >= 1; it and sqrt(r) with `frac` fractional bits
    frac = ctx.work_bits + _INT_BITS + abs(r_num.bit_length() - r_den.bit_length()) // 2
    x = _fixed(man * square, exp + square_exp, frac)
    ratio = x if reflect else (1 << 2 * frac) // x
    target = math.isqrt((r_num << 2 * frac) // r_den)
    # an integer above S: pi sqrt(R)/2 on integers, within 2^-33, floored, plus 2
    big, small = (r_den, r_num) if reflect else (r_num, r_den)
    b = (big.bit_length() - small.bit_length()) // 2 + 34
    s_bound = (pi_fixed(b) * math.isqrt((big << 2 * b) // small) >> 2 * b + 1) + 2
    gap, passed = ctx.verdict((ratio - target, -frac), (target, -frac), s_bound)
    if not passed:
        raise ConvergenceError(
            "solve at r=%s/%s left residual %s above tolerance"
            % (_term_text(r_num), _term_text(r_den), mp.nstr(gap, 8))
        )
    K_small = _rounded(ctx, _mul(_pi(frac), (square, square_exp - 1), frac))
    K_big = _rounded(ctx, _half_pi_over(man, exp, ctx))
    K_k, K_kcomp = (K_big, K_small) if reflect else (K_small, K_big)
    return SingularModulusRecord(k, k_comp, _rounded(ctx, q_r), K_k, K_kcomp, gap)


def _solved(r_num: int, r_den: int, ctx: PrecisionContext) -> SingularModulusRecord:
    """The solve at r, shared within a request scope."""
    return _memoised("solve", solve_singular_modulus, r_num, r_den, ctx)


def _kkprime(r_num: int, r_den: int, ctx: PrecisionContext) -> _Float:
    """s = k k' at r, the exact product of the shared solve's k and k'
    mantissas: the quantity the ladder climbs on (s = 1/(2 g^12)), which
    each caller rounds or cuts to its own bits."""
    rec = _solved(r_num, r_den, ctx)
    (k_man, k_exp), (c_man, c_exp) = _floats(rec.k, rec.k_comp)
    return k_man * c_man, k_exp + c_exp


#: hard cap on the largest power q^n the eta series may have to reach;
#: reached only for q pathologically close to 1, which only a caller of the
#: public eta_f can ask for: the lookups reflect every r below 1/25
_ETA_TERM_CAP = 10_000_000


def _in_open_unit(x: mpf) -> bool:
    """Whether 0 < x < 1, from x's raw sign, mantissa, exponent and bit
    count: x = man 2^exp lies in [2^(exp + bc - 1), 2^(exp + bc)), and
    zero, infinities and nan have no mantissa."""
    sign, man, exp, bc = x._mpf_
    return not sign and man != 0 and exp + bc <= 0


def _neg_ln(x: mpf) -> float:
    """-ln x as a float for 0 < x < 1, from x's raw mantissa and exponent.

    Only sizes a truncation or a precision, so float accuracy suffices, and it
    avoids mpmath's log (whose Taylor cache costs a series per new argument
    range).  Above 1/2 (exponent plus bit count 0, mantissa not 1) it is
    log1p of 1 - x, formed exactly on the mantissa and rounded once to a
    float as float(mpf) rounds it; it returns 0.0 when x is within 2^-1074
    of 1.  Below it is -(ln man + exp ln 2), or inf where exp passes the
    float range, below about 2^-(2^1024).  The caller's ambient precision
    moves no bit of either.
    """
    _, man, exp, bc = x._mpf_
    if exp + bc == 0 and man != 1:
        below_one = from_man_exp((1 << -exp) - man, exp)
        return -math.log1p(-to_float(below_one, rnd=round_nearest))
    try:
        return -(math.log(man) + exp * math.log(2))
    except OverflowError:
        return math.inf


def eta_f(q: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """f(-q) = prod_{n>=1} (1 - q^n) for 0 < q < 1, by Euler's pentagonal series

        f(-q) = 1 + sum_{k>=1} (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)),

    which reaches q^n with about sqrt(2n/3) terms where the product needs n
    factors.  Near q = 1 the terms (up to about 1) cancel down to
    f(-q) ~ exp(-pi^2 / (6 |ln q|)), so the sum is taken to the first term
    below 2^-bits, bits = work_bits + ceil(pi^2 / (6 ln2 |ln q|)) + 8.  It
    runs on integers with bits + 16 fractional bits, which absorb the
    truncation of each product, and is rounded once to precision_bits.
    """
    qv = to_big(q, ctx)
    if not _in_open_unit(qv):
        raise DomainError("eta_f requires 0 < q < 1, got %s" % mp.nstr(qv, 15))
    t = _neg_ln(qv)
    # the sum reaches q^n < 2^-bits at n = bits ln2 / t; the cap test is
    # that bound times t^2, so that t = 0 is refused too
    pi2_6 = math.pi ** 2 / 6
    if (ctx.work_bits + 9) * math.log(2) * t + pi2_6 > _ETA_TERM_CAP * t * t:
        raise ConvergenceError("eta series needs too many terms (q ~ 1?)")
    bits = ctx.work_bits + math.ceil(pi2_6 / (math.log(2) * t)) + 8
    frac = bits + 16
    cutoff = 1 << (frac - bits)  # 2^-bits
    _, q_man, q_exp, _ = qv._mpf_
    qi = _fixed(q_man, q_exp, frac)
    acc = 1 << frac
    a = qi  # q^(k(3k-1)/2), from k = 1
    if a >= cutoff:
        q3 = qi * qi * qi >> 2 * frac
        qk = qi          # q^k
        step = q3 * qi >> frac  # a_(k+1) / a_k = q^(3k+1)
        odd = True
        while a >= cutoff:
            term = a + (a * qk >> frac)
            acc = acc - term if odd else acc + term
            a = a * step >> frac
            step = step * q3 >> frac
            qk = qk * qi >> frac
            odd = not odd
    return _rounded(ctx, (acc, -frac))


#: below this r the eta, continued-fraction and eta-quotient lookups take
#: their value from the reflected point 16/r (16/(25r) for the quotient),
#: whose nome lies near 0.  It is at most 4/5, so no reflected point lies
#: below it again.
_REFLECT_BELOW = Fraction(1, 25)


def _reflects(r_num: int, r_den: int) -> bool:
    """Whether the lookups evaluate r = r_num/r_den > 0 at its reflection."""
    return r_num * _REFLECT_BELOW.denominator < _REFLECT_BELOW.numerator * r_den


def _eta_at(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    """f(-q) at q = nome(r), shared within a request scope.  q^m is the
    nome of m^2 r, so f(-q^m) is _eta_at(m^2 r).

    At r >= _REFLECT_BELOW it is eta_f at the rounded nome.  Below, it is
    Dedekind's eta(i/alpha) = sqrt(alpha) eta(i alpha) with alpha =
    sqrt(r)/2, read at q = e^(-2 pi alpha):

        f(-q) = exp(pi (r - 4) / (24 sqrt r)) f(-q') / sqrt(sqrt(r)/2),

    q' = nome(16/r).  The series at q near 1 would cancel from terms of
    size 1 down to f(-q) and amplify the rounding of q by pi^2/(6 ln^2 q);
    q' lies near 0.  The exponent is -pi sqrt(c) with c = (4 - r)^2 /
    (576 r), so the prefactor is the nome at c."""
    return _memoised("eta", _eta_by_dedekind, r_num, r_den, ctx)


def _eta_by_dedekind(r_num: int, r_den: int, ctx: PrecisionContext) -> mpf:
    if not _reflects(r_num, r_den):
        return eta_f(_rounded(ctx, _nome(r_num, r_den, ctx)), ctx)
    # 1/sqrt(sqrt(r)/2) = (4/r)^(1/4) by two integer roots, then one product
    frac = ctx.work_bits
    quarter = math.isqrt(math.isqrt((4 * r_den << 4 * frac) // r_num))
    prefactor = _exp_nome((4 * r_den - r_num) ** 2, 576 * r_num * r_den, ctx)
    far = _eta_at(16 * r_den, r_num, ctx)
    return _rounded(ctx, _product(frac + _INT_BITS, (quarter, -frac), *_floats(prefactor, far)))
