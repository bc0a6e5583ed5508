"""Frozen and radical oracle values shared by the tests.

The independent gate is the radical builders (printed closed forms
evaluated live at whatever precision a test needs), the quadrature value
of K, the frozen backward-recurrence continued fraction, and the five live
oracles at the bottom: the K-ratio through mpmath's ``ellipk``, the theta
quotient through mpmath's ``jtheta``, the Euler product for f(-q), the
continued fraction by backward recurrence in mpf, and the cubic formula
for u_map.  None of them shares code with the library.

The mpf reference spellings after them (``u_star_mpf``,
``fifth_root_radical_mpf``, ``descend_a_horner``, ``u_relation_terms``,
``pair_relations_mpf``, ``m5_relation_mpf``, ``power_identities_mpf``,
``agm_two_phase`` and ``solve_mpf``) are the library's earlier
evaluations of the same formulas in mpf arithmetic, kept as oracles for
the integer ones that replaced them: the integer versions must give the
same bits once both are rounded to the output precision, or, for a
relation's residual, lie within a few units of the working precision
times its scale.  ``fifth_root_radical_uncut`` is the integer radical as
it was before it cut a huge a, ``theta_quotient_direct`` the theta
quotient's direct sum at q, before the library summed it at q^4, and
``complement_of_k`` sqrt(1 - k^2) as the library took it from k, before
its complement took the square.

The frozen moduli ``K5``, ``K_FIFTH`` and ``K25`` are theta-quotient
values, and the library's solver evaluates the same theta quotient, so
they pin the solver's output against drift but do not certify it on their
own; the radical builders do.

Two audits that no command runs live here too: ``u_defining_residual``,
the relation u_map inverts in mpf, and ``audit_example_forms``, the
printed shorthands for k_125 and k_625 against the certified ascent.  The
audit reads the library only through its public calls, and both do their
own arithmetic in mpmath at twice the working bits.  ``TRACED_DELETED`` names
the functions the benchmark's tracer still lists but the library deleted
on purpose.
"""

import math

from mpmath import ellipk, jtheta, mp, mpc, mpf, sqrt, workprec
from mpmath.libmp import from_int, from_man_exp, mpf_pow_int, mpf_sqrt, round_nearest

import quintic_moduli as qm

#: (module, function) pairs in perfbench/tracer.py's TRACED that the
#: library deleted on purpose: no command reached them.  The tests that
#: hold every traced name to a function assert that each of these does not
#: resolve and is still listed, so the exemption fails once the list drops it
TRACED_DELETED = (("modular_core", "multiplier_M5"),)

#: a certifiable tol_exp for each precision the tests sweep
TOL_EXP = {256: 55, 512: 120, 1024: 240, 4096: 960}


def tolerance(ctx):
    """10^-tol_exp rounded once to nearest at the context's work_bits: the
    bound the tests compare their oracles' errors against."""
    return mp.make_mpf(mpf_pow_int(from_int(10), -ctx.tol_exp, ctx.work_bits, round_nearest))


def pair(x):
    """An mpf or an int as the exact pair (man, exp), man of either sign,
    that PrecisionContext.verdict reads."""
    if isinstance(x, int):
        return x, 0
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp

# complete elliptic integral K(1/sqrt2) via tanh-sinh quadrature of
# 1/sqrt(1 - x^2/2)/sqrt(1-x^2) on [0,1], 160 digits
K_SQRT_HALF = (
    "1.85407467730137191843385034719526004621759882352176690558592804505602"
    "1776838119978357271861650371897277771871037459802372491259744655273917"
    "533869714367985809472"
)

# theta-quotient moduli (jtheta(2)/jtheta(3))^2 at 700 bits, 140 digits
K5 = (
    "0.1188769458026001011927468428418141369035869990099698731574444523370427"
    "5331636329955621938054429766037577882460158809384512017358361005301268"
)
K_FIFTH = (
    "0.9929089947002422427913492529533243644785286309841042499978570097379737"
    "334049288908031496675701270216019455435625519729069321835709116244137"
)
K25 = (
    "0.0015528118796612632249415446983313699436489107794913505430355707640262"
    "642822551286446435186889939614897845801781969670527974990033692970693862"
)

# Rogers-Ramanujan value at q = exp(-2 pi), backward recurrence, 140 digits
R_E2PI = (
    "0.2840790438404122960282918323931261690910880884457375827591626661550458"
    "7735148455373037841775223162586704534702741911666584749852531586292084"
)

E_MINUS_PI = "0.0432139182637722497744177371717280112757281098106330829807197"

# the eta quotient at r = 1, from the library at 1024 bits cross-checked
# against its own moduli route to 3e-307 (frozen here at 140 digits)
A1 = (
    "17.545889134511715370927682155182726986451919139619122451340638043879979"
    "579499721063623195809343998135725006380195824407477725791723442089386"
)


def k5_radical():
    """Printed closed form of the modulus at r = 5."""
    s5 = sqrt(mpf(5))
    return sqrt((9 + 4 * s5 - 2 * sqrt(38 + 17 * s5)) / (18 + 8 * s5))


def k_fifth_radical():
    s5 = sqrt(mpf(5))
    return sqrt((9 + 4 * s5 + 2 * sqrt(38 + 17 * s5)) / (18 + 8 * s5))


def k25_radical():
    s5 = sqrt(mpf(5))
    return 1 / sqrt(2 * (51841 + 23184 * s5 + 12 * sqrt(37325880 + 16692641 * s5)))


def r4_radical():
    """Rogers-Ramanujan value at q = exp(-2 pi) in radicals."""
    s5 = sqrt(mpf(5))
    return sqrt((5 + s5) / 2) - (1 + s5) / 2


def g25_radical():
    """Class invariant at r = 25."""
    s5 = sqrt(mpf(5))
    return (161 - 72 * s5) ** (-mpf(1) / 12)


def m5_1_radical():
    """Multiplier at r = 1 (double root of its degree-6 polynomial)."""
    return (2 + sqrt(mpf(5))) / 5


def a4_radical():
    """Eta quotient at r = 4."""
    return 250 + 125 * sqrt(mpf(5))


def k_ratio_ellipk(k, k_comp, bits):
    """K(k')/K(k) from mpmath's ``ellipk`` at ``bits`` plus whatever the
    parameter 1 - m needs to keep m = min(k, k')^2 exactly.

    Only the smaller modulus s enters: K(s) = ellipk(s^2) and
    K(s') = ellipk(1 - s^2), so a modulus near 1 never has to be squared
    and subtracted from 1.  Shares no code with the library.
    """
    small = min(k, k_comp)
    with workprec(bits + max(0, -2 * mp.mag(small))):
        m = mpf(small) ** 2
        K_small, K_big = ellipk(m), ellipk(1 - m)
        return K_big / K_small if small == k else K_small / K_big


def theta_quotient(q, bits):
    """(theta2(q)/theta3(q))^2 through mpmath's ``jtheta`` at ``bits``, the
    modulus whose nome is q.  The library sums the two theta series itself
    on integers; no module of it calls ``jtheta``."""
    with workprec(bits):
        q = mpf(q)
        return (jtheta(2, 0, q) / jtheta(3, 0, q)) ** 2


def theta3_squared(q, bits):
    """theta3(q)^2 through mpmath's ``jtheta`` at ``bits``: 2/pi times K of
    the modulus whose nome is q (Jacobi)."""
    with workprec(bits):
        return jtheta(3, 0, mpf(q)) ** 2


def eta_product(q, bits):
    """f(-q) = prod_{n>=1} (1 - q^n) by direct multiplication, until
    q^n < 2^-bits, in integer fixed point; rounded to ``bits``.

    The fixed point carries bits + ceil(pi^2 / (6 ln2 |ln q|)) +
    ceil(log2 N) + 32 fractional bits, where N ~ bits ln2 / |ln q| is the
    number of factors: f(-q) is about exp(-pi^2 / (6 |ln q|)), and each
    factor truncates once.  Shares nothing with the library's pentagonal
    series; slow for q near 1."""
    with workprec(bits):
        q = mpf(q)
    with workprec(53):
        t = float(-mp.log(q))
    n_factors = max(2, math.ceil(bits * math.log(2) / t))
    frac = (
        bits
        + math.ceil(math.pi ** 2 / (6 * math.log(2) * t))
        + math.ceil(math.log2(n_factors))
        + 32
    )
    one = 1 << frac
    qi = int(mp.ldexp(q, frac))  # exact: ldexp does not round, int truncates
    cutoff = 1 << (frac - bits)  # 2^-bits
    acc, qn = one, qi
    while qn >= cutoff:
        acc = acc * (one - qn) >> frac
        qn = qn * qi >> frac
    with workprec(bits):
        return mp.ldexp(mpf(acc), -frac)


def rrcf_backward(q, depth, bits):
    """q^(1/5) / (1 + q/(1 + q^2/(1 + ... q^depth))) by backward recurrence
    in mpf at ``bits``, the powers descending from q^depth by division.

    The library runs the convergents forward on integers; this oracle
    shares nothing with it.  It costs ``depth`` roundings, so ``bits``
    must exceed the precision wanted by log2(depth) and some."""
    with workprec(bits):
        q = mpf(q)
        t = mpf(1)
        p = q ** depth
        for _ in range(depth):
            t = 1 + p / t
            p /= q
        return mp.root(q, 5) / t


def cf_bracket(q, depth, bits):
    """q^(d(d+1)/2) / (B_d B_(d-1)) at d = depth: the distance of the last
    two convergents of 1 + q/(1 + q^2/(1 + ...)), with the denominators
    B_n = B_(n-1) + q^n B_(n-2) (B_-1 = 0, B_0 = 1) run in mpf at ``bits``."""
    with workprec(bits):
        q = mpf(q)
        b_prev, b, p = mpf(0), mpf(1), mpf(1)
        for _ in range(depth):
            p *= q
            b_prev, b = b, b + p * b_prev
        return q ** (depth * (depth + 1) // 2) / (b * b_prev)


def descend_a_printed(a, bits):
    """descend_a in its printed form, E = exp(arcsinh((11 + a)/2)/5) and
    numerator (-1 - E + E^2)^5, at ``bits``.

    E tends to the golden ratio as a -> 0, so the numerator cancels about
    |log2 a| bits: ``bits`` must exceed the precision wanted by that much."""
    with workprec(bits):
        a = mpf(a)
        E = mp.exp(mp.asinh((11 + a) / 2) / 5)
        num = (-1 - E + E ** 2) ** 5
        den = (
            E - E ** 2 + 2 * E ** 3 - 3 * E ** 4 + 5 * E ** 5
            + 3 * E ** 6 + 2 * E ** 7 + E ** 8 + E ** 9
        )
        return num / den


def u_radical(x, bits=700):
    """u_map by the closed cubic formula with principal complex branches.

    Shares nothing with the library's Newton solve of the cubic.  The
    formula cancels: at small x it loses about 3 |log2 x| bits, so ``bits``
    must exceed the precision wanted by that much."""
    with workprec(bits):
        xc = mpc(x)
        inner = mp.sqrt(mpc(-125 * xc ** 6 - 22 * xc ** 12 - xc ** 18))
        h = (-125 - 9 * xc ** 6 + 3 * mp.sqrt(mpf(3)) * inner) ** (mpf(1) / 3)
        y2 = (
            -5 / (3 * xc ** 2)
            + 25 / (3 * xc ** 2 * h)
            + xc ** 4 / h
            + h / (3 * xc ** 2)
        )
        return mp.sqrt(y2)


def u_star_mpf(y, bits):
    """u_star in mpf at ``bits``: X^2 = t/(sqrt(1 + t) + 1)/(2 y^2) + y^4/2
    with t = 18 y^6 + y^12, the subtraction rationalized."""
    with workprec(bits):
        y = mpf(y)
        t = 18 * y ** 6 + y ** 12
        return sqrt(t / (sqrt(1 + t) + 1) / (2 * y ** 2) + y ** 4 / 2)


def fifth_root_radical_mpf(a, bits):
    """E = (h + sqrt(h^2 + 1))^(1/5), h = (11 + a)/2, in mpf at ``bits``."""
    with workprec(bits):
        h = (11 + mpf(a)) / 2
        return mp.root(h + sqrt(h * h + 1), 5)


def descend_a_horner(a, bits):
    """descend_a in mpf at ``bits``: numerator (E a / (t^4 + t^3 + 6t^2 +
    6t + 11))^5 with t = E - 1/E, and the nine-term denominator, both by
    Horner's rule."""
    with workprec(bits):
        a = mpf(a)
        E = fifth_root_radical_mpf(a, bits)
        t = E - 1 / E
        num = (E * a / ((((t + 1) * t + 6) * t + 6) * t + 11)) ** 5
        den = E
        for coeff in (1, 2, 3, 5, -3, 2, -1, 1):
            den = (den + coeff) * E
        return num / den


def u_relation_terms(x, y, bits):
    """(sum, largest |term|) of the four terms x^2/(sqrt5 y), -sqrt5 y/x^2,
    -y^3/sqrt5 and y^-3/sqrt5 of the relation u_map inverts, in mpf at
    ``bits``."""
    with workprec(bits):
        x, y = mpf(x), mpf(y)
        s5 = sqrt(mpf(5))
        terms = (x ** 2 / (s5 * y), -s5 * y / x ** 2, -y ** 3 / s5, y ** -3 / s5)
        return sum(terms), max(abs(t) for t in terms)


def u_defining_residual(x, y, bits=1152):
    """|x^2/(sqrt5 y) - sqrt5 y/x^2 - (y^3 - y^-3)/sqrt5|: how far (x, y)
    lies from the relation u_map inverts, in mpf at ``bits``, by default
    twice the working bits of the default context.  u_map's gate judges the
    cleared cubic on integers instead."""
    return abs(u_relation_terms(x, y, bits)[0])


def _summed(*terms):
    return sum(terms), max(abs(t) for t in terms)


def pair_relations_mpf(k, k25, kp, kp25, a, below_one, bits):
    """The registry's pair relations in mpf at ``bits``, as it summed them
    before they moved to integers: (residual, largest |term|) of eq13's
    w-form against a, of eq14's nine monomials, and of eq15's six in the
    stated and the swapped orientation, u = k^(1/4), v = k25^(1/4)."""

    def depressed(u, v):
        return _summed(
            u ** 6, -v ** 6, 5 * u ** 4 * v ** 2, -5 * u ** 2 * v ** 4,
            4 * u * v, -4 * u ** 5 * v ** 5,
        )

    with workprec(bits):
        w, wp = sqrt(k * k25), sqrt(kp * kp25)
        d = (kp25 ** 2 - kp ** 2) / (k + k25) if below_one else k - k25
        w_form = k * kp ** 2 / (w * kp25 ** 2) * (w / k + wp / kp * d / (k + w)) ** 3
        eq14 = _summed(
            k ** 6, -16 * k ** 3 * w, 10 * k ** 5 * w, 15 * k ** 4 * w ** 2,
            -20 * k ** 3 * w ** 3, 15 * k ** 2 * w ** 4, 10 * k * w ** 5,
            -16 * k ** 3 * w ** 5, w ** 6,
        )
        u, v = mp.root(k, 4), mp.root(k25, 4)
        return _summed(w_form, -a), eq14, depressed(u, v), depressed(v, u)


def m5_relation_mpf(m, k, kp, bits):
    """eq11 in mpf at ``bits``, as the registry summed it before: the
    residual (5 m - 1)^5 (1 - m) - 256 (k k')^2 m and the largest monomial
    of the polynomial expanded."""
    with workprec(bits):
        kkp2 = (k * kp) ** 2
        monomials = [c * m ** j for j, c in enumerate((-1, 26, -275, 1500, -4375, 6250, -3125))]
        monomials.append(256 * kkp2 * m)
        return (5 * m - 1) ** 5 * (1 - m) - 256 * kkp2 * m, max(map(abs, monomials))


def power_identities_mpf(k, k25, kp, kp25, K, K25, q, a, f, f2, g, bits):
    """eq6, eq7, eq10 and eq31, the last in their powers, in mpf at
    ``bits``: (residual, larger side) of f^24 - 256 k^2 k'^8 / q (K/pi)^12,
    of f2^6 - 2 k k' K^3 / (pi^3 sqrt(q)), of
    (k/k25)^2 (k'/k'25)^8 K^12 / a^4 - K25^12 and of
    g^-12 - pi^3 sqrt(q) f2^6 / K^3, for f = f(-q) and f2 = f(-q^2)."""
    with workprec(bits):
        return (
            _summed(f ** 24, -256 * k ** 2 * kp ** 8 / q * (K / mp.pi) ** 12),
            _summed(f2 ** 6, -2 * k * kp * K ** 3 / (mp.pi ** 3 * sqrt(q))),
            _summed((k / k25) ** 2 * (kp / kp25) ** 8 * K ** 12 / a ** 4, -K25 ** 12),
            _summed(g ** -12, -mp.pi ** 3 * sqrt(q) * f2 ** 6 / K ** 3),
        )


def qseries_identities_mpf(r_cf, a, v_desc, r_lo, a_desc, a_lo, bits):
    """eq5, eq19 and eq24 in mpf at ``bits``, as the registry summed them
    before they moved to integers: (residual, largest |term|) of
    1/R^5 - 11 - R^5 - a, of descend_v(R) - R(r/25) and of
    descend_a(a) - a(r/25), for R = r_cf and a at r, given the two
    descents' values v_desc and a_desc."""
    with workprec(bits):
        return (
            _summed(1 / r_cf ** 5, -11, -r_cf ** 5, -a),
            _summed(v_desc, -r_lo),
            _summed(a_desc, -a_lo),
        )


def thm31_mpf(a, a_moduli, w, k, kp, k25, kp25, bits):
    """eq29 in mpf at ``bits``: of a(4r) by eta against a(4r) by the
    moduli, and of a(4r) w^6 against s(r)/s(25r) with s = k k', the
    (residual, larger |term|) that is larger relative to its scale, the
    first on a tie."""
    with workprec(bits):
        eta = _summed(a, -a_moduli)
        rel = _summed(a * w ** 6, -(k * kp) / (k25 * kp25))
        return rel if abs(rel[0]) * eta[1] > abs(eta[0]) * rel[1] else eta


def difference_mpf(x, y, bits):
    """(x - y, max(|x|, |y|)) in mpf at ``bits``: k-reciprocal's spelling
    before it moved to integers."""
    with workprec(bits):
        return _summed(x, -y)


def fifth_root_radical_uncut(sign, a, frac):
    """modular_core._fifth_root_radical as it was before it cut a huge 2h:
    E = (h + sqrt(h^2 + 1))^(1/5), h = (11 + a)/2 for a = (-1)^sign man
    2^exp given as sign and (man, exp), as the _Float (E 2^frac, -frac),
    with every integer bit of a carried."""
    from quintic_moduli.modular_core import _root5

    man, exp = a
    shift = exp + frac
    a_int = man << shift if shift >= 0 else man >> -shift
    two_h = (11 << frac) + (-a_int if sign else a_int)
    two_base = two_h + math.isqrt(two_h * two_h + (4 << 2 * frac))
    return _root5(two_base << 4 * frac - 1), -frac


def agm_two_phase(a, b, precision_bits):
    """agm(a, b) at work precision precision_bits + 64, as the library took
    it before its integer phase gained a closing term: mpf steps while a
    and b lie more than 2^32 apart, then steps on integers at a shared
    scale of work + 32 bits until |a - b| < 2^(32 - precision_bits) a,
    returning (a + b)/2 at work precision."""
    work = precision_bits + 64

    def top(x):
        return x._mpf_[2] + x._mpf_[3]

    with workprec(work):
        a, b = mpf(a), mpf(b)
        while abs(top(a) - top(b)) > 32:
            a, b = (a + b) / 2, sqrt(a * b)
        unit = max(top(a), top(b)) - work - 32
        ia, ib = (int(mp.ldexp(v, -unit)) for v in (a, b))
        while abs(ia - ib) << (precision_bits - 32) >= ia:
            ia, ib = (ia + ib) >> 1, math.isqrt(ia * ib)
        return mpf((ia + ib, unit - 1))


def complement_of_k(k, prec):
    """sqrt(1 - k^2) for an mpf 0 <= k <= 1, rounded once to nearest at
    `prec` bits, as the library spelled it from k before its complement
    took the square: with k = m 2^e of bc bits, 1 where 2 (e + bc) <=
    -(prec + 2), else mpmath's root of the exact (2^(-2e) - m^2) 2^(2e)."""
    _, man, exp, bc = k._mpf_
    if 2 * (exp + bc) <= -(prec + 2):
        return mpf(1)
    square = from_man_exp((1 << -2 * exp) - man * man, 2 * exp)
    return mp.make_mpf(mpf_sqrt(square, prec, round_nearest))


def _agm_mpf_head(a, b, work):
    """agm(a, b) as (M, e), M 2^e, as the library took it before its AGM ran
    on integers throughout: mpf steps at ``work`` bits while a and b lie
    more than 2^32 apart, then steps on integers at a shared scale of
    work + 32 bits until |a - b| < 2^(-(work + 40)/4) a, closed by
    (a + b)/2 - (a - b)^2 / (8 (a + b))."""

    def top(x):
        return x._mpf_[2] + x._mpf_[3]

    with workprec(work):
        a, b = mpf(a), mpf(b)
        while abs(top(a) - top(b)) > 32:
            a, b = (a + b) / 2, sqrt(a * b)
        unit = max(top(a), top(b)) - work - 32
        ia, ib = (int(mp.ldexp(v, -unit)) for v in (a, b))
    while abs(ia - ib) << (work + 43) // 4 >= ia:
        ia, ib = (ia + ib) >> 1, math.isqrt(ia * ib)
    gap, total = ia - ib, ia + ib
    return total - gap * gap // (4 * total), unit - 1


def theta_quotient_direct(q, work_bits):
    """(theta2(q)/theta3(q))^2 as (M, e), the value M 2^e, as the library
    summed it before it summed at q^4: 4 sqrt(q) (S2 / (1 + 2 S3))^2 with
    S2 = sum_{n>=0} q^(n(n+1)) and S3 = sum_{n>=1} q^(n^2) in one pass on
    integers with work_bits + 32 fractional bits, and sqrt(q) by
    math.isqrt of q's mantissa to as many bits."""
    frac = work_bits + 32
    one = 1 << frac
    _, man, exp, _ = q._mpf_
    qi = man << exp + frac if exp + frac >= 0 else man >> -(exp + frac)
    s2, s3 = 0, 0
    term, qn = one, one
    while term:
        s2 += term
        qn = qn * qi >> frac
        term = term * qn >> frac
        s3 += term
        term = term * qn >> frac
    ratio = (s2 << frac) // (one + 2 * s3)
    shift = 2 * frac - man.bit_length()
    shift += (exp - shift) & 1
    root = math.isqrt(man << shift if shift >= 0 else man >> -shift)
    return root * ratio * ratio, (exp - shift) // 2 + 2 - 2 * frac


def solve_mpf(r_num, r_den, precision_bits):
    """k, k_comp, q, K_k and K_kcomp of the solve at r = r_num/r_den, as the
    library computed them before its solve ran on integers from nome to
    record, in a dict.

    The nomes are mpmath's exp at work + 64 bits, rounded to the working
    precision work = precision_bits + 64.  The theta quotient sums S2 and
    S3 on integers with work + 32 fractional bits and is 4 sqrt(q)
    (S2/(1 + 2 S3))^2 in mpf at work bits, rounded again to precision_bits;
    the complement is sqrt((1 - k)(1 + k)) in mpf at work bits, rounded
    again; K of the larger modulus is pi / (2 agm(1, small)), the AGM
    taking its wide-gap steps in mpf (_agm_mpf_head), and K of the smaller
    is Jacobi's (pi/2) theta3(q)^2 through mpmath's ``jtheta`` at work + 64
    bits.  The residual is left out: only its low digits depend on the
    spelling.
    """
    work = precision_bits + 64
    frac = work + 32
    reflect = r_num < r_den
    with workprec(work + 64):
        q_r = mp.exp(-mp.pi * sqrt(mpf(r_num) / r_den))
        q_big = mp.exp(-mp.pi * sqrt(mpf(max(r_num, r_den)) / min(r_num, r_den)))
    with workprec(work):
        q_r, q_big = +q_r, +q_big
        one = 1 << frac
        qi = int(mp.ldexp(q_big, frac))
        s2, s3 = 0, 0
        term, qn = one, one
        while term:
            s2 += term
            qn = qn * qi >> frac
            term = term * qn >> frac
            s3 += term
            term = term * qn >> frac
        ratio = (s2 << frac) // (one + 2 * s3)
        theta = sqrt(q_big) * mpf((ratio * ratio, 2 - 2 * frac))
    with workprec(precision_bits):
        small = +theta
    with workprec(work):
        big = sqrt((1 - small) * (1 + small))
    with workprec(precision_bits):
        big = +big
    k, k_comp = (big, small) if reflect else (small, big)
    man, exp = _agm_mpf_head(1, small, work)
    with workprec(work + 64):
        K_big = mp.pi / (2 * mp.ldexp(mpf(man), exp))
        K_small = mp.pi / 2 * jtheta(3, 0, q_big) ** 2
    with workprec(precision_bits):
        K_big, K_small = +K_big, +K_small
        q_r = +q_r
    K_k, K_kcomp = (K_big, K_small) if reflect else (K_small, K_big)
    return {"k": k, "k_comp": k_comp, "K_k": K_k, "K_kcomp": K_kcomp, "q": q_r}


def audit_example_forms(ctx):
    """Two printed closed-form shorthands for k_125 and k_625 against
    certified values, each reported as data: a dict with an entry (value,
    oracle, difference, holds) per form.

      k_125:  sqrt(1/2 - sqrt(1 - (9 - 4 sqrt5) P^2)/2),    P = p_map(1)
      k_625:  sqrt(1/2 - sqrt(1 - (P'/(161 + 72 sqrt5))^2)/2),
              P' = p_map(161 - 72 sqrt5)

    The certified ascent (ladder) feeds its rung x^6 for the invariant
    ratio x = g(r0/25)/g(r0) and takes k k' at 25 r0 as k k' at r0 times
    p_map(x)^12.  The face-value forms feed p_map x^12 (the same as x = 1
    for k_125) and skip the twelfth power of p.  The oracle is the solve at
    25 r0.  A form holds when its difference lies below 10^-tol_exp times
    the oracle, compared in mpf at twice the working bits, where the
    shorthands are evaluated too.  Both shorthands miss their oracles; the
    canonical ascents certify to full tolerance.
    """
    bits = 2 * ctx.work_bits

    def entry(value, oracle):
        with workprec(bits):
            diff = abs(value - oracle)
            holds = diff < mpf(10) ** -ctx.tol_exp * oracle
        return {"value": value, "oracle": oracle, "difference": diff, "holds": holds}

    out = {}
    for r0 in (5, 25):
        oracle = qm.solve_singular_modulus(25 * r0, 1, ctx).k
        (step,) = qm.ladder(r0, 1, 1, ctx).steps
        out["canonical_%d" % (25 * r0)] = entry(step.k, oracle)
    with workprec(bits):
        s5 = sqrt(mpf(5))
        p1 = qm.p_map(1, ctx)
        verb125 = sqrt(mpf(1) / 2 - sqrt(1 - (9 - 4 * s5) * p1 ** 2) / 2)
        parg = qm.p_map(161 - 72 * s5, ctx)
        verb625 = sqrt(mpf(1) / 2 - sqrt(1 - (parg / (161 + 72 * s5)) ** 2) / 2)
    out["verbatim_125"] = entry(verb125, out["canonical_125"]["oracle"])
    out["verbatim_625"] = entry(verb625, out["canonical_625"]["oracle"])
    return out
