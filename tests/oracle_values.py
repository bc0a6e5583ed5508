"""Frozen and radical oracle values shared by the tests.

The independent gate is the radical builders (printed closed forms
evaluated live at whatever precision a test needs), the quadrature value
of K, the backward-recurrence continued fraction, and the three live
oracles at the bottom: the K-ratio through mpmath's ``ellipk``, the Euler
product for f(-q), and the cubic formula for u_map.  None of them shares
code with the library.

The frozen moduli ``K5``, ``K_FIFTH`` and ``K25`` are theta-quotient
values, and the library's solver evaluates the same theta quotient, so
they pin the solver's output against drift but do not certify it on their
own; the radical builders do.
"""

from mpmath import ellipk, mp, mpc, mpf, sqrt, workprec

#: a certifiable tol_exp for each precision the tests sweep
TOL_EXP = {256: 55, 512: 120, 1024: 240, 4096: 960}

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


def eta_product(q, bits):
    """f(-q) = prod_{n>=1} (1 - q^n) by direct multiplication at ``bits``,
    until q^n < 2^-bits.

    Shares nothing with the library's pentagonal series; about
    bits ln2 / |ln q| factors, so slow for q near 1."""
    with workprec(bits):
        q = mpf(q)
        cutoff = mpf(2) ** -bits
        acc, qn = mpf(1), q
        while qn >= cutoff:
            acc *= 1 - qn
            qn *= q
        return acc


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
