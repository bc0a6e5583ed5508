"""The decimal writer against its oracle: big_to_str(x, bits) is
mp.nstr(x, roundtrip_digits(bits)) byte for byte, and str_to_big reads it
back to the same bits; to_decimal(x, 12), the registry's detail strings,
is mp.nstr(x, 12)."""

import random
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, from_rational, mpf_neg, round_nearest

from quintic_moduli.report import big_to_str, roundtrip_digits, str_to_big, to_decimal

_BITS = (64, 65, 100, 256, 512, 1000, 1024, 2048, 4096)


def _rounded(man, exp, bits):
    return mp.make_mpf(from_man_exp(man, exp, bits, round_nearest))


def _neg(x):
    """-x, exactly: the unary minus would round to the ambient 53 bits."""
    return mp.make_mpf(mpf_neg(x._mpf_))


def _cases(bits, rng):
    """Reals at `bits` for the writer: zero, leading digits on both sides of
    the switch from fixed to scientific notation, binary exponents past
    +-3500 (where the writer first divides by a power of ten), and random
    mantissas, each with both signs."""
    dps = roundtrip_digits(bits)
    xs = [mpf(0)]
    with workprec(bits):
        for e in (min(-(dps // 3), -5), dps):
            for step in (-1, 0, 1):
                xs.append(mpf(10) ** (e + step) * (1 + 8 * mpf(rng.random())))
    for exp in (-3501, 3501, -50000, 50000):
        xs.append(_rounded(rng.getrandbits(bits) | 1, exp - bits, bits))
    for _ in range(40):
        man = rng.getrandbits(rng.randint(1, bits)) | 1
        xs.append(_rounded(man, rng.randint(-3 * bits, 2 * bits), bits))
    return xs + [_neg(x) for x in xs]


@pytest.mark.parametrize("bits", _BITS)
def test_writer_is_nstr_and_reads_back(bits):
    rng = random.Random(bits)
    for x in _cases(bits, rng):
        text = big_to_str(x, bits)
        assert text == mp.nstr(x, roundtrip_digits(bits)), (bits, x._mpf_)
        assert str_to_big(text, bits) == x, (bits, text)


@pytest.mark.parametrize("bits", [64, 512, 4096])
def test_nines_carry_into_a_new_power_of_ten(bits):
    # a value at `bits` lies too far from a power of ten for its round-trip
    # digits to be all nines; one with 64 bits more need not
    dps = roundtrip_digits(bits)
    for e in (-30, -1, 0, 1, 7, dps - 1, dps, 300, 1200):
        for extra in (1, 2):
            with workprec(bits + 64):
                x = mpf(10) ** e * (1 - 3 * mpf(10) ** -(dps + extra))
            for v in (x, _neg(x)):
                text = big_to_str(v, bits)
                assert text == mp.nstr(v, dps), (bits, e, extra)
                assert text.lstrip("-").split("e")[0].replace(".", "").strip("0") == "1", text


def test_a_decimal_past_cpythons_digit_limit():
    # 20000 bits write 6025 digits, past the 4300 CPython converts at once
    bits = 20000
    x = _rounded(random.Random(1).getrandbits(bits) | 1, -bits, bits)
    assert big_to_str(x, bits) == mp.nstr(x, roundtrip_digits(bits))


@pytest.mark.parametrize("bits", [4096, 20000])
def test_a_decimal_under_the_smallest_digit_limit(bits):
    # 640 is the smallest int-to-str limit CPython lets a process set;
    # 4096 bits write 1238 digits, 20000 bits 6025
    x = _rounded(random.Random(bits).getrandbits(bits) | 1, -bits, bits)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert big_to_str(x, bits) == mp.nstr(x, roundtrip_digits(bits))
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_fraction_is_divided_at_the_precision():
    # as to_big converts it: one division at precision_bits
    for bits in (64, 512):
        with workprec(bits):
            third = mpf(1) / 3
        assert big_to_str(Fraction(1, 3), bits) == big_to_str(third, bits)


def test_a_fraction_is_rounded_once():
    # one correctly rounded division at precision_bits, the value to_big
    # would give at those bits
    rng = random.Random(700)
    for _ in range(2000):
        n, d = rng.getrandbits(700) | 1 << 699, rng.getrandbits(690) | 1 << 689
        want = mp.make_mpf(from_rational(n, d, 256, round_nearest))
        assert big_to_str(Fraction(n, d), 256) == big_to_str(want, 256), (n, d)


def test_short_decimals_are_nstr():
    # the registry's detail strings: 12 significant digits, as mp.nstr
    # writes them, over values from 2^-3000 to 2^3000 at 64 to 4096 bits
    rng = random.Random(12)
    for _ in range(3000):
        bits = rng.choice(_BITS)
        x = _rounded(rng.getrandbits(bits) | 1, rng.randint(-3000, 3000) - bits, bits)
        x = _neg(x) if rng.random() < 0.5 else x
        assert to_decimal(x, 12) == mp.nstr(x, 12), x._mpf_
