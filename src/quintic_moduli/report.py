"""Lossless decimal serialization of mpf values.

Every numeric field crosses the JSON boundary as a decimal string with
enough digits that re-parsing at the same binary precision reproduces the
original value bit for bit (see roundtrip_digits).  This module is
serialization only.  The CLI imports it: its one JSON writer decides the
document's layout and turns every mpf into a decimal here.  So does the
registry, for the short decimals of its entries' detail strings.

to_decimal(x, dps) writes what mp.nstr(x, dps) writes, byte for byte, and
big_to_str(x, bits) is its round-trip case, dps = roundtrip_digits(bits);
the tests hold both to that oracle.  It takes the steps of
mpmath's libmpf.to_str and to_digits_exp at their default settings: scale
x to a binary fixed point, change its radix to a decimal fixed point with
dps + 3 digits (x 10^d >> b, taken as x 5^d >> (b - d)), round the digit string half up to dps
digits, a run of 9s carrying into a new power of ten, and print it in
fixed notation when its leading digit's decimal exponent lies strictly
between min(-(dps // 3), -5) and dps, in scientific notation otherwise,
with trailing zeros stripped.  Only the integer's decimal digits come from
CPython's str(int), which is C, where mpmath's pure-Python backend splits
the integer recursively in Python.
"""

from __future__ import annotations

import math

from mpmath import mpf, workprec
from mpmath.libmp import from_int, mpf_div, mpf_mul, mpf_pow_int, to_fixed, to_int, to_str
from mpmath.libmp.libelefun import mpf_ln2, mpf_ln10

__all__ = ["roundtrip_digits", "big_to_str", "to_decimal", "str_to_big"]

#: decimal digits one str(int) call converts: below 640, the smallest
#: int-to-str limit CPython lets a process set
_STR_DIGITS = 600


def roundtrip_digits(precision_bits: int) -> int:
    """Decimal digits sufficient to reproduce a precision_bits float exactly:
    ceil(bits * log10(2)) plus slack for the parse rounding."""
    return int(precision_bits * 0.30103) + 5


def _decimal(n: int, size: int) -> str:
    """str(n) for an integer n >= 0 of about `size` decimal digits, split
    in halves by powers of ten until each part fits one str() call."""
    if size <= _STR_DIGITS:
        return str(n)
    low = size // 2
    high, rest = divmod(n, 10 ** low)
    return _decimal(high, size - low) + _decimal(rest, low).zfill(low)


def _digits_exp(sign: int, man: int, exp: int, bc: int, dps: int):
    """(sign, digits, exponent) of |x| = man 2^exp, man > 0, as mpmath's
    to_digits_exp gives them: about dps decimal digits of x, truncated, and
    the decimal exponent of the leading one."""
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    if abs(exp + bc) > 3500:
        # divide by the power of ten nearest x, found at high precision
        expprec = abs(exp).bit_length() + 5
        tmp = mpf_mul(from_int(exp), mpf_ln2(expprec))
        exponent = to_int(mpf_div(tmp, mpf_ln10(expprec), expprec))
        ten = mpf_pow_int(from_int(10), exponent, bitprec)
        _, man, exp, bc = mpf_div((0, man, exp, bc), ten, bitprec)
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    fixed = to_fixed((0, man, exp, bc), fixprec)
    # fixed 10^fixdps >> fixprec to the bit, with 10^fixdps = 5^fixdps 2^fixdps
    scaled = fixed * 5 ** fixdps >> fixprec - fixdps
    digits = _decimal(scaled, int(scaled.bit_length() * 0.30103) + 1)
    return "-" if sign else "", digits, exponent + len(digits) - fixdps - 1


def big_to_str(x, precision_bits: int) -> str:
    """x as a decimal with roundtrip_digits(precision_bits) significant
    digits: mp.nstr(x, roundtrip_digits(precision_bits)), byte for byte."""
    # never mpf(x) at ambient precision: that would silently re-round x
    if not isinstance(x, mpf):
        with workprec(precision_bits):
            x = +mpf(x)
    return to_decimal(x, roundtrip_digits(precision_bits))


def to_decimal(x: mpf, dps: int) -> str:
    """x as a decimal with dps significant digits: mp.nstr(x, dps), byte
    for byte."""
    s = x._mpf_
    if not s[1]:  # 0, the infinities and nan
        return to_str(s, dps)
    sign, digits, exponent = _digits_exp(*s, dps + 3)
    if len(digits) > dps and digits[dps] >= "5":
        head = digits[:dps].rstrip("9")
        if head:
            digits = head[:-1] + chr(ord(head[-1]) + 1) + "0" * (dps - len(head))
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    return sign + digits + ("e%+d" % exponent if exponent else "")


def str_to_big(s: str, precision_bits: int) -> mpf:
    with workprec(precision_bits):
        return +mpf(s)
