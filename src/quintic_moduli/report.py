"""Lossless decimal serialization of mpf values.

Every numeric field crosses the JSON boundary as a decimal string with
enough digits that re-parsing at the same binary precision reproduces the
original value bit for bit (see roundtrip_digits).  This module is
serialization only.  The CLI imports it: its one JSON writer decides the
document's layout and turns every mpf into a decimal here.  So does the
registry, for the short decimals of its entries' detail strings.

The one decimal writer is mpmath's own libmp.to_str, which mp.nstr runs:
to_decimal(x, dps) is mp.nstr(x, dps), byte for byte, and big_to_str(x,
bits) is its round-trip case, dps = roundtrip_digits(bits); the tests hold
both to that oracle.
"""

from __future__ import annotations

from mpmath import mpf
from mpmath.libmp import to_str

from .bigmath_kernel import _at_bits

__all__ = ["roundtrip_digits", "big_to_str", "to_decimal", "str_to_big"]


def roundtrip_digits(precision_bits: int) -> int:
    """Decimal digits sufficient to reproduce a precision_bits float exactly:
    ceil(bits * log10(2)) plus slack for the parse rounding."""
    return int(precision_bits * 0.30103) + 5


def big_to_str(x, precision_bits: int) -> str:
    """x as a decimal with roundtrip_digits(precision_bits) significant
    digits: mp.nstr(x, roundtrip_digits(precision_bits)), byte for byte.
    A value that is not an mpf is first rounded once to precision_bits by
    bigmath_kernel._at_bits, a Fraction by one correctly rounded division."""
    if not isinstance(x, mpf):
        x = _at_bits(x, precision_bits)
    return to_decimal(x, roundtrip_digits(precision_bits))


def to_decimal(x: mpf, dps: int) -> str:
    """x as a decimal with dps significant digits: mp.nstr(x, dps), byte
    for byte."""
    return to_str(x._mpf_, dps)


def str_to_big(s: str, precision_bits: int) -> mpf:
    """The decimal s rounded once to nearest at precision_bits."""
    return _at_bits(s, precision_bits)
