"""Lossless decimal serialization of mpf values.

Every numeric field crosses the JSON boundary as a decimal string with
enough digits that re-parsing at the same binary precision reproduces the
original value bit for bit (see roundtrip_digits).  This module is
serialization only, and the CLI alone imports it: its one JSON encoder
decides the document's layout and turns every mpf into a decimal here.
"""

from __future__ import annotations

from mpmath import mp, mpf, workprec

__all__ = ["roundtrip_digits", "big_to_str", "str_to_big"]


def roundtrip_digits(precision_bits: int) -> int:
    """Decimal digits sufficient to reproduce a precision_bits float exactly:
    ceil(bits * log10(2)) plus slack for the parse rounding."""
    return int(precision_bits * 0.30103) + 5


def big_to_str(x, precision_bits: int) -> str:
    # never mpf(x) at ambient precision: that would silently re-round x
    if not isinstance(x, mpf):
        with workprec(precision_bits):
            x = +mpf(x)
    return mp.nstr(x, roundtrip_digits(precision_bits))


def str_to_big(s: str, precision_bits: int) -> mpf:
    with workprec(precision_bits):
        return +mpf(s)
