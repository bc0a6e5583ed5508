"""Identity-check records and lossless decimal serialization.

Every numeric field crosses the JSON boundary as a decimal string with
enough digits that re-parsing at the same binary precision reproduces the
original value bit for bit (see roundtrip_digits).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from mpmath import mp, mpf, workprec

__all__ = [
    "roundtrip_digits",
    "big_to_str",
    "str_to_big",
    "IdentityEntry",
    "IdentityReport",
]


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


@dataclass
class IdentityEntry:
    """One certified identity: its registry id, the measured residual,
    whether it cleared the context tolerance, and wall-clock cost.

    Entries computed together from shared solves (e.g. the three
    modulus-pair relations) carry the same elapsed_ms.  Solves are shared
    across groups within one run_suite call, so elapsed_ms leaves out the
    solves that earlier groups already paid for.
    """

    id: str
    residual: mpf
    passed: bool
    elapsed_ms: int = 0
    detail: Dict[str, str] = field(default_factory=dict)

    def to_dict(self, precision_bits: int) -> dict:
        d = {
            "id": self.id,
            "residual": big_to_str(self.residual, precision_bits),
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.detail:
            d["detail"] = dict(self.detail)
        return d

    @staticmethod
    def from_dict(d: dict, precision_bits: int) -> "IdentityEntry":
        return IdentityEntry(
            id=d["id"],
            residual=str_to_big(d["residual"], precision_bits),
            passed=bool(d["passed"]),
            elapsed_ms=int(d.get("elapsed_ms", 0)),
            detail=dict(d.get("detail", {})),
        )


@dataclass
class IdentityReport:
    """An ordered batch of identity checks at one (r, precision) point."""

    r_num: int
    r_den: int
    precision_bits: int
    tol_exp: int
    entries: List[IdentityEntry]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "r_num": self.r_num,
            "r_den": self.r_den,
            "precision_bits": self.precision_bits,
            "tol_exp": self.tol_exp,
            "all_pass": self.all_pass,
            "entries": [e.to_dict(self.precision_bits) for e in self.entries],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "IdentityReport":
        bits = int(d["precision_bits"])
        return IdentityReport(
            r_num=int(d["r_num"]),
            r_den=int(d["r_den"]),
            precision_bits=bits,
            tol_exp=int(d["tol_exp"]),
            entries=[IdentityEntry.from_dict(e, bits) for e in d["entries"]],
        )

    @staticmethod
    def from_json(s: str) -> "IdentityReport":
        return IdentityReport.from_dict(json.loads(s))
