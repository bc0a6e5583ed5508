"""Independent correctness checks of CLI results, run outside the timed loop.

Every exit-0 payload is validated against ``cli.JSON_SCHEMA``.  The moduli
in it are checked against their *defining* relation K(k')/K(k) = sqrt(r),
with mpmath's own ``ellipk`` at more than twice the request's precision.
The package's residual fields and the theta-function quotient are not
used.  For ``verify`` the exit code must agree with ``all_pass``.

A request ends in one of three outcomes:

ok         exit 0 with a result that passes its check.
typed      a documented typed failure: exit 2 ``usage error`` (DomainError),
           exit 3 ``convergence failure`` or exit 4 ``certification
           failure``; a verify exit 4 must carry a report with all_pass
           false.
imprecise  exit 0 with a ladder whose every level meets what the ladder
           certifies, |dk| < 10^-gate_exp, but where some level's k, relative
           to k, misses 10^-gate_exp while keeping at least half of those
           digits.  The absolute gate cannot see this once k < 10^-gate_exp
           (ROADMAP item 2a); deep 512-bit rungs near r = 8 10^5 keep
           only about 77 of the 100 digits.  Not ok, but not wrong either.
wrong      exit 0 with a result that fails its check, a payload that breaks
           the schema, an exit code that disagrees with all_pass, or any
           other ending (an exception escaping ``main``, an argparse error,
           an undocumented exit code).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import mpmath
from mpmath import mp, mpf

_TYPED = {2: "usage error:", 3: "convergence failure:", 4: "certification failure:"}


class Checker:
    def __init__(self, schema: dict, registry: Sequence[str]):
        import jsonschema

        self.validator = jsonschema.Draft202012Validator(schema)
        self.registry = list(registry)

    def check(self, argv: List[str], rc: Optional[int], out: str, err: str) -> Tuple[str, str]:
        """(outcome, reason) for one request."""
        if rc == 0 or (rc == 4 and argv[0] == "verify" and out.strip()):
            try:
                payload = json.loads(out)
            except ValueError:
                return "wrong", "exit %d without a JSON document" % rc
            bad = next(iter(self.validator.iter_errors(payload)), None)
            if bad is not None:
                return "wrong", "schema: %s" % bad.message[:160]
            check = {"kr": self._kr, "ladder": self._ladder, "verify": self._verify}[argv[0]]
            return check(argv, rc, payload)
        if rc in _TYPED:
            text = err.strip() or out.strip()
            if text.startswith(_TYPED[rc]):
                return "typed", text.splitlines()[0][:160]
            return "wrong", "exit %d without its typed message: %r" % (rc, text[:160])
        return "wrong", "undocumented ending %r: %s" % (rc, err.strip()[:160])

    def _header(self, argv, payload, r: Fraction) -> Optional[str]:
        bits, tol = _opt(argv, "--prec"), _opt(argv, "--tol-exp")
        got = Fraction(payload["r"]["num"], payload["r"]["den"])
        if got != r or payload["precision_bits"] != bits or payload["tol_exp"] != tol:
            return "echoed r/precision do not match the request"
        return None

    def _kr(self, argv, _rc, payload) -> Tuple[str, str]:
        r = Fraction(_opt_str(argv, "--r"))
        bad = self._header(argv, payload, r)
        if bad:
            return "wrong", bad
        bits, tol = payload["precision_bits"], payload["tol_exp"]
        m = payload["modulus"]
        rel = relation(r, m["k"], m["k_comp"], bits)
        if rel.residual > mpf(10) ** -tol * max(1, mp.sqrt(mpf(r.numerator) / r.denominator)):
            return "wrong", "K(k')/K(k) misses sqrt(r) by %s" % mp.nstr(rel.residual, 5)
        with mp.workprec(bits + 64):
            ulp = mpf(2) ** (16 - bits)
            if abs(mpf(m["k"]) ** 2 + mpf(m["k_comp"]) ** 2 - 1) > ulp:
                return "wrong", "k^2 + k'^2 != 1"
            q = mp.exp(-mp.pi * mp.sqrt(mpf(r.numerator) / r.denominator))
            for key, ref in (("q", q), ("K_k", rel.K_k), ("K_kcomp", rel.K_kcomp)):
                if abs(mpf(m[key]) / ref - 1) > ulp:
                    return "wrong", "%s disagrees with mpmath" % key
        return "ok", ""

    def _ladder(self, argv, _rc, payload) -> Tuple[str, str]:
        r0 = Fraction(_opt_str(argv, "--r0"))
        bad = self._header(argv, payload, r0)
        if bad:
            return "wrong", bad
        lad = payload["ladder"]
        n = _opt(argv, "--n")
        if lad["n"] != n or not lad["certified"] or len(lad["levels"]) != n:
            return "wrong", "ladder does not report n certified levels"
        bits, gate = payload["precision_bits"], lad["gate_exp"]
        if gate != payload["tol_exp"] - 20:
            return "wrong", "gate_exp is not tol_exp - 20"
        short = []
        for j, lev in enumerate(lad["levels"], 1):
            rj = r0 * 25 ** j
            if lev["level"] != j or Fraction(lev["r"]["num"], lev["r"]["den"]) != rj:
                return "wrong", "level %d is not at 25^%d r0" % (j, j)
            rel = relation(rj, lev["k"], None, bits)
            with mp.workprec(bits + 64):
                k = mpf(lev["k"])
                dk_rel = rel.dk_abs / k
                if dk_rel < mpf(10) ** -gate:
                    continue
                # what the ladder certifies: |dk| under its absolute gate
                if rel.dk_abs >= mpf(10) ** -gate:
                    return "wrong", "level %d: implied |dk| %s above 10^-%d" % (
                        j, mp.nstr(rel.dk_abs, 5), gate)
                # the absolute gate passes any k below 10^-gate (ROADMAP 2a);
                # half the gate's digits, relative to k, is the floor below
                # which the value counts as wrong rather than imprecise
                if dk_rel >= mpf(10) ** -(gate // 2):
                    return "wrong", "level %d: implied |dk|/k %s above 10^-%d" % (
                        j, mp.nstr(dk_rel, 5), gate // 2)
                short.append("level %d: implied |dk|/k %s above 10^-%d" % (
                    j, mp.nstr(dk_rel, 5), gate))
        if short:
            return "imprecise", "; ".join(short)
        return "ok", ""

    def _verify(self, argv, rc, payload) -> Tuple[str, str]:
        r = Fraction(_opt_str(argv, "--r"))
        bad = self._header(argv, payload, r)
        if bad:
            return "wrong", bad
        rep = payload["report"]
        ids = [e["id"] for e in rep["entries"]]
        wanted = _opt_str(argv, "--ids").split(",") if "--ids" in argv else self.registry
        if ids != [i for i in self.registry if i in wanted]:
            return "wrong", "report ids differ from the request"
        all_pass = all(e["passed"] for e in rep["entries"])
        if rep["all_pass"] != all_pass:
            return "wrong", "all_pass disagrees with the entries"
        if (rc == 0) != all_pass:
            return "wrong", "exit %d disagrees with all_pass=%s" % (rc, all_pass)
        if rc == 0:
            return "ok", ""
        failed = [e["id"] for e in rep["entries"] if not e["passed"]]
        return "typed", "certification failure: %s" % ",".join(failed)


class Relation(NamedTuple):
    residual: mpf   # |K(k')/K(k) - sqrt(r)|
    dk_abs: mpf     # the error in k that residual implies, to first order
    K_k: mpf
    K_kcomp: mpf


def relation(r: Fraction, k_str: str, kc_str: Optional[str], bits: int) -> Relation:
    """K(k')/K(k) - sqrt(r) from mpmath's ellipk, and the error in k it implies.

    K of the modulus nearer 1 is taken as ellipk(1 - s^2) with s the smaller
    modulus, at a precision that holds 1 - s^2 exactly.  The implied error
    uses dF/dk = -pi / (2 k k'^2 K(k)^2) for F = K(k')/K(k).
    """
    with mp.workprec(bits + 64):
        k = mpf(k_str)
        small = k if kc_str is None else min(k, mpf(kc_str))
        extra = max(0, -int(mpmath.mag(small)))
    with mp.workprec(2 * bits + 2 * extra + 64):
        k = mpf(k_str)
        if kc_str is None or k <= mpf(kc_str):
            K_k, K_kc = mpmath.ellipk(k * k), mpmath.ellipk(1 - k * k)
            kc2 = 1 - k * k
        else:
            kc = mpf(kc_str)
            K_kc, K_k = mpmath.ellipk(kc * kc), mpmath.ellipk(1 - kc * kc)
            kc2 = kc * kc
        diff = abs(K_kc / K_k - mp.sqrt(mpf(r.numerator) / r.denominator))
        return Relation(diff, diff * 2 * k * kc2 * K_k ** 2 / mp.pi, K_k, K_kc)


def _opt_str(argv: Sequence[str], flag: str) -> str:
    return argv[list(argv).index(flag) + 1]


def _opt(argv: Sequence[str], flag: str) -> int:
    return int(_opt_str(argv, flag))
