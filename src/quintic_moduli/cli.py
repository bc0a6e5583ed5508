"""Command-line front end.

    quintic-moduli kr     --r 5
    quintic-moduli ladder --r0 5 --n 2 [--seed-k K --seed-k25 K] [--csv]
    quintic-moduli rrcf   --r 4
    quintic-moduli verify --r 1 [--ids eq5-eta-quotient,k-reciprocal]

Global flags: --prec BITS, --tol-exp E, --digits D, --json.
Every modulus is solved once per request; a solve is a theta quotient plus
two AGMs.  The argument parser is built once per process, on first use, so
repeated in-process main() calls pay only for parsing.
Exit codes: 0 success, 2 usage, 3 convergence failure (an iteration ran out
of budget or a solve's K-ratio residual missed tolerance), 4 certification
failure.  JSON output validates against JSON_SCHEMA below; every number
crosses as a decimal string with full round-trip digits, so --digits only
affects the human-readable text mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath import mp, mpf, workprec

from .bigmath_kernel import (
    CertificationError,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    _round_to,
    nome,
    solve_singular_modulus,
)
from .certify import REGISTRY, UsageError, run_suite
from .modular_core import a_value, closed_form_R, rrcf_converged, scale_rational
from .quintic_ladder import GATE_SLACK_DIGITS, BranchError, LadderTrace, ladder
from .report import big_to_str, str_to_big

__all__ = ["main", "JSON_SCHEMA"]


_DECIMAL = {"type": "string", "pattern": "^-?\\d+(\\.\\d+)?(e[+-]?\\d+)?$"}
_RATIONAL = {
    "type": "object",
    "required": ["num", "den"],
    "additionalProperties": False,
    "properties": {
        "num": {"type": "integer", "minimum": 1},
        "den": {"type": "integer", "minimum": 1},
    },
}

#: published schema for --json output (draft 2020-12)
JSON_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "r", "precision_bits", "tol_exp"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["kr", "ladder", "rrcf", "verify"]},
        "r": _RATIONAL,
        "precision_bits": {"type": "integer", "minimum": 64},
        "tol_exp": {"type": "integer", "minimum": 1},
        "modulus": {
            "type": "object",
            "required": ["k", "k_comp", "q", "K_k", "K_kcomp", "residual"],
            "additionalProperties": False,
            "properties": {
                "k": _DECIMAL,
                "k_comp": _DECIMAL,
                "q": _DECIMAL,
                "K_k": _DECIMAL,
                "K_kcomp": _DECIMAL,
                "residual": _DECIMAL,
            },
        },
        "ladder": {
            "type": "object",
            "required": ["n", "gate_exp", "seed_k", "seed_k25", "certified", "levels"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "gate_exp": {"type": "integer"},
                "seed_k": _DECIMAL,
                "seed_k25": _DECIMAL,
                "certified": {"type": "boolean"},
                "levels": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "level", "r", "x", "p_value",
                            "kkprime", "k", "oracle_residual",
                        ],
                        "additionalProperties": False,
                        "properties": {
                            "level": {"type": "integer", "minimum": 1},
                            "r": _RATIONAL,
                            "x": _DECIMAL,
                            "p_value": _DECIMAL,
                            "kkprime": _DECIMAL,
                            "k": _DECIMAL,
                            "oracle_residual": _DECIMAL,
                        },
                    },
                },
            },
        },
        "rrcf": {
            "type": "object",
            "required": ["closed", "truncated", "depth", "difference", "a"],
            "additionalProperties": False,
            "properties": {
                "closed": _DECIMAL,
                "truncated": _DECIMAL,
                "depth": {"type": "integer", "minimum": 1},
                "difference": _DECIMAL,
                "a": _DECIMAL,
            },
        },
        "report": {
            "type": "object",
            "required": ["all_pass", "entries"],
            "additionalProperties": False,
            "properties": {
                "all_pass": {"type": "boolean"},
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["id", "residual", "passed", "elapsed_ms"],
                        "additionalProperties": False,
                        "properties": {
                            "id": {"enum": list(REGISTRY)},
                            "residual": _DECIMAL,
                            "passed": {"type": "boolean"},
                            "elapsed_ms": {"type": "integer", "minimum": 0},
                            "detail": {
                                "type": "object",
                                "additionalProperties": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
    },
}


_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def _rational_arg(s: str) -> Tuple[int, int]:
    m = _RATIONAL_RE.match(s.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            "expected a positive rational like 5 or 3/2, got %r" % s
        )
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if num == 0 or den == 0:
        raise argparse.ArgumentTypeError("rational must be positive, got %r" % s)
    f = Fraction(num, den)
    return f.numerator, f.denominator


def _positive_int(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % s)
    if v < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % s)
    return v


def _decimal_arg(s: str) -> str:
    try:
        mpf(s)
    except Exception:
        raise argparse.ArgumentTypeError("expected a decimal number, got %r" % s)
    return s


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _top(command: str, r_num: int, r_den: int, ctx: PrecisionContext) -> dict:
    return {
        "command": command,
        "r": {"num": r_num, "den": r_den},
        "precision_bits": ctx.precision_bits,
        "tol_exp": ctx.tol_exp,
    }


def _fmt_rational(num: int, den: int) -> str:
    return str(num) if den == 1 else "%d/%d" % (num, den)


def cmd_kr(args, ctx: PrecisionContext) -> int:
    rn, rd = args.r
    rec = solve_singular_modulus(rn, rd, ctx)
    if args.json:
        out = _top("kr", rn, rd, ctx)
        out["modulus"] = {
            "k": big_to_str(rec.k, ctx.precision_bits),
            "k_comp": big_to_str(rec.k_comp, ctx.precision_bits),
            "q": big_to_str(rec.q, ctx.precision_bits),
            "K_k": big_to_str(rec.K_k, ctx.precision_bits),
            "K_kcomp": big_to_str(rec.K_kcomp, ctx.precision_bits),
            "residual": big_to_str(rec.residual, ctx.precision_bits),
        }
        _emit_json(out)
    else:
        d = args.digits
        print("command: kr   r = %s   precision_bits = %d" % (_fmt_rational(rn, rd), ctx.precision_bits))
        print("k        = %s" % mp.nstr(rec.k, d))
        print("k_comp   = %s" % mp.nstr(rec.k_comp, d))
        print("q        = %s" % mp.nstr(rec.q, d))
        print("K_k      = %s" % mp.nstr(rec.K_k, d))
        print("K_kcomp  = %s" % mp.nstr(rec.K_kcomp, d))
        print("residual = %s" % mp.nstr(rec.residual, 8))
    return 0


def _render_trace_text(trace: LadderTrace, r0: Fraction, digits: int) -> None:
    for s in trace.steps:
        rj = r0 * 25 ** s.level
        print(
            "level %d: r = %-12s k = %s   oracle_residual = %s"
            % (
                s.level,
                _fmt_rational(rj.numerator, rj.denominator),
                mp.nstr(s.k, digits),
                mp.nstr(s.oracle_residual, 8),
            )
        )


def cmd_ladder(args, ctx: PrecisionContext) -> int:
    rn, rd = args.r0
    r0 = Fraction(rn, rd)
    if r0 * 25 < 1:
        print(
            "usage error: first ladder level 25*r0 = %s sits below 1; "
            "ascend from the reciprocal point instead (k(1/r) = k'(r))"
            % (r0 * 25,),
            file=sys.stderr,
        )
        return 2

    if args.seed_k is not None:
        k_hi = str_to_big(args.seed_k, ctx.precision_bits)
    else:
        k_hi = solve_singular_modulus(rn, rd, ctx).k
    lo_n, lo_d = scale_rational(rn, rd, 1, 25)
    if args.seed_k25 is not None:
        k_lo = str_to_big(args.seed_k25, ctx.precision_bits)
    else:
        k_lo = solve_singular_modulus(lo_n, lo_d, ctx).k

    try:
        trace = ladder(rn, rd, k_hi, k_lo, args.n, ctx)
    except CertificationError as exc:
        print("certification failure: %s" % exc)
        if isinstance(exc.payload, LadderTrace):
            _render_trace_text(exc.payload, r0, args.digits)
        return 4

    if args.json:
        out = _top("ladder", rn, rd, ctx)
        bits = ctx.precision_bits
        levels = []
        for s in trace.steps:
            rj = r0 * 25 ** s.level
            levels.append(
                {
                    "level": s.level,
                    "r": {"num": rj.numerator, "den": rj.denominator},
                    "x": big_to_str(s.x, bits),
                    "p_value": big_to_str(s.p_value, bits),
                    "kkprime": big_to_str(s.kkprime, bits),
                    "k": big_to_str(s.k, bits),
                    "oracle_residual": big_to_str(s.oracle_residual, bits),
                }
            )
        out["ladder"] = {
            "n": args.n,
            "gate_exp": ctx.tol_exp - GATE_SLACK_DIGITS,
            "seed_k": big_to_str(k_hi, bits),
            "seed_k25": big_to_str(k_lo, bits),
            "certified": True,
            "levels": levels,
        }
        _emit_json(out)
    elif args.csv:
        bits = ctx.precision_bits
        print("r,k,residual")
        for s in trace.steps:
            rj = r0 * 25 ** s.level
            print(
                "%s,%s,%s"
                % (
                    _fmt_rational(rj.numerator, rj.denominator),
                    big_to_str(s.k, bits),
                    big_to_str(s.oracle_residual, bits),
                )
            )
    else:
        print(
            "command: ladder   r0 = %s   n = %d   precision_bits = %d"
            % (_fmt_rational(rn, rd), args.n, ctx.precision_bits)
        )
        print("seed k(r0)    = %s" % mp.nstr(k_hi, args.digits))
        print("seed k(r0/25) = %s" % mp.nstr(k_lo, args.digits))
        _render_trace_text(trace, r0, args.digits)
        print(
            "all %d levels certified (relative gate 10^-%d)"
            % (args.n, ctx.tol_exp - GATE_SLACK_DIGITS)
        )
    return 0


def cmd_rrcf(args, ctx: PrecisionContext) -> int:
    rn, rd = args.r
    arec = a_value(rn, rd, ctx)
    closed = closed_form_R(arec.a, ctx)
    truncated, depth = rrcf_converged(nome(rn, rd, ctx), ctx)
    with workprec(ctx.work_bits):
        diff = _round_to(ctx, abs(closed - truncated))
    if args.json:
        out = _top("rrcf", rn, rd, ctx)
        bits = ctx.precision_bits
        out["rrcf"] = {
            "closed": big_to_str(closed, bits),
            "truncated": big_to_str(truncated, bits),
            "depth": depth,
            "difference": big_to_str(diff, bits),
            "a": big_to_str(arec.a, bits),
        }
        _emit_json(out)
    else:
        d = args.digits
        print("command: rrcf   r = %s   precision_bits = %d" % (_fmt_rational(rn, rd), ctx.precision_bits))
        print("closed     = %s" % mp.nstr(closed, d))
        print("truncated  = %s   (depth %d)" % (mp.nstr(truncated, d), depth))
        print("difference = %s" % mp.nstr(diff, 8))
        print("a          = %s" % mp.nstr(arec.a, d))
    return 0


def cmd_verify(args, ctx: PrecisionContext) -> int:
    rn, rd = args.r
    ids = None
    if args.ids:
        ids = [s.strip() for s in args.ids.split(",") if s.strip()]
        if not ids:
            raise UsageError("--ids given but empty; registry: %s" % ", ".join(REGISTRY))
    rep = run_suite(rn, rd, ids=ids, ctx=ctx)
    if args.json:
        out = _top("verify", rn, rd, ctx)
        d = rep.to_dict()
        out["report"] = {"all_pass": d["all_pass"], "entries": d["entries"]}
        _emit_json(out)
    else:
        print(
            "command: verify   r = %s   precision_bits = %d   tol = 10^-%d"
            % (_fmt_rational(rn, rd), ctx.precision_bits, ctx.tol_exp)
        )
        for e in rep.entries:
            print(
                "%-18s residual = %-14s %s  (%d ms)"
                % (e.id, mp.nstr(e.residual, 6), "PASS" if e.passed else "FAIL", e.elapsed_ms)
            )
        n_pass = sum(1 for e in rep.entries if e.passed)
        print("%d/%d identities passed" % (n_pass, len(rep.entries)))
    return 0 if rep.all_pass else 4


_COMMANDS = {"kr": cmd_kr, "ladder": cmd_ladder, "rrcf": cmd_rrcf, "verify": cmd_verify}


# Built once per process and reused: parse_args makes a fresh Namespace per
# call, every action is store/store_true with an immutable default, and prog
# is fixed (sys.argv[0] is never read).  Keep it so: no mutable defaults.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=_positive_int, default=512, metavar="BITS",
                        help="mantissa bits for returned values (default 512)")
    common.add_argument("--tol-exp", type=_positive_int, default=120, metavar="E",
                        help="certification threshold 10^-E (default 120)")
    common.add_argument("--digits", type=_positive_int, default=50, metavar="D",
                        help="display digits in text mode (default 50)")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")

    parser = argparse.ArgumentParser(
        prog="quintic-moduli",
        description="Certified singular moduli and their degree-25 ladder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kr = sub.add_parser("kr", parents=[common],
                          help="solve the modulus at one rational r")
    p_kr.add_argument("--r", type=_rational_arg, required=True, metavar="P/Q")

    p_ladder = sub.add_parser("ladder", parents=[common],
                              help="climb n certified rungs r0 -> 25^n r0")
    p_ladder.add_argument("--r0", type=_rational_arg, required=True, metavar="P/Q")
    p_ladder.add_argument("--n", type=_positive_int, required=True)
    p_ladder.add_argument("--seed-k", type=_decimal_arg, metavar="DEC",
                          help="override the solved k at r0")
    p_ladder.add_argument("--seed-k25", type=_decimal_arg, metavar="DEC",
                          help="override the solved k at r0/25")
    p_ladder.add_argument("--csv", action="store_true",
                          help="emit levels as CSV (r,k,residual)")

    p_rrcf = sub.add_parser("rrcf", parents=[common],
                            help="Rogers-Ramanujan value by two routes")
    p_rrcf.add_argument("--r", type=_rational_arg, required=True, metavar="P/Q")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the identity registry at one r")
    p_verify.add_argument("--r", type=_rational_arg, required=True, metavar="P/Q")
    p_verify.add_argument("--ids", metavar="ID[,ID...]",
                          help="comma-separated registry subset (default: all)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2

    if getattr(args, "csv", False) and args.json:
        print("usage error: --csv and --json are mutually exclusive", file=sys.stderr)
        return 2

    try:
        ctx = PrecisionContext(precision_bits=args.prec, tol_exp=args.tol_exp)
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](args, ctx)
    except (UsageError, DomainError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print("convergence failure: %s" % exc, file=sys.stderr)
        return 3
    except (BranchError, CertificationError) as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
