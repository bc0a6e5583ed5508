"""Command-line front end.

    quintic-moduli kr     --r 5
    quintic-moduli ladder --r0 5 --n 2 [--seed-kkprime S --seed-kkprime25 S] [--csv]
    quintic-moduli rrcf   --r 4
    quintic-moduli verify --r 1 [--ids eq5-eta-quotient,k-reciprocal]

Every command takes --prec BITS, --tol-exp E, --digits D and --json after
its name, as in `kr --r 5 --json`; before the command they are unrecognized.
Every modulus is solved once per request; a solve is a theta quotient plus
one AGM.  Every certificate lives in the library: `rrcf` writes the
record of one call, modular_core.rrcf_value, and `ladder` hands its two
seed overrides to quintic_ladder.ladder, which checks the start and solves
any seed not given.  The argument parser is built once per process, on
first use, so repeated in-process main() calls pay only for parsing: a
known command's arguments go straight to its own parser, and only help, a
missing or unknown command and leftovers reach the top level, which prints
for them what its parse_args prints.
Each command loads only the modules it runs: the package registers
modular_core, quintic_ladder and certify with importlib's LazyLoader, and
this module calls them through their module names, so `kr` runs none of
their bodies, `rrcf` runs modular_core's, `ladder` also quintic_ladder's
and `verify` all three.  Every typed error is bigmath_kernel's, so
catching one loads nothing.
Exit codes: 0 success, 2 usage (or a stdout closed before the output was
written, which ends quietly), 3 convergence failure (an iteration ran out
of budget or a solve's K-ratio residual missed tolerance), 4 certification
failure.  JSON output validates against JSON_SCHEMA, which reads the
ladder's and the registry's records and so is built on its first read;
every number crosses as a decimal string with full round-trip digits, so
--digits only affects the human-readable text mode.  One writer, _json,
writes every document in one pass, the bytes json.dumps(indent=2) writes
for its plain data: a result record, a named tuple, goes in as its
_fields in declaration order, and the schema takes each record's property
list from those same fields.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional

from mpmath import mp, mpf

from . import certify, modular_core, quintic_ladder
from .bigmath_kernel import (
    BranchError,
    CertificationError,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    SingularModulusRecord,
    UsageError,
    solve_singular_modulus,
)
from .report import big_to_str, str_to_big

__all__ = ["main", "JSON_SCHEMA"]


_DECIMAL = {"type": "string", "pattern": "^-?\\d+(\\.\\d+)?(e[+-]?\\d+)?$"}


def _object(props: dict, optional=()) -> dict:
    """A closed JSON object schema whose properties are all required but
    those listed in ``optional``."""
    return {
        "type": "object",
        "required": [name for name in props if name not in optional],
        "additionalProperties": False,
        "properties": props,
    }


def _fields(record, **explicit) -> dict:
    """The record's fields in declaration order, each a decimal string
    unless given explicitly."""
    return {name: explicit.get(name, _DECIMAL) for name in record._fields}


_RATIONAL = _object({
    "num": {"type": "integer", "minimum": 1},
    "den": {"type": "integer", "minimum": 1},
})


def _json_schema() -> dict:
    """The published schema for --json output (draft 2020-12)."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        **_object({
            "command": {"enum": ["kr", "ladder", "rrcf", "verify"]},
            "r": _RATIONAL,
            "precision_bits": {"type": "integer", "minimum": 64},
            "tol_exp": {"type": "integer", "minimum": 1},
            "modulus": _object(_fields(SingularModulusRecord)),
            "ladder": _object({
                "n": {"type": "integer", "minimum": 1},
                "gate_exp": {"type": "integer"},
                "seed_kkprime": _DECIMAL,
                "seed_kkprime25": _DECIMAL,
                "certified": {"type": "boolean"},
                "levels": {
                    "type": "array",
                    "items": _object(_fields(
                        quintic_ladder.LadderStep,
                        level={"type": "integer", "minimum": 1},
                        r=_RATIONAL,
                    )),
                },
            }),
            "rrcf": _object(_fields(
                modular_core.RRecord, depth={"type": "integer", "minimum": 1},
            )),
            "report": _object({
                "all_pass": {"type": "boolean"},
                "entries": {
                    "type": "array",
                    "items": _object(_fields(
                        certify.IdentityEntry,
                        id={"enum": list(certify.REGISTRY)},
                        passed={"type": "boolean"},
                        elapsed_ms={"type": "integer", "minimum": 0},
                        detail={"type": "object", "additionalProperties": {"type": "string"}},
                    ), optional=("detail",)),
                },
            }),
        }, optional=("modulus", "ladder", "rrcf", "report")),
    }


def __getattr__(name: str):
    # the schema reads the ladder's and the registry's records, so it is
    # built on its first read, not when the module loads
    if name == "JSON_SCHEMA":
        schema = globals()[name] = _json_schema()
        return schema
    if name == "REGISTRY":
        return certify.REGISTRY
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


_RATIONAL_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
#: the integers int() and the decimals mpf() read, in any number of digits
_INT_RE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")
_DECIMAL_RE = re.compile(r"\s*[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\s*")

#: the characters of a bad argument a usage message quotes
_QUOTED_MAX = 40


def _quoted(s: str) -> str:
    """repr(s), or for a long s the repr of its first _QUOTED_MAX
    characters, an ellipsis and its length."""
    if len(s) <= _QUOTED_MAX:
        return repr(s)
    return "%r... (%d characters)" % (s[:_QUOTED_MAX], len(s))


def _too_long(kind: str, s: str) -> argparse.ArgumentTypeError:
    """The usage error for a well-formed `kind` past Python's int() limit."""
    return argparse.ArgumentTypeError("%s has too many digits to convert, got %s"
                                      % (kind, _quoted(s)))


def _rational_arg(s: str) -> Fraction:
    m = _RATIONAL_RE.match(s.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            "expected a positive rational like 5 or 3/2, got %s" % _quoted(s)
        )
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:
        raise _too_long("rational", s)
    if num == 0 or den == 0:
        raise argparse.ArgumentTypeError("rational must be positive, got %s" % _quoted(s))
    return Fraction(num, den)


def _positive_int(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        if _INT_RE.fullmatch(s):
            raise _too_long("integer", s)
        raise argparse.ArgumentTypeError("expected an integer, got %s" % _quoted(s))
    if v < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %s" % _quoted(s))
    return v


def _decimal_arg(s: str) -> str:
    try:
        str_to_big(s, 53)  # whether s parses does not depend on the bits
    except Exception:
        if _DECIMAL_RE.fullmatch(s):
            raise _too_long("decimal number", s)
        raise argparse.ArgumentTypeError("expected a decimal number, got %s" % _quoted(s))
    return s


def _json(x, bits: int, pad: str = "\n") -> str:
    """x as json.dumps(indent=2) writes the data it stands for: an mpf as its
    round-trip decimal at ``bits``, a Fraction as {"num", "den"}, a result
    record (a named tuple) as its fields in declaration order, and a plain
    list or tuple as an array.  ``pad`` is the newline and indent of x's
    line; strings take json's C escape, as the encoder's do."""
    t = type(x)
    if t is mpf:
        return '"' + big_to_str(x, bits) + '"'
    if t is str:
        return _quote(x)
    if t is bool or x is None:
        return "null" if x is None else "true" if x else "false"
    if t is int:
        return int.__repr__(x)
    inner = pad + "  "
    if t is list or t is tuple:
        body = [_json(v, bits, inner) for v in x]
        return "[" + inner + ("," + inner).join(body) + pad + "]" if body else "[]"
    if t is Fraction:
        x = {"num": x.numerator, "den": x.denominator}
    elif t is not dict:
        x = x._asdict()
    body = [_quote(k) + ": " + _json(v, bits, inner) for k, v in x.items()]
    return "{" + inner + ("," + inner).join(body) + pad + "}" if body else "{}"


def _emit_json(command: str, r: Fraction, ctx: PrecisionContext, key: str, payload) -> None:
    """Print the command header with payload under ``key`` as one document."""
    print(_json({
        "command": command,
        "r": r,
        "precision_bits": ctx.precision_bits,
        "tol_exp": ctx.tol_exp,
        key: payload,
    }, ctx.precision_bits))


def cmd_kr(args, ctx: PrecisionContext) -> int:
    rec = solve_singular_modulus(args.r.numerator, args.r.denominator, ctx)
    if args.json:
        _emit_json("kr", args.r, ctx, "modulus", rec)
    else:
        d = args.digits
        print("command: kr   r = %s   precision_bits = %d" % (args.r, ctx.precision_bits))
        print("k        = %s" % mp.nstr(rec.k, d))
        print("k_comp   = %s" % mp.nstr(rec.k_comp, d))
        print("q        = %s" % mp.nstr(rec.q, d))
        print("K_k      = %s" % mp.nstr(rec.K_k, d))
        print("K_kcomp  = %s" % mp.nstr(rec.K_kcomp, d))
        print("residual = %s" % mp.nstr(rec.residual, 8))
    return 0


def _render_trace_text(trace: quintic_ladder.LadderTrace, digits: int) -> None:
    for s in trace.steps:
        print(
            "level %d: r = %-12s k = %s   oracle_residual = %s"
            % (s.level, s.r, mp.nstr(s.k, digits), mp.nstr(s.oracle_residual, 8))
        )


def cmd_ladder(args, ctx: PrecisionContext) -> int:
    def seed(s: Optional[str]) -> Optional[mpf]:
        return None if s is None else str_to_big(s, ctx.precision_bits)

    try:
        trace = quintic_ladder.ladder(
            args.r0.numerator, args.r0.denominator, args.n, ctx,
            kkprime_r0=seed(args.seed_kkprime), kkprime_r0_over25=seed(args.seed_kkprime25),
        )
    except CertificationError as exc:
        print("certification failure: %s" % exc)
        if isinstance(exc.payload, quintic_ladder.LadderTrace):
            _render_trace_text(exc.payload, args.digits)
        return 4

    if args.json:
        _emit_json("ladder", args.r0, ctx, "ladder", {
            "n": args.n,
            "gate_exp": trace.gate_exp,
            "seed_kkprime": trace.seed_kkprime,
            "seed_kkprime25": trace.seed_kkprime25,
            "certified": True,
            "levels": trace.steps,
        })
    elif args.csv:
        bits = ctx.precision_bits
        print("r,k,residual")
        for s in trace.steps:
            print("%s,%s,%s" % (s.r, big_to_str(s.k, bits), big_to_str(s.oracle_residual, bits)))
    else:
        print(
            "command: ladder   r0 = %s   n = %d   precision_bits = %d"
            % (args.r0, args.n, ctx.precision_bits)
        )
        print("seed k k'(r0)    = %s" % mp.nstr(trace.seed_kkprime, args.digits))
        print("seed k k'(r0/25) = %s" % mp.nstr(trace.seed_kkprime25, args.digits))
        _render_trace_text(trace, args.digits)
        print(
            "all %d levels certified (relative gate 10^-%d)"
            % (args.n, trace.gate_exp)
        )
    return 0


def cmd_rrcf(args, ctx: PrecisionContext) -> int:
    rec = modular_core.rrcf_value(args.r.numerator, args.r.denominator, ctx)
    if args.json:
        _emit_json("rrcf", args.r, ctx, "rrcf", rec)
    else:
        d = args.digits
        print("command: rrcf   r = %s   precision_bits = %d" % (args.r, ctx.precision_bits))
        print("closed     = %s" % mp.nstr(rec.closed, d))
        print("truncated  = %s   (depth %d)" % (mp.nstr(rec.truncated, d), rec.depth))
        print("difference = %s" % mp.nstr(rec.difference, 8))
        print("a          = %s" % mp.nstr(rec.a, d))
    return 0


def cmd_verify(args, ctx: PrecisionContext) -> int:
    ids = None
    if args.ids is not None:
        ids = [s.strip() for s in args.ids.split(",") if s.strip()]
        if not ids:
            raise UsageError("--ids given but empty; registry: %s" % ", ".join(certify.REGISTRY))
    rep = certify.run_suite(args.r.numerator, args.r.denominator, ids=ids, ctx=ctx)
    if args.json:
        report = {"all_pass": rep.all_pass, "entries": rep.entries}
        _emit_json("verify", args.r, ctx, "report", report)
    else:
        print(
            "command: verify   r = %s   precision_bits = %d   tol = 10^-%d"
            % (args.r, ctx.precision_bits, ctx.tol_exp)
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
    p_ladder.add_argument("--seed-kkprime", type=_decimal_arg, metavar="DEC",
                          help="override the solved product k k' at r0, in (0, 1/2]")
    p_ladder.add_argument("--seed-kkprime25", type=_decimal_arg, metavar="DEC",
                          help="override the solved product k k' at r0/25, in (0, 1/2]")
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

    parser.commands = sub.choices  # name -> subparser, for main's dispatch
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit cannot raise again, and end as a usage error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


def _main(argv: Optional[List[str]]) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extras:
                parser.error("unrecognized arguments: %s" % " ".join(extras))
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
