"""The CLI's outputs, pinned: one sha256 per request over its exit code,
stdout and stderr, with the verify timings masked.

The requests cover `kr`, `rrcf` and `verify` at six r from 1/10^4 to 10^6
and `ladder` from three starts, at 256, 512 and 1024 bits, in text and in
JSON.  Two more reach the continued fraction where the grid does not: a
4096-bit `rrcf` at r = 1/25 (q = e^(-pi/5), depth 98), in text and JSON,
and a `verify` of the q-series identities alone at r = 1/2, which reads R
directly at 1/2 and through reciprocity at 1/50.  Three more reach past r =
10^6: `kr` at r = 10^20, a `verify` of the q-series identities at r =
10^11, which solves nothing, and `kr` just above the solver's bound, which
is refused.  Beside them stand the parse paths: top-level and per-command
help, a missing or unknown command, a missing or bad value, leftover
arguments, an option before the command, a flag conflict and abbreviated
options.  Help and usage lines are written at a fixed width of 80 columns.
A change that moves any printed digit fails the request it moved; when the
move is meant, rewrite tests/data/outputs.json with

    PYTHONPATH=src python tests/test_outputs_pinned.py

so that the data file's diff names exactly the outputs that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import re
from unittest import mock

import pytest

from quintic_moduli.cli import main

import oracle_values as ov

DATA = os.path.join(os.path.dirname(__file__), "data", "outputs.json")

_BITS = (256, 512, 1024)
_POINTS = ("1/10000", "1/13", "1", "7/3", "10000", "1000000")


#: requests past r = 10^6, up to the solver's bound and just above it
_RANGE_PATHS = [
    ["kr", "--r", "1" + "0" * 20, "--prec", "256", "--tol-exp", "55", "--json"],
    ["verify", "--r", "1" + "0" * 11, "--ids", "eq5-eta-quotient,eq19-v-descent,eq24-q-descent",
     "--prec", "512", "--tol-exp", "120"],
    ["kr", "--r", "4052847345693510857755178528389105556175"],
]


#: requests that exercise the argument parser rather than the math
_PARSE_PATHS = [
    ["--help"],
    *[[cmd, "--help"] for cmd in ("kr", "ladder", "rrcf", "verify")],
    [],
    ["frobnicate"],
    ["kr"],
    ["kr", "--r", "0"],
    ["kr", "--r", "5", "extra"],
    ["kr", "--r", "5", "--", "x"],
    ["--json", "kr", "--r", "5"],
    ["ladder", "--r0", "5", "--n", "1", "--csv", "--json"],
    ["kr", "--r", "5", "--pre", "256", "--tol", "55"],
]

#: requests that reach the continued fraction off the grid above
_CF_PATHS = [
    ["rrcf", "--r", "1/25", "--prec", "4096", "--tol-exp", "960"],
    ["rrcf", "--r", "1/25", "--prec", "4096", "--tol-exp", "960", "--json"],
    ["verify", "--r", "1/2", "--ids", "eq5-eta-quotient,eq19-v-descent,eq24-q-descent",
     "--prec", "1024", "--tol-exp", "240", "--json"],
]


def _requests():
    """(name, argv) of every pinned request; the name is its argv joined,
    "(no arguments)" for the empty one.
    Each command visits the precisions in turn along the points, from its
    own offset, so that each point is seen at more than one precision."""
    shapes = [[cmd, "--r", r] for cmd in ("kr", "rrcf", "verify") for r in _POINTS]
    shapes += [["ladder", "--r0", r0, "--n", "3"] for r0 in ("1/25", "7/3", "50")]
    out = []
    for i, shape in enumerate(shapes):
        bits = _BITS[(i + i // len(_POINTS)) % len(_BITS)]
        for mode in ([], ["--json"]):
            argv = shape + ["--prec", str(bits), "--tol-exp", str(ov.TOL_EXP[bits])] + mode
            out.append((" ".join(argv), argv))
    extra = _CF_PATHS + _RANGE_PATHS + _PARSE_PATHS
    return out + [(" ".join(argv) or "(no arguments)", argv) for argv in extra]


REQUESTS = _requests()


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(list(argv))
    stdout = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue())
    stdout = re.sub(r"\(\d+ ms\)", "(0 ms)", stdout)
    blob = json.dumps({"exit": code, "stdout": stdout, "stderr": err.getvalue()})
    return hashlib.sha256(blob.encode()).hexdigest()


def _pinned() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_the_pinned_requests_are_the_listed_ones():
    assert sorted(_pinned()) == sorted(name for name, _ in REQUESTS)


@pytest.mark.parametrize("name,argv", REQUESTS, ids=[name for name, _ in REQUESTS])
def test_output_is_pinned(name, argv):
    assert _digest(argv) == _pinned().get(name), "output of `%s` moved" % name


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({name: _digest(argv) for name, argv in REQUESTS}, fh, indent=1, sort_keys=True)
        fh.write("\n")
