"""Outside-in span tracing of the package's public functions.

Each traced function is wrapped once, and the wrapper is bound to the name
in every ``quintic_moduli`` module namespace that holds the original, so
that calls made inside a module (``rrcf_converged`` calling
``rrcf_truncated``, ``ladder`` calling ``solve_singular_modulus``) are caught
as well as calls across modules.  No source file changes.

A span is (name, start, end, parent span index, request id).  Spans are kept
in memory; ``dump`` writes them out once the run is over.  A span's self
time is its duration minus the durations of its direct children (calls are
nested and single-threaded, so the children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Tuple

#: (module, function) pairs to trace.  ``_agm_raw`` is the AGM kernel behind
#: the public ``agm``, ``elliptic_K`` and every solver step; it is reported
#: as ``bigmath_kernel.agm``.
TRACED = (
    ("bigmath_kernel", "solve_singular_modulus"),
    ("bigmath_kernel", "_agm_raw"),
    ("bigmath_kernel", "eta_f"),
    ("bigmath_kernel", "nome"),
    ("modular_core", "rrcf_converged"),
    ("modular_core", "rrcf_truncated"),
    ("modular_core", "descend_a"),
    ("modular_core", "descend_v"),
    ("modular_core", "a_value"),
    ("modular_core", "multiplier_M5"),
    ("quintic_ladder", "ladder"),
    ("quintic_ladder", "p_map"),
    ("quintic_ladder", "u_map"),
    ("quintic_ladder", "u_star"),
    ("quintic_ladder", "g_invariant"),
    ("certify", "run_suite"),
    ("report", "big_to_str"),
    ("cli", "main"),
)

REPORTED_AS = {"bigmath_kernel._agm_raw": "bigmath_kernel.agm"}

_MODULES = ("bigmath_kernel", "modular_core", "quintic_ladder", "certify", "report", "cli")


class Tracer:
    def __init__(self) -> None:
        # spans: [name, start, end, parent, request]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request = -1
        self.solve_keys: List[Tuple[Fraction, int, int]] = []
        self.cf_depths: List[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "bigmath_kernel.solve_singular_modulus":
                self._note_solve(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "modular_core.rrcf_converged":
                self.cf_depths.append(result[1])
            return result

        return traced

    def _note_solve(self, args, kwargs) -> None:
        r_num = kwargs.get("r_num", args[0] if args else None)
        r_den = kwargs.get("r_den", args[1] if len(args) > 1 else 1)
        ctx = kwargs.get("ctx", args[2] if len(args) > 2 else None)
        bits = getattr(ctx, "precision_bits", 0)
        tol = getattr(ctx, "tol_exp", 0)
        self.solve_keys.append((Fraction(r_num, r_den), bits, tol))

    def install(self) -> None:
        """Wrap every traced function the package still defines."""
        pkg = sys.modules["quintic_moduli"]
        mods = [sys.modules["quintic_moduli." + m] for m in _MODULES] + [pkg]
        for mod_name, fn_name in TRACED:
            home = sys.modules["quintic_moduli." + mod_name]
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            name = "%s.%s" % (mod_name, fn_name)
            wrapper = self._wrap(REPORTED_AS.get(name, name), fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += (t1 - t0) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str) -> None:
        """Write one JSON line per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
