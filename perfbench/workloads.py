"""Seeded request generators for the four benchmark workloads.

A request is the argv of one ``quintic_moduli.cli.main`` call.  Requests
come in *blocks*: every block of a workload holds one request per stratum
(a slice of the input range crossed with a precision), in shuffled order,
so that every block carries the same mix of cheap and expensive, passing
and failing inputs.  A run measures a fixed number of whole blocks
(``blocks_for``), which keeps the mix, and with it throughput and the
failure share, steady from seed to seed (see ``Generator`` for how
positions inside a stratum are drawn).  The count depends only on the
workload and ``--seconds``, never on how fast the code or the machine is,
so two commits time the same requests and report the same percentiles.

No request repeats within a run, and no solve point (the rationals r at
which a request solves the modulus) is shared between two requests of the
kr-sweep and ladder-climb workloads, so in-process memoisation of solves
can only act inside one request.  Warm-up requests use rationals whose
numerator or denominator is a multiple of 89 or 97, which the generators
never produce.

Why each range was chosen, and which inputs fail at the time of writing
(they are kept on purpose, so that a fix shows as a falling failure share):

kr-sweep
    r log-uniform over the whole supported domain [1/10^4, 10^6], one
    stratum per decade, at (512, 120), (1024, 240) and (4096, 960) bits.
    The solver does nearly all the work; the 4096-bit third shows how cost
    grows with precision and exercises ``report.big_to_str`` on long
    decimals.  The solver raises ConvergenceError (exit 3) below r ~ 1/800,
    about a tenth of the requests.
ladder-climb
    ``ladder --r0 R0 --n N``, R0 in [1/25, 50] (so 25 R0 >= 1) with
    25^N R0 <= 10^6, one stratum per N in 1..4, at 512 and 1024 bits.  The
    only workload that drives ``quintic_ladder``.  Deep rungs can leave the
    u_map branch (BranchError, exit 4) or miss the absolute oracle gate.
    At 512 bits, levels with k below about 10^-450 (r above about 4 10^5)
    come back with a relative error above the gate; the check counts those
    as imprecise results (ROADMAP item 2a).
verify-full
    ``verify --r R`` with the whole registry at 512 bits, R log-uniform in
    [1/100, 10^4], one stratum per decade.  The certify path, where one
    request repeats the same solves many times.  Small R fails in the r/25
    solve (exit 3); large R fails the absolute a-value gate (exit 4).
verify-qseries
    ``verify --r R --ids eq5-eta-quotient,eq19-v-descent,eq24-q-descent``
    over the same R range, two requests at 512 bits to one at 1024 bits.
    These groups call no solver: the continued fraction, eta products and
    descent maps do all the work.  Large R fails the absolute eq5 gate
    (exit 4).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Set, Tuple

QSERIES_IDS = "eq5-eta-quotient,eq19-v-descent,eq24-q-descent"

#: (precision_bits, tol_exp) pairs, each certifiable at its precision
P512 = (512, 120)
P1024 = (1024, 240)
P4096 = (4096, 960)

WORKLOADS = ("kr-sweep", "ladder-climb", "verify-full", "verify-qseries")

#: blocks one run times per 20 s of ``--seconds``: the number whose request
#: time came closest to 20 s, at the reference speed (reference.py), on the
#: commit that introduced the benchmark (Python 3.11, mpmath pure-Python
#: backend).  Blocks took 6.3 s (30 requests), 2.1 s (8), 5.7 s (6) and
#: 3.4 s (18) there.  Kept constant so that later commits time the same work.
BLOCKS_PER_20_S = {"kr-sweep": 3, "ladder-climb": 10, "verify-full": 4, "verify-qseries": 6}


def blocks_for(workload: str, seconds: float) -> int:
    """Whole blocks a run of ``seconds`` times; at least one."""
    return max(1, round(BLOCKS_PER_20_S[workload] * seconds / 20))


def _prec_args(p: Tuple[int, int]) -> List[str]:
    return ["--prec", str(p[0]), "--tol-exp", str(p[1])]


def _fmt(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else "%d/%d" % (r.numerator, r.denominator)


#: one request per (command, precision) run untimed before timing starts,
#: so that mpmath's per-precision constant caches are already filled
WARMUP = {
    "kr-sweep": [["kr", "--r", "97/89", "--json"] + _prec_args(p) for p in (P512, P1024, P4096)],
    "ladder-climb": [["ladder", "--r0", "97/89", "--n", "1", "--json"] + _prec_args(p)
                     for p in (P512, P1024)],
    "verify-full": [["verify", "--r", "97/89", "--json"] + _prec_args(P512)],
    "verify-qseries": [["verify", "--r", "97/89", "--ids", QSERIES_IDS, "--json"] + _prec_args(p)
                       for p in (P512, P1024)],
}


def _reserved(r: Fraction) -> bool:
    return any(v % m == 0 for v in (r.numerator, r.denominator) for m in (89, 97))


#: fractional part of the golden ratio: the additive recurrence u + b*PHI
#: (mod 1) spreads successive blocks' draws evenly over each stratum
PHI = 0.6180339887498949
#: seeded shift of each draw, as a share of its lane's log range
JITTER = 0.02
#: lane offsets step by the plastic number's reciprocal, so that lanes do
#: not all start at the bottom of their ranges in the same block
PLASTIC = 0.7548776662466927


class Generator:
    """Deterministic block stream for one workload and seed.

    A *lane* is one stratum of one request shape (a decade of r at one
    precision, say).  Block b draws lane i at position (u_i + b*PHI) mod 1
    of the lane's log range, moved by a seeded jitter of at most JITTER.
    The offsets u_i are fixed, so every run covers each lane at nearly the
    same positions, and the share of slow and of failing inputs hardly
    depends on the seed.  The seed picks the jitter, each rational's small
    term, and the order of requests inside every block.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.lanes: Dict[tuple, int] = {}
        self.used: Set[Fraction] = set()
        self.block_no = 0

    def _draw(self, lane: tuple, lo: float, hi: float, points=lambda r: (r,)) -> Fraction:
        """A fresh rational near the lane's next position in [lo, hi], whose
        smaller term is one digit (p/q with q <= 9 for r >= 1, 1..9 over q
        below 1), with no solve point shared with an earlier request."""
        index = self.lanes.setdefault(lane, len(self.lanes))
        u = (index * PLASTIC + self.block_no * PHI + self.rng.uniform(-JITTER, JITTER)) % 1.0
        x = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        while True:
            digits = list(range(1, 10))
            self.rng.shuffle(digits)
            for d in digits:
                r = Fraction(round(x * d), d) if x >= 1 else Fraction(d, max(1, round(d / x)))
                if not (r > 0 and lo <= r <= hi) or _reserved(r):
                    continue
                pts = set(points(r))
                if not pts & self.used:
                    self.used |= pts
                    return r
            # every nearby small-term rational is taken: nudge the position
            x = min(hi, max(lo, x * math.exp(self.rng.uniform(-0.05, 0.05))))

    def block(self) -> List[List[str]]:
        w = self.workload
        reqs: List[List[str]] = []
        if w == "kr-sweep":
            for e in range(-4, 6):
                for p in (P512, P1024, P4096):
                    r = self._draw((e, p), 10.0 ** e, 10.0 ** (e + 1))
                    reqs.append(["kr", "--r", _fmt(r), "--json"] + _prec_args(p))
        elif w == "ladder-climb":
            for n in (1, 2, 3, 4):
                hi = min(50.0, 1e6 / 25 ** n)
                for p in (P512, P1024):
                    r0 = self._draw((n, p), 1 / 25, hi,
                                    lambda r, n=n: (r * 25 ** j for j in range(-1, n + 1)))
                    reqs.append(["ladder", "--r0", _fmt(r0), "--n", str(n), "--json"] + _prec_args(p))
        elif w == "verify-full":
            for e in range(-2, 4):
                r = self._draw((e,), 10.0 ** e, 10.0 ** (e + 1))
                reqs.append(["verify", "--r", _fmt(r), "--json"] + _prec_args(P512))
        else:
            # two 512-bit requests to one 1024-bit one keep the median inside
            # the 512-bit cluster instead of in the gap between the two
            for e in range(-2, 4):
                for lane, p in enumerate((P512, P512, P1024)):
                    r = self._draw((e, lane), 10.0 ** e, 10.0 ** (e + 1))
                    reqs.append(["verify", "--r", _fmt(r), "--ids", QSERIES_IDS, "--json"]
                                + _prec_args(p))
        self.rng.shuffle(reqs)
        self.block_no += 1
        return reqs
