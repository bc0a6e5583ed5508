"""One benchmark pass in a fresh interpreter.

Reads a JSON job from stdin and writes one JSON object to stdout.

mode "requests": a closed loop with one client.  Each request is one
in-process ``quintic_moduli.cli.main(argv)`` call with stdout and stderr
captured, issued only after the previous one returned.  The loop runs
exactly ``blocks`` blocks of the workload, so that every commit and every
state of the machine times the same requests.  One untimed request per (command, precision) runs first.  The machine-speed
reference (reference.py) is timed before the first request, after every
REFERENCE_EVERY_S of request time, and after the last request.
With ``trace`` set, the package's public functions are wrapped (see
tracer.py) after the warm-up.

mode "probes": one timed call of each single-layer probe at each
precision, after a solve at a rational no probe uses has warmed mpmath's
caches at that precision.  The probe inputs come from mpmath's theta
functions, not from the package, and every probe runs once per process,
so no memo inside the package can turn a probe into a cache hit.  The
caller runs several such processes and takes the median.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: request time between two timings of the machine-speed reference
REFERENCE_EVERY_S = 0.5
PROBE_PRECISIONS = ((512, 120), (1024, 240), (4096, 960))


def _import_package(src: str):
    sys.path.insert(0, src)
    import quintic_moduli.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("quintic_moduli was not imported from %s" % src)
    return cli


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is an outcome to report
            rc = None
            print("%s: %s" % (type(exc).__name__, exc), file=err)
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def run_requests(job: dict) -> dict:
    cli = _import_package(job["src"])
    sys.path.insert(0, HERE)
    from reference import reference_s
    from workloads import WARMUP, Generator

    for argv in WARMUP[job["workload"]]:
        _call(cli, argv)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    gen = Generator(job["workload"], job["seed"])
    keep = job.get("keep_outputs", 0)
    results = []
    refs, ref_at = [reference_s()], [0]
    wall = since_ref = 0.0
    for _ in range(job["blocks"]):
        for argv in gen.block():
            if tracer is not None:
                tracer.request = len(results)
            dt, rc, out, err = _call(cli, argv)
            keep_this = len(results) < keep
            results.append([argv, dt, rc, out if keep_this else "", err if keep_this else ""])
            wall += dt
            since_ref += dt
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference_s())
                ref_at.append(len(results))
                since_ref = 0.0
    refs.append(reference_s())
    ref_at.append(len(results))

    reply = {
        "wall_s": wall,
        "reference_s": refs,
        "reference_at": ref_at,
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["self_times"] = tracer.self_times()
        reply["solve_keys"] = [[str(r), b, t] for r, b, t in tracer.solve_keys]
        reply["cf_depths"] = tracer.cf_depths
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    return reply


def _modulus(rn: int, rd: int):
    """(k, k', q) at r = rn/rd from mpmath's theta functions:
    k = (theta2/theta3)^2 and k' = (theta4/theta3)^2 at q = exp(-pi sqrt r)."""
    from mpmath import jtheta, mp, mpf

    q = mp.exp(-mp.pi * mp.sqrt(mpf(rn) / rd))
    t3 = jtheta(3, 0, q)
    return (jtheta(2, 0, q) / t3) ** 2, (jtheta(4, 0, q) / t3) ** 2, q


def run_probes(job: dict) -> dict:
    """probe name -> milliseconds of one call, and the reference times."""
    _import_package(job["src"])
    from mpmath import mp, mpf

    import quintic_moduli as qm

    sys.path.insert(0, HERE)
    from reference import reference_s

    def once_ms(fn):
        t0 = time.perf_counter()
        fn()
        return 1000 * (time.perf_counter() - t0)

    out = {}
    refs = [reference_s()]
    for bits, tol in PROBE_PRECISIONS:
        ctx = qm.PrecisionContext(precision_bits=bits, tol_exp=tol)
        qm.solve_singular_modulus(97, 89, ctx)  # warm-up; no probe solves at 97/89
        with mp.workprec(ctx.work_bits):
            k5, kc5, q5 = _modulus(5, 1)
            k_fifth, kc_fifth, _ = _modulus(1, 5)
            # the first rung's x when climbing from r0 = 5
            x = (k5 * kc5 / (k_fifth * kc_fifth)) ** (mpf(1) / 12)
        calls = {
            "agm": lambda: qm.agm(1, k5, ctx),
            "elliptic_K": lambda: qm.elliptic_K(k5, ctx),
            "eta_f": lambda: qm.eta_f(q5, ctx),
            "rrcf_converged": lambda: qm.rrcf_converged(q5, ctx),
            "u_map": lambda: qm.u_map(x, ctx),
            "p_map": lambda: qm.p_map(x, ctx),
        }
        for name, fn in calls.items():
            out["probe.%s.b%d_ms" % (name, bits)] = once_ms(fn)
        for label, (rn, rd) in (("r5", (5, 1)), ("r1-25", (1, 25)), ("r3125", (3125, 1))):
            out["probe.solve_singular_modulus.%s.b%d_ms" % (label, bits)] = once_ms(
                lambda rn=rn, rd=rd: qm.solve_singular_modulus(rn, rd, ctx)
            )
        refs.append(reference_s())
    return {"probes": out, "reference_s": refs}


def main() -> int:
    job = json.load(sys.stdin)
    reply = run_probes(job) if job["mode"] == "probes" else run_requests(job)
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
