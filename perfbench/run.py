#!/usr/bin/env python3
"""quintic-moduli benchmark: in-process CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload kr-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --repeat 3

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--seconds`` sets how many blocks of requests a run times
(``workloads.blocks_for``): a fixed count that took about that long when
the benchmark was written, so every commit times the same requests.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (see README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines before it print every metric by name and unit,
the run's environment and its outcome counts; the full record, environment
included, is also written to ``.perfbench_out/``.

``--workload all`` and ``--repeat N`` run each workload N times with seeds
seed, seed+1, ... in child processes and print each metric's median and
quartile spread across those runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from reference import local_scales, scale  # noqa: E402
from workloads import WORKLOADS, blocks_for  # noqa: E402

#: fresh interpreters timed for setup_s, half before and half after the loop
SETUP_SAMPLES = 6
#: requests whose full output is kept and checked (the first ones of a run)
CHECKED_REQUESTS = 400
#: every run ends within this many seconds
RUN_LIMIT_S = 170
#: fresh interpreters that each time every layer probe once; the median is reported
PROBE_REPEATS = 3

#: prints the import time, then the machine-speed reference timed right after
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import quintic_moduli.cli as cli\n"
    "cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from reference import reference_s\n"
    "print(t1 - t0, reference_s())\n"
)

LAYER_FUNCS = (
    "bigmath_kernel.solve_singular_modulus",
    "bigmath_kernel.agm",
    "bigmath_kernel.eta_f",
    "bigmath_kernel.nome",
    "modular_core.rrcf_converged",
    "modular_core.rrcf_truncated",
    "modular_core.descend_a",
    "modular_core.descend_v",
    "modular_core.a_value",
    "modular_core.multiplier_M5",
    "quintic_ladder.ladder",
    "quintic_ladder.p_map",
    "quintic_ladder.u_map",
    "quintic_ladder.u_star",
    "quintic_ladder.g_invariant",
    "report.big_to_str",
)
SELF_ONLY = ("certify.run_suite", "cli.main")
#: first registry id of each identity group in certify._GROUPS
GROUP_IDS = (
    "eq5-eta-quotient", "eq6-eta8", "eq7-eta2", "eq10-multiplier", "eq11-m5-poly",
    "eq13-thm22", "eq19-v-descent", "eq24-q-descent", "eq26-u-defining", "eq29-thm31",
    "eq30-thm32", "eq31-g-def", "eq34-thm33", "k-reciprocal",
)

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_ratio": "1",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _deadline_left(t_begin: float) -> float:
    left = RUN_LIMIT_S - (time.monotonic() - t_begin)
    if left <= 5:
        raise BenchError("run would exceed %d s" % RUN_LIMIT_S)
    return left


def setup_sample(t_begin: float) -> List[float]:
    """[raw import seconds, reference seconds] from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, HERE], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=_deadline_left(t_begin),
    )
    if proc.returncode != 0:
        raise BenchError("importing quintic_moduli.cli failed:\n" + proc.stderr[-2000:])
    return [float(v) for v in proc.stdout.split()]


def worker(job: dict, t_begin: float) -> dict:
    job = dict(job, src=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")], input=json.dumps(job),
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=_deadline_left(t_begin),
    )
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout)


def tail(lat_ms: List[float]):
    """(value, percentile, samples beyond): the 11th largest latency, i.e. the
    highest percentile with at least ten samples beyond it.  With fewer than
    21 samples that would fall below the median, so the median is taken."""
    s = sorted(lat_ms)
    n = len(s)
    i = max(n - 11, n // 2)
    return s[i], 100.0 * (i + 1) / n, n - 1 - i


def check_outputs(results) -> dict:
    import quintic_moduli.cli as cli
    from checks import Checker

    checker = Checker(cli.JSON_SCHEMA, cli.REGISTRY)
    counts = {"ok": 0, "typed": 0, "imprecise": 0, "wrong": 0}
    exits: Dict[str, int] = {}
    wrong, imprecise = [], []
    checked = 0
    for i, (argv, _dt, rc, out, err) in enumerate(results):
        exits[str(rc)] = exits.get(str(rc), 0) + 1
        if i < CHECKED_REQUESTS:
            outcome, why = checker.check(argv, rc, out, err)
            checked += 1
        else:
            outcome, why = ("ok" if rc == 0 else "typed" if rc in (2, 3, 4) else "wrong"), ""
        counts[outcome] += 1
        if outcome in ("wrong", "imprecise"):
            (wrong if outcome == "wrong" else imprecise).append({"argv": argv, "rc": rc, "why": why})
    ok_checked = sum(1 for argv, _dt, rc, *_ in results[:CHECKED_REQUESTS] if rc == 0)
    return {
        "counts": counts,
        "exit_codes": exits,
        "checked": checked,
        "wrong": wrong,
        "imprecise": imprecise,
        "wrong_ratio": len([w for w in wrong if w["rc"] == 0]) / ok_checked if ok_checked else 0.0,
        "imprecise_ratio": len(imprecise) / ok_checked if ok_checked else 0.0,
    }


def environment(args) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(args, t_begin: float) -> dict:
    setup = [setup_sample(t_begin) for _ in range(SETUP_SAMPLES // 2)]
    run = worker({"mode": "requests", "workload": args.workload, "seed": args.seed,
                  "blocks": blocks_for(args.workload, args.seconds),
                  "keep_outputs": CHECKED_REQUESTS}, t_begin)
    setup += [setup_sample(t_begin) for _ in range(SETUP_SAMPLES - len(setup))]
    results = run["results"]
    raw_ms = [1000 * r[1] for r in results]
    n = len(results)
    factors = local_scales(run["reference_s"], run["reference_at"], n)
    lat_ms = [t * f for t, f in zip(raw_ms, factors)]
    speed = scale(run["reference_s"])
    verdict = check_outputs(results)
    t_val, t_pct, t_beyond = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(t * scale([ref]) for t, ref in setup),
        "throughput_rps": 1000 * n / sum(lat_ms),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": t_val,
        "success_ratio": verdict["counts"]["ok"] / n,
        "peak_rss_mb": run["maxrss_kb"] / 1024,
    }
    return {
        "metrics": metrics,
        "units": E2E_UNITS,
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            "throughput_rps": n / run["wall_s"],
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_tail_ms": tail(raw_ms)[0],
        },
        "median_scaled": {
            "throughput_rps": n / (run["wall_s"] * speed),
            "latency_p50_ms": statistics.median(raw_ms) * speed,
            "latency_tail_ms": tail(raw_ms)[0] * speed,
        },
        "speed_factor": speed,
        "failure_ratio": sum(1 for r in results if r[2] != 0) / n,
        "tail": {"percentile": t_pct, "samples": n, "beyond": t_beyond},
        "setup_samples_s": setup,
        "reference_s": run["reference_s"],
        "reference_at": run["reference_at"],
        "blocks": blocks_for(args.workload, args.seconds),
        "wall_s": run["wall_s"],
        "requests": n,
        "verdict": verdict,
        "latencies_ms": [[" ".join(r[0]), 1000 * r[1], r[2]] for r in results],
    }


def per_layer(args, t_begin: float) -> dict:
    base = {"mode": "requests", "workload": args.workload, "seed": args.seed,
            "blocks": blocks_for(args.workload, args.seconds)}
    plain = worker(dict(base, keep_outputs=CHECKED_REQUESTS), t_begin)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    traced = worker(dict(base, trace=True, spans_path=spans_path), t_begin)
    probes = [worker({"mode": "probes"}, t_begin) for _ in range(PROBE_REPEATS)]
    results = plain["results"]
    verdict = check_outputs(results)
    n = len(traced["results"])
    if n != len(results):
        raise BenchError("traced pass ran %d requests, untraced %d" % (n, len(results)))

    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    st = traced["self_times"]
    speed = scale(traced["reference_s"])
    for name in LAYER_FUNCS:
        calls, self_s = st.get(name, (0, 0.0))
        metrics[name + ".calls_per_req"] = calls / n
        units[name + ".calls_per_req"] = "calls/req"
        metrics[name + ".self_ms_per_req"] = 1000 * self_s * speed / n
        units[name + ".self_ms_per_req"] = "ms/req"
    for name in SELF_ONLY:
        metrics[name + ".self_ms_per_req"] = 1000 * st.get(name, (0, 0.0))[1] * speed / n
        units[name + ".self_ms_per_req"] = "ms/req"
    keys = [tuple(k) for k in traced["solve_keys"]]
    metrics["bigmath_kernel.solve_singular_modulus.distinct_ratio"] = (
        len(set(keys)) / len(keys) if keys else 0.0)
    units["bigmath_kernel.solve_singular_modulus.distinct_ratio"] = "1"
    depths = traced["cf_depths"]
    metrics["modular_core.rrcf_converged.depth_mean"] = statistics.mean(depths) if depths else 0.0
    units["modular_core.rrcf_converged.depth_mean"] = "terms"

    group_ms: Dict[str, List[int]] = {g: [] for g in GROUP_IDS}
    for argv, _dt, rc, out, _err in results:
        if argv[0] == "verify" and out.strip():
            for e in json.loads(out)["report"]["entries"]:
                if e["id"] in group_ms:
                    group_ms[e["id"]].append(e["elapsed_ms"])
    plain_speed = scale(plain["reference_s"])
    for g, vals in group_ms.items():
        metrics["certify.group_ms." + g] = statistics.mean(vals) * plain_speed if vals else 0.0
        units["certify.group_ms." + g] = "ms"

    # raw walls: the two passes run back to back, and their separate speed
    # factors would add more noise than the few per cent being measured
    metrics["tracing_overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1
    units["tracing_overhead_ratio"] = "1"
    probe_speeds = [scale(p["reference_s"]) for p in probes]
    for name in probes[0]["probes"]:
        metrics[name] = statistics.median(
            p["probes"][name] * f for p, f in zip(probes, probe_speeds))
        units[name] = "ms"
    return {
        "metrics": metrics,
        "units": units,
        "requests": n,
        "blocks": base["blocks"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "speed_factors": {"untraced": plain_speed, "traced": speed, "probes": probe_speeds},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "verdict": verdict,
    }


def run_once(args) -> int:
    t_begin = time.monotonic()
    sys.path.insert(0, SRC)
    record = per_layer(args, t_begin) if args.trace else end_to_end(args, t_begin)
    record["environment"] = environment(args)
    verdict = record["verdict"]
    failed = verdict["counts"]["wrong"]

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print("perfbench %s  seed %d  seconds %s  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: python %s, mpmath %s (backend %s), nproc %s, %s" % (
        env["python"], env["mpmath"], env["mpmath_backend"], env["nproc"], env["machine"]))
    c = verdict["counts"]
    print("requests: %d in %d blocks; ok %d, typed failures %d, imprecise %d, wrong %d; "
          "exit codes %s; checked %d" % (
              record["requests"], record["blocks"], c["ok"], c["typed"], c["imprecise"], c["wrong"],
              json.dumps(verdict["exit_codes"], sort_keys=True), verdict["checked"]))
    for label in ("wrong", "imprecise"):
        for w in verdict[label][:10]:
            print("  %s: %s -> exit %s: %s" % (label.upper(), " ".join(w["argv"]), w["rc"], w["why"]))
    if not args.trace:
        t = record["tail"]
        print("latency_tail_ms is p%.2f (%d of %d samples beyond it)" % (
            t["percentile"], t["beyond"], t["samples"]))
        print("%-58s %14.6g %s" % ("failure_ratio (non-zero exits / attempted)",
                                   record["failure_ratio"], "1"))
        print("%-58s %14.6g %s" % ("wrong_ratio (failed checks / exit-0 results)",
                                   verdict["wrong_ratio"], "1"))
        print("%-58s %14.6g %s" % ("imprecise_ratio (imprecise ladders / exit-0 results)",
                                   verdict["imprecise_ratio"], "1"))
        print("times below are scaled to the reference speed, per request (run median "
              "factor %.4f); raw: %s" % (
            record["speed_factor"],
            ", ".join("%s %.6g" % kv for kv in record["raw"].items())))
    for name, value in record["metrics"].items():
        print("%-58s %14.6g %s" % (name, value, record["units"][name]))
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["requests"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": record["units"][k]} for k, v in record["metrics"].items()},
    }))
    return 0


def run_spread(args) -> int:
    """Repeat runs in child processes and print each metric's spread."""
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench, encoding="utf-8") as fh:
            bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    all_correct = True
    for name in names:
        runs = []
        for i in range(args.repeat):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=RUN_LIMIT_S + 30,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr[-2000:], file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            all_correct &= runs[-1]["correct"]
        print("== %s: %d runs, seeds %d..%d, %s s each" % (
            name, args.repeat, args.seed, args.seed + args.repeat - 1, args.seconds))
        print("%-58s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "unit"))
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            print("%-58s %12.6g %12.6g %12.6g %8.3f %6s  %s" % (
                metric, med, q1, q3, spread, "-" if bound is None else bound,
                runs[0]["metrics"][metric]["unit"]))
        print("attempted per run: %s; failed: %s" % (
            [r["attempted"] for r in runs], [r["failed"] for r in runs]))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, printing the spread across them")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quintic_moduli", "cli.py")):
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    try:
        if args.workload == "all" or args.repeat > 1:
            return run_spread(args)
        return run_once(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
