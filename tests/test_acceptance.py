"""Release gate: every criterion prints one [criterion N] PASS/FAIL line.

Run `pytest -v` to see the lines (stdout of passing tests is echoed via the
-rP flag in pyproject).  Each check states its measured value so a log of
this module is a self-contained certification transcript.
"""

import json
import time

from mpmath import mp, mpf, sqrt, workprec

from quintic_moduli import (
    PrecisionContext,
    REGISTRY,
    a_value,
    audit_example_forms,
    closed_form_R,
    nome,
    rrcf_converged,
    run_suite,
    solve_singular_modulus,
    u_defining_residual,
    u_map,
    u_star,
)
from quintic_moduli.cli import main
from quintic_moduli.report import str_to_big

import oracle_values as ov


def _report(n, ok, measured):
    print("[criterion %d] %s — %s" % (n, "PASS" if ok else "FAIL", measured))


def test_criterion_1_closed_form_seeds():
    # solver output vs independent radicals at 512 bits, < 1e-120, < 5 s each
    tol = mpf(10) ** -120
    with workprec(700):
        targets = [
            ("k(1)", 1, 1, 1 / sqrt(mpf(2))),
            ("k(5)", 5, 1, ov.k5_radical()),
            ("k(1/5)", 1, 5, ov.k_fifth_radical()),
            ("k(25)", 25, 1, ov.k25_radical()),
        ]
    worst = mpf(0)
    slowest = 0.0
    ok = True
    for name, rn, rd, ref in targets:
        t0 = time.perf_counter()
        rec = solve_singular_modulus(rn, rd)
        dt = time.perf_counter() - t0
        with workprec(700):
            delta = abs(rec.k - ref)
        worst = max(worst, delta)
        slowest = max(slowest, dt)
        if not (delta < tol and dt < 5.0):
            ok = False
    _report(1, ok, "worst |delta| = %s, slowest solve = %.3f s"
            % (mp.nstr(worst, 4), slowest))
    assert ok


def _run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_criterion_2_cli_ladders(capsys):
    # the installed command line, end to end, against direct solves
    tol = mpf(10) ** -100
    cases = [
        (("ladder", "--r0", "5", "--n", "1", "--json"), [(125, 1)]),
        (("ladder", "--r0", "25", "--n", "1", "--json"), [(625, 1)]),
        (("ladder", "--r0", "5", "--n", "2", "--json"), [(125, 1), (3125, 1)]),
    ]
    worst = mpf(0)
    slowest = 0.0
    ok = True
    for argv, levels in cases:
        t0 = time.perf_counter()
        payload = _run_cli_json(capsys, *argv)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        if dt >= 60.0:
            ok = False
        got = payload["ladder"]["levels"]
        if len(got) != len(levels):
            ok = False
            continue
        for lvl, (rn, rd) in zip(got, levels):
            if lvl["r"] != {"num": rn, "den": rd}:
                ok = False
            with workprec(700):
                direct = solve_singular_modulus(rn, rd)
                delta = abs(str_to_big(lvl["k"], 512) - direct.k)
            worst = max(worst, delta)
            if not delta < tol:
                ok = False
    _report(2, ok, "worst |delta| vs direct solve = %s, slowest ladder = %.2f s"
            % (mp.nstr(worst, 4), slowest))
    assert ok


def test_criterion_3_identity_suite_with_precision_shrink():
    # all 16 identities at five r values, then the same at doubled precision:
    # every residual must be arithmetic noise (drops >= 1e50 wherever both
    # runs leave a non-zero residual), never a method error
    tol512 = mpf(10) ** -120
    shrink = mpf(10) ** 50
    ctx1024 = PrecisionContext(precision_bits=1024, tol_exp=240)
    r_values = [(1, 1), (3, 2), (2, 1), (5, 1), (7, 1)]
    worst512 = mpf(0)
    min_ratio = None
    n_ratios = 0
    ok = True
    for rn, rd in r_values:
        rep512 = run_suite(rn, rd)
        rep1024 = run_suite(rn, rd, ctx=ctx1024)
        assert [e.id for e in rep512.entries] == list(REGISTRY)
        for e5, e10 in zip(rep512.entries, rep1024.entries):
            worst512 = max(worst512, e5.residual)
            if not (e5.passed and e5.residual < tol512):
                ok = False
            if e5.residual == 0 or e10.residual == 0:
                continue  # exact cancellation leaves no ratio to take
            ratio = e5.residual / e10.residual
            n_ratios += 1
            min_ratio = ratio if min_ratio is None else min(min_ratio, ratio)
            if not ratio >= shrink:
                ok = False
    _report(3, ok, "worst 512-bit residual = %s over %d checks, "
            "smallest shrink factor = %s over %d non-zero pairs"
            % (mp.nstr(worst512, 4), len(r_values) * len(REGISTRY),
               "n/a" if min_ratio is None else mp.nstr(min_ratio, 4), n_ratios))
    assert ok


def test_criterion_4_rrcf_dual_route():
    tol = mpf(10) ** -100
    worst = mpf(0)
    ok = True
    for rn in (1, 4, 5):
        arec = a_value(rn, 1)
        closed = closed_form_R(arec.a)
        truncated, _ = rrcf_converged(nome(rn, 1))
        with workprec(700):
            delta = abs(closed - truncated)
        worst = max(worst, delta)
        if not delta < tol:
            ok = False
    # brute-force anchor: the r = 4 value against its own radical
    with workprec(700):
        ref = ov.r4_radical()
        truncated4, _ = rrcf_converged(nome(4, 1))
        anchor = abs(truncated4 - ref)
    worst = max(worst, anchor)
    if not anchor < tol:
        ok = False
    _report(4, ok, "worst route disagreement = %s (incl. r=4 radical anchor %s)"
            % (mp.nstr(worst, 4), mp.nstr(anchor, 4)))
    assert ok


def test_criterion_5_forward_inverse_grid():
    tol = mpf(10) ** -140
    worst_def = mpf(0)
    worst_rt = mpf(0)
    ok = True
    for i in range(100):
        with workprec(700):
            y = 1 + 2 * mpf(i) / 99
        x = u_star(y)
        res = u_defining_residual(x, y)
        with workprec(700):
            rt = abs(u_map(x) - y)
        worst_def = max(worst_def, res)
        worst_rt = max(worst_rt, rt)
        if not (res < tol and rt < tol):
            ok = False
    _report(5, ok, "100-point grid y in [1,3]: worst defining residual = %s, "
            "worst round-trip = %s" % (mp.nstr(worst_def, 4), mp.nstr(worst_rt, 4)))
    assert ok


def test_criterion_6_closed_form_shorthand_audit():
    audit = audit_example_forms()
    canon_ok = audit["canonical_125"]["holds"] and audit["canonical_625"]["holds"]
    v125 = audit["verbatim_125"]
    v625 = audit["verbatim_625"]
    _report(
        6,
        canon_ok,
        "canonical ascents certify (diffs %s, %s); verbatim shorthands recorded "
        "as data: squared-argument form %s (diff %s), scaled-argument form %s (diff %s)"
        % (
            mp.nstr(audit["canonical_125"]["difference"], 4),
            mp.nstr(audit["canonical_625"]["difference"], 4),
            "holds" if v125["holds"] else "does not hold",
            mp.nstr(v125["difference"], 4),
            "holds" if v625["holds"] else "does not hold",
            mp.nstr(v625["difference"], 4),
        ),
    )
    # only the canonical forms gate the release; the shorthands are data
    assert canon_ok
