import json
import os
import re
import subprocess
import sys

import jsonschema
import pytest
from mpmath import mp, mpf, workprec

from quintic_moduli import BranchError, ConvergenceError, nome, rrcf_truncated, solve_singular_modulus
from quintic_moduli.cli import JSON_SCHEMA, build_parser, main
from quintic_moduli.report import str_to_big

import oracle_values as ov


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, JSON_SCHEMA)
    return code, payload, err


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys, )
        assert code == 2

    def test_garbage_rational(self, capsys):
        code, _, _ = run_cli(capsys, "kr", "--r", "three")
        assert code == 2

    def test_zero_r(self, capsys):
        code, _, _ = run_cli(capsys, "kr", "--r", "0")
        assert code == 2

    def test_zero_denominator(self, capsys):
        code, _, _ = run_cli(capsys, "kr", "--r", "3/0")
        assert code == 2

    def test_csv_json_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "ladder", "--r0", "5", "--n", "1", "--csv", "--json"
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_bogus_verify_id_lists_registry(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--r", "1", "--ids", "eq99-zeta")
        assert code == 2
        assert "eq99-zeta" in err
        assert "k-reciprocal" in err

    def test_incoherent_precision_pair(self, capsys):
        # tolerance must be certifiable at the requested precision
        code, _, err = run_cli(capsys, "kr", "--r", "1", "--prec", "256", "--tol-exp", "120")
        assert code == 2

    def test_sub_unit_ladder_start(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "--r0", "1/625", "--n", "1")
        assert code == 2
        assert "reciprocal" in err

    def test_domain_error_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "--r0", "5", "--n", "1", "--seed-k", "1.5")
        assert code == 2
        assert "usage error: k_r0 must lie in (0, 1)" in err

    def test_k_rounding_to_one_is_a_usage_error(self, capsys):
        # at the default 512 bits k(1/13000) is 1 - 2e-155, which rounds to 1
        code, out, err = run_cli(capsys, "kr", "--r", "1/13000")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: k at r=1/13000 rounds to 1")
        assert "k_comp" in err and "--prec" in err


class TestKr:
    def test_text_r1(self, capsys):
        code, out, _ = run_cli(capsys, "kr", "--r", "1")
        assert code == 0
        assert "k        = 0.70710678" in out

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(capsys, "kr", "--r", "5", "--json")
        assert code == 0
        assert payload["command"] == "kr"
        assert payload["r"] == {"num": 5, "den": 1}
        assert payload["precision_bits"] == 512
        mod = payload["modulus"]
        assert set(mod) == {"k", "k_comp", "q", "K_k", "K_kcomp", "residual"}
        # the decimal k carries round-trip precision
        k = str_to_big(mod["k"], 512)
        with workprec(700):
            assert abs(k - ov.k5_radical()) < mpf(10) ** -150
        assert str_to_big(mod["residual"], 512) < mpf(10) ** -120

    def test_digits_flag(self, capsys):
        _, out10, _ = run_cli(capsys, "kr", "--r", "2", "--digits", "10")
        _, out40, _ = run_cli(capsys, "kr", "--r", "2", "--digits", "40")
        line10 = [l for l in out10.splitlines() if l.startswith("k  ")][0]
        line40 = [l for l in out40.splitlines() if l.startswith("k  ")][0]
        assert len(line40) > len(line10)

    def test_text_and_json_agree(self, capsys):
        _, out, _ = run_cli(capsys, "kr", "--r", "7", "--digits", "30")
        _, payload, _ = run_json(capsys, "kr", "--r", "7", "--json")
        text_k = [l for l in out.splitlines() if l.startswith("k  ")][0].split("=")[1].strip()
        assert payload["modulus"]["k"].startswith(text_k[:25])

    def test_fractional_r(self, capsys):
        code, payload, _ = run_json(capsys, "kr", "--r", "10/3", "--json")
        assert code == 0
        assert payload["r"] == {"num": 10, "den": 3}


class TestLadder:
    def test_json_one_rung(self, capsys):
        code, payload, _ = run_json(capsys, "ladder", "--r0", "5", "--n", "1", "--json")
        assert code == 0
        lad = payload["ladder"]
        assert lad["certified"] is True
        assert lad["n"] == 1
        assert lad["gate_exp"] == 100
        assert len(lad["levels"]) == 1
        lvl = lad["levels"][0]
        assert lvl["level"] == 1
        assert lvl["r"] == {"num": 125, "den": 1}
        assert str_to_big(lvl["oracle_residual"], 512) < mpf(10) ** -100
        # the rung k matches an independent solve
        with workprec(700):
            direct = solve_singular_modulus(125, 1)
            assert abs(str_to_big(lvl["k"], 512) - direct.k) < mpf(10) ** -100

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "ladder", "--r0", "25", "--n", "1", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,k,residual"
        r, k, resid = lines[1].split(",")
        assert r == "625"
        with workprec(700):
            assert abs(str_to_big(k, 512) - ov.k25_radical() ** 0) >= 0  # parses
            direct = solve_singular_modulus(625, 1)
            assert abs(str_to_big(k, 512) - direct.k) < mpf(10) ** -100

    def test_seed_overrides_reproduce(self, capsys):
        _, base, _ = run_json(capsys, "ladder", "--r0", "5", "--n", "1", "--json")
        seeds = (base["ladder"]["seed_k"], base["ladder"]["seed_k25"])
        _, redo, _ = run_json(
            capsys, "ladder", "--r0", "5", "--n", "1", "--json",
            "--seed-k", seeds[0], "--seed-k25", seeds[1],
        )
        assert redo["ladder"]["levels"][0]["k"] == base["ladder"]["levels"][0]["k"]

    def test_bad_seed_trace_on_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "ladder", "--r0", "5", "--n", "1", "--seed-k", "0.2"
        )
        assert code == 4
        assert "certification failure" in out
        assert "level 1" in out

    @pytest.mark.parametrize("r0,n", [("11/8", 4), ("14/9", 4), ("34", 3), ("7/13", 4)])
    def test_deep_ladders_certify(self, capsys, r0, n):
        # the top rungs descend a-values far below 1e-60 inside p_map, where
        # descend_a's printed numerator would cancel its digits away
        code, out, err = run_cli(capsys, "ladder", "--r0", r0, "--n", str(n), "--json")
        assert code == 0, out + err
        payload = json.loads(out)
        jsonschema.validate(payload, JSON_SCHEMA)
        assert payload["ladder"]["certified"] is True
        assert len(payload["ladder"]["levels"]) == n

    def test_two_rungs_text(self, capsys):
        code, out, _ = run_cli(capsys, "ladder", "--r0", "5", "--n", "2")
        assert code == 0
        assert "level 1" in out and "level 2" in out
        assert "all 2 levels certified" in out


class TestRrcf:
    def test_json_r4(self, capsys):
        code, payload, _ = run_json(capsys, "rrcf", "--r", "4", "--json")
        assert code == 0
        rr = payload["rrcf"]
        assert set(rr) == {"closed", "truncated", "depth", "difference", "a"}
        # the reported truncation has converged: doubling the depth moves it
        # by less than the tolerance
        deeper = rrcf_truncated(nome(4, 1), 2 * rr["depth"])
        with workprec(600):
            assert abs(str_to_big(rr["truncated"], 512) - deeper) < mpf(10) ** -120
        assert str_to_big(rr["difference"], 512) < mpf(10) ** -100
        # a(4) = 250 + 125 sqrt(5)
        assert rr["a"].startswith("529.5084971874737")

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "rrcf", "--r", "1", "--digits", "30")
        assert code == 0
        assert "0.511428455403703519294633013543" in out


class TestVerify:
    def test_subset_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--r", "1", "--ids", "eq11-m5-poly,k-reciprocal", "--json"
        )
        assert code == 0
        rep = payload["report"]
        assert rep["all_pass"] is True
        assert [e["id"] for e in rep["entries"]] == ["eq11-m5-poly", "k-reciprocal"]
        for e in rep["entries"]:
            assert e["passed"] is True
            assert str_to_big(e["residual"], 512) < mpf(10) ** -120

    def test_text_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--r", "2", "--ids", "eq6-eta8,eq7-eta2")
        assert code == 0
        assert "eq6-eta8" in out and "eq7-eta2" in out
        assert "2/2 identities passed" in out


class TestExitCode3:
    def test_convergence_failure_maps_to_3(self, capsys, monkeypatch):
        import quintic_moduli.cli as climod

        def boom(*a, **kw):
            raise ConvergenceError("stubbed solver breakdown")

        monkeypatch.setattr(climod, "solve_singular_modulus", boom)
        code, _, err = run_cli(capsys, "kr", "--r", "3")
        assert code == 3
        assert "convergence failure" in err


class TestExitCode4:
    def test_branch_failure_maps_to_4(self, capsys, monkeypatch):
        import quintic_moduli.cli as climod

        def boom(*a, **kw):
            raise BranchError("stubbed branch loss")

        monkeypatch.setattr(climod, "ladder", boom)
        code, _, err = run_cli(capsys, "ladder", "--r0", "5", "--n", "1")
        assert code == 4
        assert "certification failure: stubbed branch loss" in err


#: one request per subcommand and output flag, plus usage errors, ending in
#: a certification failure (exit codes 0 0 0 0 2 2 0 2 0 0 4)
_MIXED_REQUESTS = [
    ["kr", "--r", "5", "--digits", "20"],
    ["kr", "--r", "22/7", "--json"],
    ["kr", "--help"],
    ["ladder", "--r0", "5", "--n", "1", "--csv"],
    ["kr", "--r", "0"],
    ["ladder", "--r0", "5", "--n", "1", "--csv", "--json"],
    ["rrcf", "--r", "4", "--json"],
    ["frobnicate", "--r", "1"],
    ["verify", "--r", "1", "--ids", "eq5-eta-quotient,k-reciprocal", "--json"],
    ["verify", "--r", "2", "--ids", "eq19-v-descent", "--digits", "12"],
    ["ladder", "--r0", "5", "--n", "1", "--seed-k", "0.2"],
]


def _run_masked(capsys, argv, rebuild):
    if rebuild:
        build_parser.cache_clear()
    code, out, err = run_cli(capsys, *argv)
    # elapsed_ms is wall-clock time, the one field that may differ
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    out = re.sub(r"\(\d+ ms\)", "(0 ms)", out)
    return code, out, err


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_matches_a_fresh_parser_per_call(self, capsys):
        reused = [_run_masked(capsys, argv, False) for argv in _MIXED_REQUESTS]
        fresh = [_run_masked(capsys, argv, True) for argv in _MIXED_REQUESTS]
        assert [c for c, _, _ in reused] == [0, 0, 0, 0, 2, 2, 0, 2, 0, 0, 4]
        assert reused == fresh


class TestModuleEntryPoint:
    """``python -m quintic_moduli.cli``: one process per call."""

    @staticmethod
    def _run(*argv):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
        return subprocess.run(
            [sys.executable, "-m", "quintic_moduli.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_kr_json_matches_in_process(self, capsys):
        proc = self._run("kr", "--r", "5", "--json")
        code, out, _ = run_cli(capsys, "kr", "--r", "5", "--json")
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_help(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: quintic-moduli")
