import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, sqrt, workprec

import quintic_moduli.bigmath_kernel as bk
import quintic_moduli.cli as climod
from quintic_moduli import (
    BranchError,
    ConvergenceError,
    nome,
    rrcf_converged,
    rrcf_truncated,
    solve_singular_modulus,
)
from quintic_moduli.certify import REGISTRY, IdentityEntry
from quintic_moduli.cli import JSON_SCHEMA, build_parser, main
from quintic_moduli.quintic_ladder import LadderStep, LadderTrace
from quintic_moduli.report import big_to_str, str_to_big

import oracle_values as ov
from test_outputs_pinned import REQUESTS


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

    def test_a_tol_exp_past_the_float_range_is_a_usage_error(self, capsys):
        # 10^400 times log2(10) is no float: the context refuses tol_exp >=
        # precision_bits on integers before it forms that product
        code, out, err = run_cli(capsys, "kr", "--r", "2", "--tol-exp", "1" + "0" * 400)
        assert (code, out) == (2, "")
        assert err == (
            "usage error: tol_exp*log2(10) + 64 guard bits must stay below precision_bits\n"
        )

    @staticmethod
    def _refused_without_a_solve(capsys, monkeypatch, *argv):
        """Run a ladder request that must be refused; return its stderr
        after checking it exits 2, prints nothing and solves nothing."""
        import quintic_moduli.bigmath_kernel as bkmod
        import quintic_moduli.cli as climod
        import quintic_moduli.quintic_ladder as qlmod

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return solve_singular_modulus(*args, **kwargs)

        for mod in (bkmod, climod, qlmod):
            monkeypatch.setattr(mod, "solve_singular_modulus", spy)
        code, out, err = run_cli(capsys, "ladder", *argv)
        assert code == 2
        assert out == ""
        assert calls == []
        return err

    @pytest.mark.parametrize("flag, name", [("--seed-kkprime", "kkprime_r0"),
                                            ("--seed-kkprime25", "kkprime_r0_over25")])
    @pytest.mark.parametrize("seed", ["0.6", "0.0", "-0.25"])
    def test_bad_seed_solves_nothing(self, capsys, monkeypatch, flag, name, seed):
        # k k' lies in (0, 1/2], its value at r = 1
        err = self._refused_without_a_solve(capsys, monkeypatch, "--r0", "5", "--n", "1",
                                            flag, seed)
        assert err == "usage error: %s must lie in (0, 1/2], got %s\n" % (name, seed)

    def test_bad_seed_prints_a_short_value(self, capsys, monkeypatch):
        # the seed is parsed at precision_bits, but shown to 12 digits
        err = self._refused_without_a_solve(
            capsys, monkeypatch, "--r0", "5", "--n", "1", "--seed-kkprime", "1e5"
        )
        assert err == "usage error: kkprime_r0 must lie in (0, 1/2], got 100000.0\n"
        assert len(err) < 100

    def test_loose_gate_solves_nothing(self, capsys, monkeypatch):
        err = self._refused_without_a_solve(
            capsys, monkeypatch, "--r0", "1/25", "--n", "1", "--prec", "128",
            "--tol-exp", "15", "--seed-kkprime25", "0.9999",
        )
        assert err == (
            "usage error: ladder needs tol_exp >= 21, got 15: its relative "
            "gate 10^-(tol_exp - 20) must lie below 1\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--n", "0"), "expected a positive integer, got '0'"),
            (("--n", "x"), "expected an integer, got 'x'"),
            (("--n", "1", "--seed-kkprime", "abc"), "expected a decimal number, got 'abc'"),
        ],
    )
    def test_argparse_refuses_bad_ladder_values(self, capsys, monkeypatch, argv, message):
        err = self._refused_without_a_solve(capsys, monkeypatch, "--r0", "5", *argv)
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("kr", "--r", "7" * 5000),
             "rational has too many digits to convert, got %r... (5000 characters)" % ("7" * 40)),
            (("kr", "--r", "1/" + "0" * 5000),
             "rational has too many digits to convert, got %r... (5002 characters)"
             % ("1/" + "0" * 38)),
            (("kr", "--r", "x" * 5000),
             "expected a positive rational like 5 or 3/2, got %r... (5000 characters)" % ("x" * 40)),
            (("ladder", "--r0", "5", "--n", "1", "--seed-kkprime", "0." + "7" * 100000),
             "decimal number has too many digits to convert, got %r... (100002 characters)"
             % ("0." + "7" * 38)),
            (("ladder", "--r0", "5", "--n", "9" * 5000),
             "integer has too many digits to convert, got %r... (5000 characters)" % ("9" * 40)),
            (("kr", "--r", "5", "--prec", "9" * 5000),
             "integer has too many digits to convert, got %r... (5000 characters)" % ("9" * 40)),
            (("ladder", "--r0", "5", "--n", "1", "--seed-kkprime", "1e-" + "9" * 5000),
             "decimal number has too many digits to convert, got %r... (5003 characters)"
             % ("1e-" + "9" * 37)),
            (("kr", "--r", "5", "--prec", "9" * 5000 + "x"),
             "expected an integer, got %r... (5001 characters)" % ("9" * 40)),
        ],
        ids=["rational-past-the-int-limit", "denominator-past-the-int-limit", "long-garbage",
             "long-seed", "count-past-the-int-limit", "bits-past-the-int-limit",
             "seed-exponent-past-the-int-limit", "long-garbage-integer"],
    )
    def test_a_long_argument_is_quoted_cut(self, capsys, argv, message):
        # an argument past Python's 4300-digit int() limit is a usage error
        # like any bad value, and the usage line quotes its first 40
        # characters and its length, not the whole argument; a well-formed
        # one is called too long to convert, not malformed
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(": error: argument %s: %s\n" % (argv[-2], message))
        assert len(err) < 400

    @pytest.mark.parametrize("mode", [("--json",), ()], ids=["json", "text"])
    def test_a_term_past_4200_digits_is_refused(self, capsys, mode):
        # a term int() still reads would be printed times 25^j at a rung, and
        # Python's str() and repr() of an int stop at 4300 digits
        r0 = "9" * 4300 + "/" + "9" * 4299 + "8"
        code, out, err = run_cli(capsys, "ladder", "--r0", r0, "--n", "1", *mode)
        assert (code, out) == (2, "")
        assert err.endswith(": error: argument --r0: rational has too many digits to convert, "
                            "got %r... (8601 characters)\n" % ("9" * 40))

    @pytest.mark.parametrize("ids", [",", ""], ids=["comma", "empty-string"])
    def test_empty_ids_lists_registry(self, capsys, ids):
        # an empty --ids is given, not absent: it names no id, and is refused
        code, out, err = run_cli(capsys, "verify", "--r", "1", "--ids", ids)
        assert (code, out) == (2, "")
        assert err == "usage error: no identity id given; registry: %s\n" % ", ".join(REGISTRY)

    def test_domain_error_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "--r0", "5", "--n", "1", "--seed-kkprime", "0.6")
        assert code == 2
        assert "usage error: kkprime_r0 must lie in (0, 1/2]" in err


BITS_256 = ("--prec", "256", "--tol-exp", "55")


class TestOutsideTheDomain:
    """Only a solve refuses r for its size: max(r, 1/r) above the kernel's
    _R_MAX, past which a ladder rung, losing log10 of the K-ratio's
    sensitivity in digits, would pass its gate's 20 digits of slack.  `kr`
    is refused before any nome or AGM is computed; the other commands run
    until their first solve past the bound and exit 2 naming that point."""

    @staticmethod
    def _usage_line(point):
        import quintic_moduli.bigmath_kernel as bkmod

        return (
            "usage error: a solve at r = %s lies past the bound that keeps a ladder "
            "rung within its gate's 20 digits of slack: max(r, 1/r) must not exceed %d\n"
            % (point, bkmod._R_MAX)
        )

    @pytest.mark.parametrize("bits", [(), BITS_256])
    @pytest.mark.parametrize("reciprocal", [False, True])
    def test_refused_before_any_work(self, capsys, monkeypatch, bits, reciprocal):
        import quintic_moduli.bigmath_kernel as bkmod

        past = Fraction(bkmod._R_MAX + 1)
        point = 1 / past if reciprocal else past
        calls = []
        for name in ("_exp_nome", "_agm_raw"):
            monkeypatch.setattr(bkmod, name, lambda *args, name=name: calls.append(name))
        code, out, err = run_cli(capsys, "kr", "--r", str(point), *bits)
        assert (code, out, calls) == (2, "", [])
        assert err == self._usage_line("%d/%d" % (point.numerator, point.denominator))

    @pytest.mark.parametrize(
        "argv,point",
        [
            (("verify", "--r", "1" + "0" * 38), "1" + "0" * 40 + "/1"),
            (("verify", "--r", "1/1" + "0" * 39), "1/25" + "0" * 39),
            # the CLI's longest term: eq5 computes, eq6's solve refuses
            pytest.param(
                ("verify", "--r", "1" + "0" * 4199), "1" + "0" * 4199 + "/1", id="verify-10^4199"
            ),
            (("rrcf", "--r", "2" + "0" * 38), "5" + "0" * 39 + "/1"),
            (("ladder", "--r0", "1" + "0" * 39, "--n", "1"), "25" + "0" * 39 + "/1"),
            (("ladder", "--r0", "1/1" + "0" * 39, "--n", "1"), "25" + "0" * 39 + "/1"),
            (("ladder", "--r0", "5", "--n", "1000000000"), "%d/1" % (5 * 25 ** 28)),
        ],
    )
    def test_refused_at_the_first_point_past_the_bound(self, capsys, argv, point):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == self._usage_line(point)

    @pytest.mark.parametrize("r", ["1" + "0" * 20, "1" + "0" * 37, "1/1" + "0" * 37])
    @pytest.mark.parametrize("bits", [BITS_256, ("--prec", "512", "--tol-exp", "120")])
    def test_certifies_past_the_old_integer_bound(self, capsys, r, bits):
        for argv in (("kr", "--r", r), ("verify", "--r", r), ("ladder", "--r0", r, "--n", "1")):
            code, _, err = run_cli(capsys, *argv, *bits)
            assert (code, err) == (0, ""), argv

    @pytest.mark.parametrize("r", ["1" + "0" * 11, "1" + "0" * 50])
    def test_q_series_verify_solves_nothing(self, capsys, r):
        code, out, err = run_cli(
            capsys, "verify", "--r", r, "--ids", "eq5-eta-quotient,eq19-v-descent,eq24-q-descent"
        )
        assert (code, err) == (0, "")
        assert out.endswith("3/3 identities passed\n")


def _max_tol_exp(bits):
    """The largest tol_exp PrecisionContext accepts at `bits`."""
    tol = math.ceil((bits - bk._GUARD_BITS) / math.log2(10))
    while tol * math.log2(10) + bk._GUARD_BITS >= bits:
        tol -= 1
    return tol


def _k_jtheta(r, bits):
    """k at r through mpmath's jtheta at `bits` (oracle_values.theta_quotient
    at the nome of max(r, 1/r)), complemented below r = 1, where k is near 1."""
    big = max(r, 1 / r)
    with workprec(bits):
        q = mp.exp(-mp.pi * sqrt(mpf(big.numerator) / big.denominator))
    small = ov.theta_quotient(q, bits)
    with workprec(bits):
        return small if r >= 1 else sqrt((1 - small) * (1 + small))


def _rrcf_oracle(r, bits):
    """R at the nome of r by the continued fraction at `bits`, summed
    backward (oracle_values.rrcf_backward), below r = 1/25 at 16/r and
    carried back by Ramanujan's reciprocity."""
    if r < Fraction(1, 25):
        far = _rrcf_oracle(16 / r, bits)
        with workprec(bits):
            phi = (1 + sqrt(5)) / 2
            return (1 - phi * far) / (phi + far)
    with workprec(bits + 64):
        q = mp.exp(-mp.pi * sqrt(mpf(r.numerator) / r.denominator))
    # q^(d(d+1)/2) < 2^-(bits + 64) from d = sqrt(2 (bits + 64) ln2 / -ln q)
    depth = math.isqrt(math.ceil(2 * (bits + 64) * math.log(2) / (math.pi * math.sqrt(r)))) + 2
    return ov.rrcf_backward(q, depth, bits + 64)


#: r log-uniform over [1/_R_MAX, _R_MAX], each an exact binary float
_LOG_R_MAX = math.log(bk._R_MAX)
_R = st.floats(-_LOG_R_MAX, _LOG_R_MAX).map(lambda x: Fraction(math.exp(x)))
_BITS = st.integers(256, 4096)


def _domain_examples(**fixed):
    """@example at r just past the solve's bound either way, rationals of
    hundreds of digits and a pair of 4200-digit terms, the longest the CLI
    reads; `fixed` gives the test's other arguments."""
    return lambda test: functools.reduce(
        lambda t, point: example(r=point[0], bits=point[1], **fixed)(t), _DOMAIN_POINTS, test)


_DOMAIN_POINTS = (
    (Fraction(bk._R_MAX + 1), 256),
    (Fraction(1, bk._R_MAX + 1), 4096),
    (Fraction(bk._R_MAX), 512),
    (Fraction(3 ** 600 + 1, 3 ** 600), 1024),
    (Fraction(2 ** 1000 + 1, 2 ** 1000 * 5 ** 50), 4096),
    (Fraction(7 * 10 ** 300 + 1, 10 ** 300), 256),
    (Fraction(int("9" * 4200), int("9" * 4199 + "8")), 4096),
)


def _domain_run(command, r, bits, *argv):
    """cli.main on `command` at r, at `bits` and the largest tol_exp the
    guard allows, with --json: (exit code, document or None, tol_exp).  The
    exit code is 0, 2, 3 or 4, and a failure names its type on stderr."""
    tol = _max_tol_exp(bits)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--r0" if command == "ladder" else "--r",
                     "%d/%d" % (r.numerator, r.denominator), *argv, "--json",
                     "--prec", str(bits), "--tol-exp", str(tol)])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if code:
        assert re.match(r"(usage error|convergence failure|certification failure): ",
                        err.getvalue()), (code, err.getvalue(), out.getvalue()[:200])
        return code, None, tol
    payload = json.loads(out.getvalue())
    jsonschema.validate(payload, JSON_SCHEMA)
    return code, payload, tol


class TestDomainClaim:
    """Every command over the whole solve domain, r log-uniform over
    [1/_R_MAX, _R_MAX] and a little past it, at 256 to 4096 bits with the
    tightest tolerance the precision guard allows: each request ends with
    exit 0, 2, 3 or 4, a failure names its type, and a success holds the
    value mpmath's jtheta (or the continued fraction) gives at twice the
    bits."""

    @settings(derandomize=True, deadline=None, max_examples=12, database=None)
    @given(r=_R, bits=_BITS)
    @_domain_examples()
    def test_kr(self, r, bits):
        code, payload, tol = _domain_run("kr", r, bits)
        if code == 0:
            k, want = str_to_big(payload["modulus"]["k"], bits), _k_jtheta(r, 2 * bits)
            with workprec(2 * bits):
                assert abs(k - want) < mpf(10) ** -tol * want

    @settings(derandomize=True, deadline=None, max_examples=8, database=None)
    @given(r=_R, bits=_BITS, n=st.integers(1, 3))
    @_domain_examples(n=2)
    def test_ladder(self, r, bits, n):
        code, payload, tol = _domain_run("ladder", r, bits, "--n", str(n))
        if code == 0:
            gate = payload["ladder"]["gate_exp"]
            assert gate == tol - 20
            for level in payload["ladder"]["levels"]:
                rj = Fraction(level["r"]["num"], level["r"]["den"])
                k, want = str_to_big(level["k"], bits), _k_jtheta(rj, 2 * bits)
                with workprec(2 * bits):
                    assert abs(k - want) < mpf(10) ** -gate * want, rj

    @settings(derandomize=True, deadline=None, max_examples=8, database=None)
    @given(r=_R, bits=_BITS)
    @_domain_examples()
    def test_rrcf(self, r, bits):
        code, payload, tol = _domain_run("rrcf", r, bits)
        if code == 0:
            want = _rrcf_oracle(r, 2 * bits)
            for field in ("closed", "truncated"):
                got = str_to_big(payload["rrcf"][field], bits)
                with workprec(2 * bits):
                    assert abs(got - want) < 2 * mpf(10) ** -tol * want, field

    @settings(derandomize=True, deadline=None, max_examples=6, database=None)
    @given(r=_R, bits=_BITS)
    @_domain_examples()
    def test_verify(self, r, bits):
        code, payload, _ = _domain_run("verify", r, bits)
        if code == 0:
            assert payload["report"]["all_pass"] is True
            assert [e["id"] for e in payload["report"]["entries"]] == list(REGISTRY)


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

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize(
        "r", [Fraction(10 ** 20), Fraction(4 * 10 ** 39), Fraction(1, 10 ** 20), Fraction(1, 4 * 10 ** 39)]
    )
    def test_closed_forms_past_the_old_bound(self, capsys, r, bits):
        # with R = max(r, 1/r), q(R) = e^(-pi sqrt R) lies below
        # 2^-(2 work_bits), so to working precision the small modulus is
        # 4 e^(-pi sqrt(R)/2), its K is pi/2 and the other K is pi sqrt(R)/2;
        # each is checked against mpmath at twice the bits
        code, payload, _ = run_json(
            capsys, "kr", "--r", str(r), "--prec", str(bits),
            "--tol-exp", str(ov.TOL_EXP[bits]), "--json",
        )
        assert code == 0
        got = {name: str_to_big(value, bits) for name, value in payload["modulus"].items()}
        big = max(r, 1 / r)
        with workprec(2 * bits):
            root = sqrt(mpf(big.numerator) / big.denominator)
            small, small_K = 4 * mp.exp(-mp.pi * root / 2), mp.pi * root / 2
            forms = {
                "q": mp.exp(-mp.pi * sqrt(mpf(r.numerator) / r.denominator)),
                "k": small, "k_comp": mpf(1), "K_k": mp.pi / 2, "K_kcomp": small_K,
            }
            if r < 1:
                forms.update(k=mpf(1), k_comp=small, K_k=small_K, K_kcomp=mp.pi / 2)
            for name, value in forms.items():
                assert abs(got[name] / value - 1) < mpf(2) ** (1 - bits), name

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

    def test_k_comp_rounding_to_one_is_reported(self, capsys):
        # k = 2.6e-682 carries the information; k_comp is the rounded 1
        code, payload, _ = run_json(capsys, "kr", "--r", "1000000", "--json")
        assert code == 0
        assert payload["modulus"]["k_comp"] == "1.0"
        assert str_to_big(payload["modulus"]["residual"], 512) < mpf(10) ** -120

    def test_k_rounding_to_one_is_reported(self, capsys):
        # at the default 512 bits k(1/13000) is 1 - 2e-155, which rounds to
        # 1; k_comp is the mirror solve's k and carries the information
        code, payload, _ = run_json(capsys, "kr", "--r", "1/13000", "--json")
        assert code == 0
        assert payload["modulus"]["k"] == "1.0"
        k_comp = str_to_big(payload["modulus"]["k_comp"], 512)
        assert k_comp == solve_singular_modulus(13000, 1).k
        assert str_to_big(payload["modulus"]["residual"], 512) < mpf(10) ** -120

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
        # the echoed seeds replayed give the same document
        _, base, _ = run_json(capsys, "ladder", "--r0", "5", "--n", "2", "--json")
        seeds = (base["ladder"]["seed_kkprime"], base["ladder"]["seed_kkprime25"])
        _, redo, _ = run_json(
            capsys, "ladder", "--r0", "5", "--n", "2", "--json",
            "--seed-kkprime", seeds[0], "--seed-kkprime25", seeds[1],
        )
        assert redo == base

    @pytest.mark.parametrize("r0,seed", [("5", "0.1"), ("1/625", "0.1")])
    def test_bad_seed_trace_on_stdout(self, capsys, r0, seed):
        # from 1/625 the seed 0.1 (k k' is about 3.5e-17) drives k k' at
        # level 1, below r = 1, past 1/sqrt2 and the branch past 1
        code, out, _ = run_cli(
            capsys, "ladder", "--r0", r0, "--n", "1", "--seed-kkprime", seed
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

    @pytest.mark.parametrize(
        "flags", [["--prec", "256", "--tol-exp", "55"], ["--prec", "512"],
                  ["--prec", "1024"], ["--prec", "4096"]]
    )
    def test_ladder_through_r1_certifies(self, capsys, flags):
        # level 1 is r = 1, where k = k' and the product k k' is 1/2
        code, payload, err = run_json(
            capsys, "ladder", "--r0", "1/25", "--n", "2", "--json", *flags
        )
        assert code == 0, err
        lad = payload["ladder"]
        assert lad["certified"] is True
        assert [lv["r"] for lv in lad["levels"]] == [{"num": 1, "den": 1}, {"num": 25, "den": 1}]

    def test_sub_unit_start_climbs(self, capsys):
        # level 1 lies below r = 1, where k is the complement of the small root
        code, payload, err = run_json(capsys, "ladder", "--r0", "1/625", "--n", "2", "--json")
        assert code == 0, err
        levels = payload["ladder"]["levels"]
        assert [lv["r"] for lv in levels] == [{"num": 1, "den": 25}, {"num": 1, "den": 1}]
        with workprec(700):
            direct = solve_singular_modulus(1, 25)
            assert abs(str_to_big(levels[0]["k"], 512) - direct.k) < mpf(10) ** -100

    def test_start_just_above_one_is_a_certification_failure(self, capsys):
        # 25 r0 = 1 + 10^-200: at 1024 bits the product k k' at level 1
        # rounds above 1/2; the branch's radicand is taken as zero, and the
        # level misses its oracle (exit 4) instead of being refused as a
        # usage error (exit 2)
        r0 = "%d/%d" % (10 ** 200 + 1, 25 * 10 ** 200)
        code, out, err = run_cli(
            capsys, "ladder", "--r0", r0, "--n", "1", "--prec", "1024", "--tol-exp", "240"
        )
        assert code == 4, err
        assert "1/|1 - 2k^2| = " in out
        assert "level 1" in out

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

    @pytest.mark.parametrize("r", ["1000", "9999"])
    def test_tiny_R_certifies_relative_to_a(self, capsys, r):
        # a(r) is near 1e43 and 3e136 here, so the two routes' gap on it
        # only certifies relative to a; on R they agree to about 3e-154
        code, payload, _ = run_json(capsys, "rrcf", "--r", r, "--json")
        assert code == 0
        rr = payload["rrcf"]
        with workprec(600):
            truncated = str_to_big(rr["truncated"], 512)
            assert str_to_big(rr["difference"], 512) < truncated * mpf(10) ** -150

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "rrcf", "--r", "1", "--digits", "30")
        assert code == 0
        assert "0.511428455403703519294633013543" in out

    @pytest.mark.parametrize("r", ["1/1" + "0" * 20, "1/1" + "0" * 37])
    @pytest.mark.parametrize("bits", [BITS_256, ("--prec", "512", "--tol-exp", "120")])
    def test_small_r_sums_at_the_reflected_point(self, capsys, r, bits):
        # below 1/25 the fraction is summed at 16/r, whose nome lies below
        # e^(-4 pi 10^10), so a few levels converge; at nome(r) itself the
        # depth would pass the cap of 2^20 levels
        code, payload, err = run_json(capsys, "rrcf", "--r", r, *bits, "--json")
        assert (code, err) == (0, "")
        assert 1 <= payload["rrcf"]["depth"] <= 3

    def test_reflected_value_is_within_8_ulps_of_the_direct_sum(self, capsys):
        # at r = 1/10^4 the fraction summed at nome(r) takes 161 levels; the
        # reflected value, which the pinned request prints, takes 3
        code, payload, _ = run_json(capsys, "rrcf", "--r", "1/10000", "--json")
        direct, depth = rrcf_converged(nome(1, 10000))
        assert (code, payload["rrcf"]["depth"], depth) == (0, 3, 161)
        with workprec(600):
            gap = abs(str_to_big(payload["rrcf"]["truncated"], 512) - direct)
            assert gap <= 8 * direct * mpf(2) ** -512

    def test_the_command_is_one_library_call_and_writes_its_record(self, capsys, monkeypatch):
        # cmd_rrcf reads one name of modular_core, calls it once and writes
        # the record it returns, field for field
        from quintic_moduli import modular_core

        reads, records = [], []

        class Recorder:
            def __getattr__(self, name):
                reads.append(name)
                fn = getattr(modular_core, name)
                return lambda *args: records.append(fn(*args)) or records[-1]

        monkeypatch.setattr(climod, "modular_core", Recorder())
        code, payload, _ = run_json(capsys, "rrcf", "--r", "1/10000", "--json")
        assert (code, reads, len(records)) == (0, ["rrcf_value"], 1)
        assert type(records[0]) is modular_core.RRecord
        assert payload["rrcf"] == _plain(records[0], 512)


#: (request, the points of the exps it takes, in order)
_EXPS = [
    ("kr --r 7/3", ["7/3"]),
    # a reflected solve at r = n/d takes one exp, at 1/(nd): the nomes at r
    # and 1/r are its n-th and d-th powers
    ("kr --r 1/13", ["1/13"]),
    ("kr --r 7/615 --prec 4096 --tol-exp 960", ["1/4305"]),
    # d = 2^19 + 1 is past the chain budget, so r and 1/r take an exp each
    ("kr --r 1/524288", ["1/524288"]),
    ("kr --r 1/524289", ["1/524289", "524289"]),
    # rrcf's solves at r and 25r, its eta values and its q share one scope,
    # where the nome at 25r is the fifth power of r's
    ("rrcf --r 7/3", ["7/3"]),
    ("rrcf --r 1/13", ["1/13"]),
    # below 1/25: the solves' r (whose 1/r is its 10000th power) and 25r
    # (a fifth power of r's), and the eta quotient's 16/(25r); the
    # fraction's 16/r is 25 times that
    ("rrcf --r 1/10000", ["1/10000", "6400"]),
    # verify reads the nome at r before it solves there: that lookup takes
    # the base at 1/(nd), so 1/r is a link; at r = 1/13, 4r = 4/13 takes the
    # nome at 1/52 first, so 13/4 is a link too
    ("verify --r 1/13", ["1/13", "1/52", "5200", "208", "1/325"]),
    ("verify --r 3/7", ["1/21", "2800/3", "112/3", "1/525"]),
    ("verify --r 2/3", ["1/6", "600", "24", "1/150"]),
    ("verify --r 7/3", ["7/3", "1/525"]),
]


class TestExpsPerRequest:
    @pytest.mark.parametrize("request_,exps", _EXPS, ids=[argv for argv, _ in _EXPS])
    def test_each_nome_chain_takes_one_exp(self, capsys, exp_points, request_, exps):
        code, _, _ = run_cli(capsys, *request_.split())
        assert code == 0
        assert exp_points == [Fraction(p) for p in exps]


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


def _assert_schema_order(obj, schema):
    """Every object's keys come out in the order its schema lists them."""
    if "properties" in schema:
        assert list(obj) == [k for k in schema["properties"] if k in obj]
        for k, v in obj.items():
            _assert_schema_order(v, schema["properties"][k])
    elif "items" in schema:
        for v in obj:
            _assert_schema_order(v, schema["items"])


class TestSchemaOrder:
    """The dumped field order is the published schema's property order, for
    each command's payload, each ladder level and each verify entry."""

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["kr", "--r", "10/3"], "modulus"),
            (["ladder", "--r0", "5", "--n", "2"], "ladder"),
            (["rrcf", "--r", "4"], "rrcf"),
            (["verify", "--r", "2", "--ids", "eq6-eta8,eq15-depressed"], "report"),
        ],
    )
    def test_keys_follow_the_schema(self, capsys, argv, key):
        code, payload, _ = run_json(capsys, *argv, "--json")
        assert code == 0
        assert list(payload) == ["command", "r", "precision_bits", "tol_exp", key]
        _assert_schema_order(payload, JSON_SCHEMA)
        props = JSON_SCHEMA["properties"][key]["properties"]
        assert list(payload[key]) == list(props)
        nested = {"ladder": "levels", "report": "entries"}.get(key)
        if nested:
            items = payload[key][nested]
            assert len(items) == 2
            for item in items:
                assert list(item) == list(props[nested]["items"]["properties"])


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
    # the CLI calls each library function through its home module, so the
    # stub goes there
    def test_branch_failure_maps_to_4(self, capsys, monkeypatch):
        from quintic_moduli import quintic_ladder

        def boom(*a, **kw):
            raise BranchError("stubbed branch loss")

        monkeypatch.setattr(quintic_ladder, "ladder", boom)
        code, _, err = run_cli(capsys, "ladder", "--r0", "5", "--n", "1")
        assert code == 4
        assert "certification failure: stubbed branch loss" in err

    def test_rrcf_gap_between_routes_maps_to_4(self, capsys, monkeypatch):
        # the printed difference is judged relative to R: a closed form off
        # by a relative 1e-100 misses the 10^-120 gate
        from quintic_moduli import modular_core

        real = modular_core.closed_form_R

        def off(a, ctx):
            with workprec(ctx.work_bits):
                return real(a, ctx) * (1 + mpf(10) ** -100)

        monkeypatch.setattr(modular_core, "closed_form_R", off)
        code, out, err = run_cli(capsys, "rrcf", "--r", "4")
        assert code == 4
        assert out == ""
        assert "certification failure: rrcf at r=4" in err


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
    ["ladder", "--r0", "5", "--n", "1", "--seed-kkprime", "0.1"],
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
    def _run(*argv, stdout=subprocess.PIPE):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
        return subprocess.run(
            [sys.executable, "-m", "quintic_moduli.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )

    @pytest.mark.parametrize("argv", [
        ("kr", "--r", "2", "--json"),
        ("ladder", "--r0", "2", "--n", "8", "--prec", "4096", "--tol-exp", "900", "--json"),
    ])
    def test_a_closed_stdout_ends_quietly(self, argv):
        # the reader of the pipe is gone before the first byte: no
        # BrokenPipeError traceback, and a code the README lists
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._run(*argv, stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, "")

    def test_kr_json_matches_in_process(self, capsys):
        proc = self._run("kr", "--r", "5", "--json")
        code, out, _ = run_cli(capsys, "kr", "--r", "5", "--json")
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_help(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: quintic-moduli")

    @staticmethod
    def _fresh(code):
        """What ``code`` prints in a fresh interpreter that imports the
        package from src/ and, by ``ran()``, lists the deferred modules
        whose body has run: a module still waiting on its LazyLoader is of
        the loader's subclass of ModuleType, and reading its type runs
        nothing."""
        here = os.path.dirname(os.path.abspath(__file__))
        prelude = (
            "import contextlib, io, sys, types\n"
            "def ran():\n"
            "    return [m for m in ('modular_core', 'quintic_ladder', 'certify')\n"
            "            if type(sys.modules['quintic_moduli.' + m]) is types.ModuleType]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", prelude + code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.normpath(os.path.join(here, "..", "src"))),
            cwd=os.path.join(here, ".."), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_start_imports_neither_dataclasses_nor_inspect(self):
        # each costs milliseconds of every CLI process and no certificate
        # needs it; nor does the start run a deferred module
        code = (
            "import quintic_moduli.cli as cli; cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), ran())\n"
        )
        assert self._fresh(code) == "[] []\n"

    @pytest.mark.parametrize("argv, code, ran", [
        (["kr", "--r", "5", "--json"], 0, []),
        (["kr", "--r", str(10 ** 40)], 2, []),
        (["rrcf", "--r", "4"], 0, ["modular_core"]),
        (["ladder", "--r0", "5", "--n", "1"], 0, ["modular_core", "quintic_ladder"]),
        (["verify", "--r", "1", "--ids", "k-reciprocal"], 0,
         ["modular_core", "quintic_ladder", "certify"]),
    ], ids=["kr", "kr-past-the-solve-bound", "rrcf", "ladder", "verify"])
    def test_a_command_runs_only_the_modules_it_uses(self, argv, code, ran):
        # a kr past the solve bound is refused with exit 2 before any of them
        out = self._fresh(
            "from quintic_moduli.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(%r)\n"
            "print(code, ran())\n" % argv
        )
        assert out == "%d %s\n" % (code, ran)

    def test_star_import_and_dir_cover_every_library_name(self):
        out = self._fresh(
            "import quintic_moduli\n"
            "listed = set(dir(quintic_moduli))\n"
            "ns = {}\n"
            "exec('from quintic_moduli import *', ns)\n"
            "union = {n for m in ('bigmath_kernel', 'modular_core', 'quintic_ladder',\n"
            "                     'certify', 'report')\n"
            "         for n in getattr(quintic_moduli, m).__all__}\n"
            "print(sorted(set(quintic_moduli.__all__) - union),\n"
            "      sorted(union - set(ns)), sorted(union - listed))\n"
        )
        assert out == "['__version__'] [] []\n"

    def test_the_benchmark_tracer_installs_after_a_kr(self):
        # the tracer wraps functions in every module by sys.modules name, so
        # a deferred module must be registered there, not merely importable
        out = self._fresh(
            "sys.path.insert(0, 'perfbench')\n"
            "from quintic_moduli.cli import main\n"
            "from tracer import TRACED, Tracer\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['kr', '--r', '5', '--json'])\n"
            "Tracer().install()\n"
            "homes = {m: sys.modules['quintic_moduli.' + m] for m, _ in TRACED}\n"
            "print([(m, f, hasattr(homes[m], f)) for m, f in TRACED\n"
            "       if not hasattr(getattr(homes[m], f, None), '__wrapped__')])\n"
        )
        # every traced name is wrapped but those deleted on purpose, which
        # the list still holds and which resolve to nothing
        assert out == "%r\n" % [(m, f, False) for m, f in ov.TRACED_DELETED]


def _plain(x, bits):
    """The plain data a document stands for: an mpf as its round-trip
    decimal, a Fraction as {"num", "den"}, a record (a named tuple) as its
    fields, a plain list or tuple as a list."""
    if isinstance(x, mpf):
        return big_to_str(x, bits)
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return {name: _plain(getattr(x, name), bits) for name in x._fields}
    if isinstance(x, dict):
        return {k: _plain(v, bits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v, bits) for v in x]
    return x


class TestJsonWriter:
    """The one-pass writer against its oracle, json.dumps(indent=2) of the
    plain data, as mp.nstr is big_to_str's."""

    @pytest.mark.parametrize(
        "argv", [argv for _, argv in REQUESTS if "--json" in argv], ids=" ".join
    )
    def test_every_pinned_json_request(self, capsys, monkeypatch, argv):
        docs, real = [], climod._json

        def spy(x, bits, pad="\n"):
            if pad == "\n":  # the document, not one of its parts
                docs.append((x, bits))
            return real(x, bits, pad)

        monkeypatch.setattr(climod, "_json", spy)
        code, out, _ = run_cli(capsys, *argv)
        if argv[0] == "ladder" and code == 4:
            # a missed rung still writes its message and partial trace as
            # text on stdout in --json mode (ROADMAP item 13): no document
            assert not docs and out.startswith("certification failure: ladder level ")
            return
        assert len(docs) == (out != "") == (code == 0)
        for doc, bits in docs:
            assert out == json.dumps(_plain(doc, bits), indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {},
        [],
        {"detail": {}, "entries": [], "levels": ()},
        IdentityEntry("k-reciprocal", mpf(0), True, 0, {}),
        [None, True, False, 0, -7, 10 ** 40, Fraction(22, 7), [[]], [{}]],
        {'quote " slash \\ tab \t': "\u00fc \u221e \U0001d70b \x7f \x00"},
        {"mpf": [mpf(1) / 3, mpf(-2.5), mpf("1e-400"), mpf("inf"), mpf("-inf"), mpf("nan")]},
    ], ids=repr)
    def test_edge_documents(self, doc):
        assert climod._json(doc, 256) == json.dumps(_plain(doc, 256), indent=2)

    def test_records_write_as_objects_and_tuples_as_arrays(self):
        step = LadderStep(1, Fraction(125, 2), *(mpf(v) for v in (2, 3, 4, 5, 6)))
        trace = LadderTrace(100, mpf(7), mpf(8), (step,))
        doc = json.loads(climod._json({"trace": trace, "pair": (1, (2, step))}, 64))
        values = [1, {"num": 125, "den": 2}, "2.0", "3.0", "4.0", "5.0", "6.0"]
        level = dict(zip(LadderStep._fields, values))
        assert list(doc["trace"]) == list(LadderTrace._fields)
        assert list(doc["trace"]["steps"][0]) == list(LadderStep._fields)
        assert doc["trace"]["steps"] == [level]
        assert doc["pair"] == [1, [2, level]]
