import contextlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_abs

import quintic_moduli.bigmath_kernel as bk
import quintic_moduli.certify as certify
import quintic_moduli.modular_core as mc
import quintic_moduli.quintic_ladder as ql
from quintic_moduli import (
    CertificationError,
    DEFAULT_CONTEXT,
    REGISTRY,
    IdentityEntry,
    IdentityReport,
    PrecisionContext,
    UsageError,
    nome,
    run_suite,
)
from quintic_moduli.cli import main
from quintic_moduli.report import str_to_big

import oracle_values as ov

TOL = mpf(10) ** -120

#: the registry ids that read only q-series values, no solve
QSERIES_IDS = ["eq5-eta-quotient", "eq19-v-descent", "eq24-q-descent"]


class TestRegistry:
    def test_contents_and_order(self):
        assert REGISTRY == (
            "eq5-eta-quotient",
            "eq6-eta8",
            "eq7-eta2",
            "eq10-multiplier",
            "eq11-m5-poly",
            "eq13-thm22",
            "eq14-w-poly",
            "eq15-depressed",
            "eq19-v-descent",
            "eq24-q-descent",
            "eq26-u-defining",
            "eq29-thm31",
            "eq30-thm32",
            "eq31-g-def",
            "eq34-thm33",
            "k-reciprocal",
        )

    def test_no_duplicates(self):
        assert len(set(REGISTRY)) == len(REGISTRY)


class TestRunSuite:
    def test_full_suite_at_r1(self):
        report = run_suite(1, 1)
        assert isinstance(report, IdentityReport)
        assert report.all_pass
        assert [e.id for e in report.entries] == list(REGISTRY)
        tol = mpf(10) ** -DEFAULT_CONTEXT.tol_exp
        for e in report.entries:
            assert e.passed
            assert e.residual < tol
            assert e.elapsed_ms >= 0

    def test_full_suite_at_r_one_hundredth(self):
        # the r/25 = 1/2500 solve sits far below r = 1
        assert run_suite(1, 100).all_pass

    def test_subset_single(self):
        report = run_suite(2, 1, ids=["k-reciprocal"])
        assert [e.id for e in report.entries] == ["k-reciprocal"]
        assert report.all_pass

    def test_request_order_is_ignored(self):
        # output order is the registry's, not the caller's
        report = run_suite(1, 1, ids=["eq11-m5-poly", "eq5-eta-quotient"])
        assert [e.id for e in report.entries] == ["eq5-eta-quotient", "eq11-m5-poly"]

    def test_unknown_id(self):
        with pytest.raises(UsageError) as ei:
            run_suite(1, 1, ids=["eq5-eta-quotient", "nope"])
        msg = str(ei.value)
        assert "nope" in msg
        # the error teaches the valid vocabulary
        assert "k-reciprocal" in msg and "eq34-thm33" in msg

    @pytest.mark.parametrize("ids, problem", [
        ([], "no identity id given"),
        ((), "no identity id given"),
        ("eq5-eta-quotient", "ids must be a list of ids, not a string"),
        ("", "ids must be a list of ids, not a string"),
    ], ids=["empty-list", "empty-tuple", "string", "empty-string"])
    def test_a_request_that_names_no_id_is_refused(self, ids, problem):
        # an empty report would pass with nothing certified, and a string
        # is a sequence of characters, never of ids
        with pytest.raises(UsageError) as ei:
            run_suite(3, 1, ids=ids)
        assert str(ei.value) == "%s; registry: %s" % (problem, ", ".join(REGISTRY))

    def test_rational_r(self):
        report = run_suite(3, 2, ids=["eq10-multiplier", "eq13-thm22"])
        assert report.all_pass

    @pytest.mark.parametrize("bits", [256, 512, 1024])
    @pytest.mark.parametrize("r", [Fraction(10 ** 5), Fraction(10 ** 20), Fraction(1, 10 ** 20)])
    def test_eq34_where_p_map_descends_a_tiny_a(self, r, bits):
        # at r = 10^5, p_map descends an a-value near 3e-171; at 10^20 and
        # 1/10^20 the rung's t and the products k k' span hundreds of
        # billions of binary orders of magnitude
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        ids = ["eq30-thm32", "eq34-thm33"]
        report = run_suite(r.numerator, r.denominator, ids=ids, ctx=ctx)
        assert [e.id for e in report.entries] == ids
        assert report.all_pass

    def test_eq11_residual_keeps_full_precision(self):
        # the stored residual is the polynomial residual itself, not a copy
        # re-rounded at mpmath's default 53 bits
        (entry,) = run_suite(5, ids=["eq11-m5-poly"]).entries
        bits = DEFAULT_CONTEXT.work_bits + bk._GATE_INT_BITS
        rec, rec25 = (bk.solve_singular_modulus(m * 5, 1) for m in (1, 25))
        s = bk._mul(*bk._floats(rec.k, rec.k_comp), bits)
        residual, _ = certify._m5_relation(s, bk._quo(*bk._floats(rec25.K_k, rec.K_k), bits), bits)
        want = mpf_abs(from_man_exp(*residual), DEFAULT_CONTEXT.precision_bits)
        assert entry.residual._mpf_ == want

    def test_a_refusal_writes_no_decimal(self, monkeypatch):
        # past the solve bound eq5's checker runs, and eq6's solve refuses
        # before any entry is judged or written: eq5's scale, about
        # 2^(1.4 10^2100) at r = 10^4199, is never turned into a decimal
        written = []
        monkeypatch.setattr(certify, "to_decimal", lambda x, dps: written.append(x) or "")
        with pytest.raises(bk.DomainError, match="past the bound"):
            run_suite(10 ** 4199, 1)
        assert written == []

    def test_deterministic_modulo_timing(self):
        a = run_suite(2, 1, ids=["eq6-eta8", "eq7-eta2"])
        b = run_suite(2, 1, ids=["eq6-eta8", "eq7-eta2"])
        for ea, eb in zip(a.entries, b.entries):
            assert ea.id == eb.id
            assert ea.residual == eb.residual
            assert ea.passed == eb.passed
            assert ea.detail == eb.detail


class TestRequestMemo:
    @staticmethod
    def _record(monkeypatch, module, name):
        """Record the arguments, less ctx, of each call to the function a
        lookup computes with."""
        calls = []
        compute = getattr(module, name)

        def recording(*args):
            calls.append(args[:-1])
            return compute(*args)

        monkeypatch.setattr(module, name, recording)
        return calls

    def test_one_solve_per_distinct_r(self, monkeypatch):
        solved = self._record(monkeypatch, bk, "solve_singular_modulus")
        assert run_suite(5, 1).all_pass
        # r, 25r, r/25 (= 1/r), 4r and 100r, each once
        assert sorted(solved) == [(1, 5), (5, 1), (20, 1), (125, 1), (500, 1)]

    def test_nothing_is_shared_between_calls(self, monkeypatch):
        solved = self._record(monkeypatch, bk, "solve_singular_modulus")
        run_suite(5, 1)
        run_suite(5, 1)
        assert len(solved) == 10

    def test_qseries_ids_compute_each_nome_and_cf_once(self, monkeypatch):
        nomes = self._record(monkeypatch, bk, "_exp_nome")
        etas = self._record(monkeypatch, bk, "eta_f")
        fractions = self._record(monkeypatch, mc, "rrcf_converged")
        assert run_suite(5, 1, ids=QSERIES_IDS).all_pass
        # the CF at r (eq5, eq19) and r/25 (eq19); the eta quotient at r
        # (eq5, eq24) and r/25 (eq24), which read f(-q) at r, 25r and r/25.
        # Each nome is taken once, and the one at 25r is the fifth power of
        # the one at r, so only r and r/25 take an exp
        assert sorted(nomes) == [(1, 5), (5, 1)]
        assert sorted(etas) == sorted((nome(n, d),) for n, d in ((1, 5), (5, 1), (125, 1)))
        assert len(fractions) == 2

    def test_full_suite_computes_five_eta_values(self, monkeypatch):
        # f(-q^m) is the eta value at m^2 r: at r, 4r (m = 2), 25r (m = 5)
        # and 100r (m = 10, through a_via_eta(4r)), and at r/25 (eq24)
        etas = self._record(monkeypatch, bk, "eta_f")
        assert run_suite(5, 1).all_pass
        points = ((5, 1), (20, 1), (125, 1), (500, 1), (1, 5))
        assert sorted(etas) == sorted((nome(n, d),) for n, d in points)

    def test_full_suite_computes_one_invariant_and_three_eta_quotients(self, monkeypatch):
        # g at r alone (eq31; the ascent ids read k k' from the solves); a at
        # r (eq5, eq13, eq24), r/25 (eq24) and 4r (eq29)
        gs = self._record(monkeypatch, certify, "g_invariant")
        quotients = self._record(monkeypatch, mc, "a_via_eta")
        assert run_suite(5, 1).all_pass
        assert sorted(gs) == [(5, 1)]
        assert sorted(quotients) == [(1, 5), (5, 1), (20, 1)]

    def test_smallest_r_sums_its_q_series_only_near_q_0(self, monkeypatch):
        # below the reflection crossover every eta value, continued fraction
        # and eta quotient is read at its reflected point, whose nome lies
        # at or below the crossover's
        etas = self._record(monkeypatch, bk, "eta_f")
        fractions = self._record(monkeypatch, mc, "rrcf_converged")
        assert run_suite(1, 10 ** 4).all_pass
        bound = nome(bk._REFLECT_BELOW.numerator, bk._REFLECT_BELOW.denominator)
        assert etas and fractions
        assert max(q for q, in etas + fractions) <= bound

    @pytest.mark.parametrize("rn,rd", [(1, 50), (1, 1), (22, 7), (250, 3)])
    def test_residuals_match_unmemoised_groups(self, rn, rd, monkeypatch):
        # the full registry, and the q-series ids alone
        subsets = (None, QSERIES_IDS)
        reports = [run_suite(rn, rd, ids=ids) for ids in subsets]
        # without the memo scope every checker computes afresh
        monkeypatch.setattr(certify, "_request_memo", contextlib.nullcontext)
        for ids, report in zip(subsets, reports):
            fresh = run_suite(rn, rd, ids=ids)
            assert [e.id for e in fresh.entries] == [e.id for e in report.entries]
            for got, want in zip(report.entries, fresh.entries):
                assert (got.residual, got.passed, got.detail) == (
                    want.residual,
                    want.passed,
                    want.detail,
                ), got.id


class TestThm22:
    @pytest.mark.parametrize("rn,rd", [(1, 1), (5, 1)])
    def test_all_relations_hold(self, rn, rd):
        ids = ["eq13-thm22", "eq14-w-poly", "eq15-depressed"]
        entries = run_suite(rn, rd, ids=ids).entries
        assert [e.id for e in entries] == ids
        for e in entries:
            assert e.passed, (e.id, e.residual)
            assert e.residual < TOL

    def test_orientation_probe(self):
        (entry,) = run_suite(1, 1, ids=["eq15-depressed"]).entries
        probe = entry.detail
        assert probe["vanishing_orientation"].startswith("swapped")
        # the stated orientation is numerically far from zero
        assert mpf(probe["stated_residual"]) > mpf("0.01")
        assert mpf(probe["swapped_residual"]) < TOL

    def test_eq15_judges_the_swapped_orientation(self, monkeypatch):
        # a stated orientation that vanishes does not rescue a swapped one
        # that misses the gate: the swap is the identity that holds
        pair_relations = certify._pair_relations

        def stub(*args):
            eq13, eq14, (_, scale), _ = pair_relations(*args)
            man, exp = scale
            return eq13, eq14, ((0, exp), scale), ((man, exp - 1), scale)

        monkeypatch.setattr(certify, "_pair_relations", stub)
        (entry,) = run_suite(1, 1, ids=["eq15-depressed"]).entries
        assert not entry.passed
        assert entry.detail["vanishing_orientation"].startswith("stated")
        assert mpf(entry.detail["stated_residual"]) == 0


class TestAscentDescentLaws:
    @pytest.mark.parametrize("rn,rd", [(1, 1), (1, 25)])
    def test_thm31(self, rn, rd):
        (entry,) = run_suite(rn, rd, ids=["eq29-thm31"]).entries
        assert entry.id == "eq29-thm31"
        assert entry.passed
        assert entry.residual < TOL
        assert set(entry.detail) == {
            "sixth_power_vs_a(4r)", "invariant_ratio_relation", "scale"
        }

    @pytest.mark.parametrize("rn,rd", [(1, 1), (5, 1)])
    def test_thm32(self, rn, rd):
        (entry,) = run_suite(rn, rd, ids=["eq30-thm32"]).entries
        assert entry.id == "eq30-thm32"
        assert entry.passed
        assert entry.residual < TOL

    def test_descent_and_ascent_agree_at_reciprocal(self):
        # the descent law at r and the ascent law at r/25 see the same rungs
        (descent,) = run_suite(5, 1, ids=["eq30-thm32"]).entries
        (ascent,) = run_suite(1, 5, ids=["eq29-thm31"]).entries
        assert descent.passed and ascent.passed


class TestReportSerialization:
    def test_json_round_trip_bit_exact(self, capsys):
        # every verify residual crosses the JSON boundary and parses back
        # to the very value run_suite computed
        ids = ["eq26-u-defining", "eq30-thm32"]
        report = run_suite(5, 1, ids=ids)
        assert main(["verify", "--r", "5", "--ids", ",".join(ids), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["report"]["entries"]
        assert [e["id"] for e in entries] == [e.id for e in report.entries] == ids
        for got, want in zip(entries, report.entries):
            assert str_to_big(got["residual"], 512) == want.residual
            assert got["passed"] is want.passed is True


class TestIdentityEntry:
    def test_detail_given_is_kept(self):
        detail = {"scale": "1.0"}
        assert IdentityEntry("k-reciprocal", mpf(0), True, 3, detail).detail is detail


class TestGatedEntry:
    """run_suite's pass rule, on (residual, scale) pairs from one stub group
    standing in for the registry; like a checker, the stub hands on each
    value as a pair (man, exp), an mpf formed at working precision as its
    exact pair (ov.pair)."""

    @staticmethod
    def _judge(monkeypatch, residuals):
        def stub(rn, rd, ctx):
            return {
                i: tuple(ov.pair(v) if isinstance(v, mpf) else v for v in value)
                for i, value in residuals.items()
            }

        monkeypatch.setattr(certify, "_GROUPS", ((("eq6-eta8", "eq15-depressed"), stub),))
        return {e.id: e for e in run_suite(1, 1, ids=list(residuals)).entries}

    def test_residual_at_the_tolerance_fails(self, monkeypatch):
        # 1 against a scale of 10^tol_exp lies exactly at the bound, and
        # 1 - 2^-600 one unit of its last bit under it
        scale = (10 ** DEFAULT_CONTEXT.tol_exp, 0)
        got = self._judge(
            monkeypatch,
            {"eq6-eta8": ((1, 0), scale), "eq15-depressed": (((1 << 600) - 1, -600), scale)},
        )
        assert not got["eq6-eta8"].passed
        assert got["eq15-depressed"].passed

    def test_negative_residual_is_stored_as_its_absolute_value(self, monkeypatch):
        ctx = DEFAULT_CONTEXT
        with workprec(ctx.work_bits):
            tol, one = ov.tolerance(ctx), mpf(1)
            got = self._judge(
                monkeypatch,
                {"eq6-eta8": (-tol / 2, one), "eq15-depressed": (tol / 2, one)},
            )
            failing = self._judge(monkeypatch, {"eq6-eta8": (-2 * tol, one)})["eq6-eta8"]
        e = got["eq6-eta8"]
        assert e.residual == got["eq15-depressed"].residual
        assert e.residual > 0
        assert e.passed
        assert failing.residual > 0
        assert not failing.passed

    def test_detail_passes_through(self, monkeypatch):
        detail = {"vanishing_orientation": "stated"}
        got = self._judge(
            monkeypatch,
            {"eq6-eta8": (mpf(0), mpf(2)), "eq15-depressed": (mpf(0), mpf(-3), detail)},
        )
        # the scale joins the checker's own detail, as its magnitude
        assert got["eq15-depressed"].detail == dict(detail, scale="3.0")
        assert got["eq15-depressed"].id == "eq15-depressed"
        assert got["eq6-eta8"].detail == {"scale": "2.0"}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_residual_is_rounded_once(self, monkeypatch, sign):
        # V = (A 2^65 + 2^64 - 1) 2^-365 lies below A + 1/2 units of 2^-300,
        # so at 256 bits it rounds to A; rounded first to the 320 work bits
        # it would be A + 1/2 units, a tie, and then A + 1
        ctx, A = PrecisionContext(256, 55), (1 << 255) + 1
        V = (sign * ((A << 65) + (1 << 64) - 1), -365)
        monkeypatch.setattr(
            certify, "_GROUPS", ((("eq6-eta8",), lambda rn, rd, ctx: {"eq6-eta8": (V, (1, 0))}),)
        )
        (entry,) = run_suite(1, 1, ctx=ctx).entries
        assert entry.residual._mpf_ == from_man_exp(A, -300)

    def test_tiny_scale_tightens_the_gate(self, monkeypatch):
        # 10^-130 is below the bare 10^-120, but not 10^-120 of a value of
        # 10^-20: its terms carry no digit the residual would certify
        with workprec(DEFAULT_CONTEXT.work_bits):
            pair = (mpf(10) ** -130, mpf(10) ** -20)
        assert not self._judge(monkeypatch, {"eq6-eta8": pair})["eq6-eta8"].passed

    def test_large_scale_loosens_the_gate(self, monkeypatch):
        # 10^-110 against terms of 10^15 is a relative 10^-125
        with workprec(DEFAULT_CONTEXT.work_bits):
            pair = (mpf(10) ** -110, mpf(10) ** 15)
        assert self._judge(monkeypatch, {"eq6-eta8": pair})["eq6-eta8"].passed


class TestSuiteDomain:
    """Across r in [1/10^4, 10^6] at 512 bits, and at the ends of that range
    at 256 and 4096 bits, every registry id certifies against its own scale."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        r=st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 6, max_denominator=10 ** 4),
        bits=st.just(512),
    )
    @example(r=Fraction(1, 10 ** 4), bits=512)
    @example(r=Fraction(1, 1000), bits=512)
    @example(r=Fraction(703, 4), bits=512)
    @example(r=Fraction(1000), bits=512)
    @example(r=Fraction(10 ** 4), bits=512)
    @example(r=Fraction(13000), bits=512)
    @example(r=Fraction(10 ** 6), bits=512)
    @example(r=Fraction(1, 10 ** 4), bits=256)
    @example(r=Fraction(10 ** 6), bits=256)
    @example(r=Fraction(1, 10 ** 4), bits=4096)
    @example(r=Fraction(10 ** 6), bits=4096)
    def test_all_pass(self, r, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        report = run_suite(r.numerator, r.denominator, ctx=ctx)
        assert [e.id for e in report.entries] == list(REGISTRY)
        assert report.all_pass, [e.id for e in report.entries if not e.passed]

    @pytest.mark.parametrize("bits", [512, 1024])
    def test_qseries_checkers_certify_past_the_float_range(self, bits):
        # at r = 10^1000 the nome lies below 2^-(2^1024), where -ln q is no
        # float.  run_suite refuses an r that large for its solving ids, so
        # the q-series checkers are called as it calls them: in one request
        # memo, at whatever precision the caller has set
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        checks = (certify._check_eq5, certify._check_eq19, certify._check_eq24)
        with bk._request_memo():
            residuals = [check(10 ** 1000, 1, ctx) for check in checks]
            got = {i: ctx.verdict(*v)[1] for group in residuals for i, v in group.items()}
        assert got == dict.fromkeys(QSERIES_IDS, True)


class TestLadderDomain:
    """Ladders from r0 = 1/15625 to 1600, each climbing every rung up to
    r = 10^6, at 256 to 4096 bits: every rung certifies, below r = 1 too.
    Starts with 25 r0 just above 1 lose digits at level 1 and may miss its
    gate, but as a certification failure, never as a refused domain."""

    @staticmethod
    def _climb(r0, n, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        return ql.ladder(r0.numerator, r0.denominator, n, ctx)

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize(
        "r0",
        ["1/15625", "3/7000", "1/100", "1/625", "1/25", "2/49", "1/7", "1", "7/3", "50", "1600"],
    )
    def test_every_rung_certifies(self, r0, bits):
        r0 = Fraction(r0)
        n = max(j for j in range(1, 8) if r0 * 25 ** j <= 10 ** 6)
        trace = self._climb(r0, n, bits)
        assert [s.r for s in trace.steps] == [r0 * 25 ** j for j in range(1, n + 1)]

    @pytest.mark.parametrize(
        "eps_exp, bits, certifies",
        [(6, 256, True), (20, 512, True), (50, 256, True), (50, 512, True),
         (50, 1024, True), (50, 4096, True), (200, 1024, False)],
    )
    def test_start_just_above_one(self, eps_exp, bits, certifies):
        # 25 r0 = 1 + 10^-eps_exp: level 1 recovers k from k k' = 1/2 - O(eps^2),
        # which amplifies the product's rounding by 1/|1 - 2k^2|; a radicand
        # 1 - 4 (k k')^2 that rounds below zero is taken as zero, and the
        # oracle gate decides
        r0 = Fraction(10 ** eps_exp + 1, 25 * 10 ** eps_exp)
        if certifies:
            assert len(self._climb(r0, 2, bits).steps) == 2
        else:
            with pytest.raises(CertificationError, match=r"1/\|1 - 2k\^2\| = ") as ei:
                self._climb(r0, 2, bits)
            assert [s.level for s in ei.value.payload.steps] == [1]


class TestResidualsShrinkWithPrecision:
    def test_shrink_512_to_1024(self):
        # residuals must be arithmetic noise, not method error: doubling the
        # precision has to buy at least 50 orders of magnitude (full check
        # over all ids lives in the acceptance module)
        ids = ["eq6-eta8", "eq26-u-defining"]
        r512 = run_suite(2, 1, ids=ids)
        ctx = PrecisionContext(precision_bits=1024, tol_exp=240)
        r1024 = run_suite(2, 1, ids=ids, ctx=ctx)
        floor = mpf(10) ** -290
        for e5, e10 in zip(r512.entries, r1024.entries):
            assert e5.id == e10.id
            if e10.residual == 0 or e10.residual < floor:
                continue
            assert e5.residual / e10.residual >= mpf(10) ** 50


#: ten points from 1/10^4 to 10^6, r = 1 and both sides of it included
GRID = ["1/10000", "1/100", "1/13", "1/2", "1", "7/3", "5", "300", "10000", "1000000"]


class TestIntegerRelations:
    """Every registry residual is formed on integer mantissas; each is held
    against an mpf spelling in oracle_values: the earlier ones of eq5, eq7,
    eq11, eq19, eq24, eq29, k-reciprocal and the pair relations, and eq6,
    eq10 and eq31 in the powers they are now checked in."""

    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_residuals_match_the_mpf_spellings(self, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        work = ctx.work_bits
        gate = work + bk._GATE_INT_BITS
        checker = {i: check for ids, check in certify._GROUPS for i in ids}
        ids = (
            "eq6-eta8", "eq7-eta2", "eq10-multiplier", "eq31-g-def", "eq5-eta-quotient",
            "eq19-v-descent", "eq24-q-descent", "eq29-thm31", "k-reciprocal",
        )
        for r in GRID:
            f = Fraction(r)
            rn, rd = f.numerator, f.denominator
            with bk._request_memo():
                rec, rec25 = bk._solved(rn, rd, ctx), bk._solved(25 * rn, rd, ctx)
                m5 = bk._quo(*bk._floats(rec25.K_k, rec.K_k), gate)
                a = mc._a_eta_at(rn, rd, ctx)
                quad = (rec.k, rec25.k, rec.k_comp, rec25.k_comp, a, rn < rd)
                got = [
                    *certify._pair_relations(*quad, gate),
                    certify._m5_relation(bk._mul(*bk._floats(rec.k, rec.k_comp), gate), m5, gate),
                    *(checker[i](rn, rd, ctx)[i][:2] for i in ids),
                ]
                r_cf = mc._rrcf_at(rn, rd, ctx)[0]
                a_4r = mc._a_eta_at(4 * rn, rd, ctx)
                w = ql._cubic_root(bk._root(*bk._floats(a_4r), gate), ctx)
                want = [
                    *ov.pair_relations_mpf(*quad, work),
                    ov.m5_relation_mpf(mp.make_mpf(from_man_exp(*m5)), rec.k, rec.k_comp, work),
                    *ov.power_identities_mpf(
                        *quad[:4], rec.K_k, rec25.K_k, rec.q, a, bk._eta_at(rn, rd, ctx),
                        bk._eta_at(4 * rn, rd, ctx), ql.g_invariant(rn, rd, ctx), 2 * work,
                    ),
                    *ov.qseries_identities_mpf(
                        r_cf, a, mc.descend_v(r_cf, ctx), mc._rrcf_at(rn, 25 * rd, ctx)[0],
                        mc.descend_a(a, ctx), mc._a_eta_at(rn, 25 * rd, ctx), 2 * work,
                    ),
                    ov.thm31_mpf(
                        a_4r, bk._rounded(ctx, mc.a_via_moduli(4 * rn, rd, ctx)),
                        mp.make_mpf(from_man_exp(*w)),
                        rec.k, rec.k_comp, rec25.k, rec25.k_comp, 2 * work,
                    ),
                    ov.difference_mpf(bk._solved(rd, rn, ctx).k, rec.k_comp, 2 * work),
                ]
            names = (
                "eq13", "eq14", "eq15 stated", "eq15 swapped", "eq11", "eq6", "eq7", "eq10", "eq31",
                "eq5", "eq19", "eq24", "eq29", "k-reciprocal",
            )
            assert len(got) == len(want) == len(names)
            for name, pair, (ref_res, ref_scale) in zip(names, got, want):
                res, scale = (mp.make_mpf(from_man_exp(*x)) for x in pair)
                with workprec(2 * work):
                    bound = mpf(2) ** (8 - work) * ref_scale
                    assert abs(res - ref_res) < bound, (r, name)
                    assert abs(scale - ref_scale) < bound, (r, name)
                assert ctx.verdict(*pair)[1] == ctx.verdict(ov.pair(ref_res), ov.pair(ref_scale))[1], (
                    r, name)
            report = run_suite(rn, rd, ctx=ctx)
            assert report.all_pass, (r, [e.id for e in report.entries if not e.passed])


class TestCheckersReadNoAmbientPrecision:
    """A checker forms its residual and scale on mantissas at stated bits,
    so it returns the same values at any mp.prec, in or out of run_suite."""

    @pytest.mark.parametrize("r", ["7/3", "1/13", "1000000"])
    def test_same_bits_in_and_out_of_run_suite(self, r, monkeypatch):
        f = Fraction(r)
        rn, rd = f.numerator, f.denominator

        for ids, check in certify._GROUPS:
            # run_suite on this group alone, so that its request memo fills
            # in the same order as the memo opened below
            inside = []
            with monkeypatch.context() as patch:
                patch.setattr(certify, "_GROUPS", ((ids, lambda *a: inside.append(check(*a)) or inside[-1]),))
                run_suite(rn, rd, ids=ids)
            outside = []
            for prec in (53, 8000):
                with workprec(prec), bk._request_memo():
                    outside.append(check(rn, rd, DEFAULT_CONTEXT))
            assert outside[0] == outside[1] == inside[0], (r, ids)


class TestPerturbationsFail:
    """A value off by a few digits more than the gate fails the id that
    certifies it: k_25r in eq14 by 10^-(tol_exp - 5), g in eq31 by
    10^-(tol_exp - 2), and k at each solve the ascent ids read by either,
    relative."""

    @staticmethod
    def _perturbed(monkeypatch, module, name, point, digits, field=None):
        compute = getattr(module, name)

        def perturbed(n, d, ctx):
            value = compute(n, d, ctx)
            if Fraction(n, d) == point:
                with workprec(ctx.work_bits):
                    factor = 1 + mpf(10) ** -(ctx.tol_exp - digits)
                    if field is None:
                        return value * factor
                    return value._replace(**{field: getattr(value, field) * factor})
            return value

        monkeypatch.setattr(module, name, perturbed)

    @pytest.mark.parametrize("r", ["7/3", "25", "10000"])
    def test_eq14_fails_a_perturbed_k25(self, r, monkeypatch):
        f = Fraction(r)
        assert run_suite(f.numerator, f.denominator, ids=["eq14-w-poly"]).all_pass
        self._perturbed(monkeypatch, bk, "solve_singular_modulus", 25 * f, 5, field="k")
        (entry,) = run_suite(f.numerator, f.denominator, ids=["eq14-w-poly"]).entries
        assert not entry.passed

    @pytest.mark.parametrize("r", ["7/3", "25", "10000"])
    def test_eq31_fails_a_perturbed_g(self, r, monkeypatch):
        f = Fraction(r)
        assert run_suite(f.numerator, f.denominator, ids=["eq31-g-def"]).all_pass
        self._perturbed(monkeypatch, certify, "g_invariant", f, 2)
        (entry,) = run_suite(f.numerator, f.denominator, ids=["eq31-g-def"]).entries
        assert not entry.passed

    @pytest.mark.parametrize("digits", [5, 2])
    @pytest.mark.parametrize("r", ["1/100", "7/3", "25", "10000"])
    @pytest.mark.parametrize(
        "id_, points",
        [
            ("eq30-thm32", (Fraction(1, 25), 1, 25)),
            ("eq34-thm33", (Fraction(1, 25), 1, 25)),
            ("eq29-thm31", (1, 25)),
        ],
    )
    def test_ascent_ids_fail_a_perturbed_k(self, id_, points, r, digits, monkeypatch):
        # eq30 and eq34 read k k' at r/25, r and 25r, eq29 at r and 25r: a k
        # off at any of them fails the id
        f = Fraction(r)
        assert run_suite(f.numerator, f.denominator, ids=[id_]).all_pass
        for m in points:
            with monkeypatch.context() as patch:
                self._perturbed(patch, bk, "solve_singular_modulus", m * f, digits, field="k")
                (entry,) = run_suite(f.numerator, f.denominator, ids=[id_]).entries
            assert not entry.passed, m
