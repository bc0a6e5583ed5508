import contextlib

import pytest
from mpmath import mpf, workprec

import quintic_moduli.bigmath_kernel as bk
import quintic_moduli.certify as certify
from quintic_moduli import (
    DEFAULT_CONTEXT,
    REGISTRY,
    IdentityEntry,
    IdentityReport,
    PrecisionContext,
    UsageError,
    multiplier_M5,
    run_suite,
)

TOL = mpf(10) ** -120


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
        tol = mpf(10) ** -report.tol_exp
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

    def test_rational_r(self):
        report = run_suite(3, 2, ids=["eq10-multiplier", "eq13-thm22"])
        assert report.all_pass
        assert report.r_num == 3 and report.r_den == 2

    def test_eq34_where_p_map_descends_a_tiny_a(self):
        # at r = 10^5, p_map descends an a-value near 3e-171
        assert run_suite(10 ** 5, 1, ids=["eq34-thm33"]).all_pass

    def test_eq11_residual_keeps_full_precision(self):
        # the stored residual is the polynomial residual itself, not a copy
        # re-rounded at mpmath's default 53 bits
        (entry,) = run_suite(5, ids=["eq11-m5-poly"]).entries
        assert entry.residual == multiplier_M5(5).poly_residual

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
    def _record_solves(monkeypatch):
        solved = []
        solve = bk._solve

        def recording(rn, rd, ctx):
            solved.append((rn, rd))
            return solve(rn, rd, ctx)

        monkeypatch.setattr(bk, "_solve", recording)
        return solved

    def test_one_solve_per_distinct_r(self, monkeypatch):
        solved = self._record_solves(monkeypatch)
        assert run_suite(5, 1).all_pass
        # r, 25r, r/25 (= 1/r), 4r and 100r, each once
        assert sorted(solved) == [(1, 5), (5, 1), (20, 1), (125, 1), (500, 1)]

    def test_nothing_is_shared_between_calls(self, monkeypatch):
        solved = self._record_solves(monkeypatch)
        run_suite(5, 1)
        run_suite(5, 1)
        assert len(solved) == 10

    @pytest.mark.parametrize("rn,rd", [(1, 50), (1, 1), (22, 7), (250, 3)])
    def test_residuals_match_unmemoised_groups(self, rn, rd, monkeypatch):
        report = run_suite(rn, rd)
        # without the memo scope every checker solves afresh
        monkeypatch.setattr(certify, "_request_memo", contextlib.nullcontext)
        fresh = run_suite(rn, rd)
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


class TestAscentDescentLaws:
    @pytest.mark.parametrize("rn,rd", [(1, 1), (1, 25)])
    def test_thm31(self, rn, rd):
        (entry,) = run_suite(rn, rd, ids=["eq29-thm31"]).entries
        assert entry.id == "eq29-thm31"
        assert entry.passed
        assert entry.residual < TOL
        assert set(entry.detail) == {"sixth_power_vs_a(4r)", "invariant_ratio_relation"}

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
    def test_json_round_trip_bit_exact(self):
        report = run_suite(5, 1, ids=["eq26-u-defining", "eq30-thm32"])
        back = IdentityReport.from_json(report.to_json())
        assert back.r_num == report.r_num
        assert back.r_den == report.r_den
        assert back.precision_bits == report.precision_bits
        assert back.tol_exp == report.tol_exp
        for ea, eb in zip(report.entries, back.entries):
            assert ea.id == eb.id
            assert ea.residual == eb.residual
            assert ea.passed == eb.passed


class TestGatedEntry:
    """IdentityEntry.gated is the registry's one pass rule; like run_suite,
    these call it at working precision."""

    def test_residual_at_the_tolerance_fails(self):
        ctx = DEFAULT_CONTEXT
        tol = ctx.tolerance()
        with workprec(ctx.work_bits):
            assert not IdentityEntry.gated(ctx, "eq6-eta8", tol).passed
            assert IdentityEntry.gated(ctx, "eq6-eta8", tol / 2).passed

    def test_negative_residual_is_stored_as_its_absolute_value(self):
        ctx = DEFAULT_CONTEXT
        tol = ctx.tolerance()
        with workprec(ctx.work_bits):
            e = IdentityEntry.gated(ctx, "eq6-eta8", -tol / 2)
            assert e.residual == IdentityEntry.gated(ctx, "eq6-eta8", tol / 2).residual
            assert e.residual > 0
            assert e.passed
            failing = IdentityEntry.gated(ctx, "eq6-eta8", -2 * tol)
            assert failing.residual > 0
            assert not failing.passed

    def test_detail_passes_through(self):
        detail = {"vanishing_orientation": "stated"}
        e = IdentityEntry.gated(DEFAULT_CONTEXT, "eq15-depressed", mpf(0), detail=detail)
        assert e.detail == detail
        assert e.id == "eq15-depressed"
        assert IdentityEntry.gated(DEFAULT_CONTEXT, "eq6-eta8", mpf(0)).detail == {}


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
