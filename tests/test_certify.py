import pytest
from mpmath import mpf

import quintic_moduli.bigmath_kernel as bk
from quintic_moduli import (
    DEFAULT_CONTEXT,
    REGISTRY,
    IdentityReport,
    PrecisionContext,
    UsageError,
    run_suite,
)
from quintic_moduli.certify import _GROUPS


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
    def test_residuals_match_unmemoised_groups(self, rn, rd):
        report = run_suite(rn, rd)
        # outside run_suite no scope is open, so every checker solves afresh
        fresh = [e for _, check in _GROUPS for e in check(rn, rd, DEFAULT_CONTEXT)]
        assert [e.id for e in fresh] == [e.id for e in report.entries]
        for got, want in zip(report.entries, fresh):
            assert (got.residual, got.passed, got.detail) == (
                want.residual,
                want.passed,
                want.detail,
            ), got.id


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
