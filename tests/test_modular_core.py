from fractions import Fraction

import pytest
from mpmath import mp, mpf, sqrt, workprec

from quintic_moduli import (
    CertificationError,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    a_value,
    closed_form_R,
    descend_a,
    descend_v,
    multiplier_M5,
    nome,
    rrcf_converged,
    rrcf_truncated,
    solve_singular_modulus,
    theta_form,
    to_big,
)

import oracle_values as ov
import quintic_moduli.bigmath_kernel as bk

TOL = mpf(10) ** -120


class TestMultiplier:
    def test_r1_radical(self):
        # the K-ratio at r=1 has the closed form (2+sqrt5)/5 (verified to
        # 3e-309 at 1024 bits); note it is a double root of the degree-6
        # polynomial, so root-polishing there is hopeless by design
        rec = multiplier_M5(1, 1)
        with workprec(600):
            assert abs(rec.m5 - ov.m5_1_radical()) < TOL

    @pytest.mark.parametrize("rn,rd", [(1, 1), (3, 2), (5, 1)])
    def test_poly_residual(self, rn, rd):
        rec = multiplier_M5(rn, rd)
        assert rec.poly_residual < TOL
        assert mpf(1) / 5 < rec.m5 < 1

    def test_defines_K_ratio(self):
        rec = multiplier_M5(3, 2)
        lo = solve_singular_modulus(3, 2)
        hi = solve_singular_modulus(75, 2)
        with workprec(600):
            assert abs(rec.m5 * lo.K_k - hi.K_k) < TOL

    def test_reciprocal_point(self):
        # m5(1/5) = 1/sqrt5 (verified to 1e-308 at 1024 bits)
        rec = multiplier_M5(1, 5)
        with workprec(600):
            assert abs(rec.m5 - 1 / sqrt(mpf(5))) < TOL


class TestAValue:
    @pytest.mark.parametrize("rn,rd", [(1, 1), (2, 1), (3, 2), (5, 1)])
    def test_routes_agree(self, rn, rd):
        rec = a_value(rn, rd)
        assert rec.cross_residual < TOL
        assert rec.a > 0

    def test_r1_frozen(self):
        rec = a_value(1, 1)
        with workprec(600):
            assert abs(rec.a - mpf(ov.A1)) < mpf(10) ** -138

    def test_r4_radical(self):
        # a(4) = 250 + 125 sqrt5 (verified to 7e-307 at 1024 bits)
        rec = a_value(4, 1)
        with workprec(600):
            assert abs(rec.a - ov.a4_radical()) < TOL


class TestRRCFTruncated:
    def test_leading_expansion(self):
        # R(q) = q^(1/5) (1 - q + q^2 - ...) for small q
        q = mpf("1e-20")
        with workprec(600):
            got = rrcf_truncated(q, 10)
            assert abs(got / q ** (mpf(1) / 5) - (1 - q)) < 10 * q ** 2

    def test_depth_improves(self):
        # truncation error decays like q^(d(d+1)/2), so small depths show it
        q = mpf("0.3")
        with workprec(600):
            ref = rrcf_truncated(q, 100)
            errs = [abs(rrcf_truncated(q, d) - ref) for d in (3, 6, 10)]
        assert errs[0] > errs[1] > errs[2] > 0

    def test_frozen_value(self):
        with workprec(600):
            got = rrcf_truncated(nome(4, 1), 2000)
            assert abs(got - mpf(ov.R_E2PI)) < mpf(10) ** -138

    def test_domain(self):
        with pytest.raises(DomainError):
            rrcf_truncated("0.5", 0)
        with pytest.raises(DomainError):
            rrcf_truncated("0.5", 3.5)  # type: ignore[arg-type]
        with pytest.raises(DomainError):
            rrcf_truncated("0.5", 1 << 21)
        for q in (0, 1, "1.5"):
            with pytest.raises(DomainError):
                rrcf_truncated(q, 100)


class TestRRCFConverged:
    def test_agrees_with_radical(self):
        val, depth = rrcf_converged(nome(4, 1))
        deeper = rrcf_truncated(nome(4, 1), 2 * depth)
        with workprec(600):
            assert abs(val - deeper) < TOL
            assert abs(val - ov.r4_radical()) < mpf(10) ** -100

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize(
        "r", [Fraction(1, 10 ** 4), Fraction(1, 37), Fraction(1), Fraction(22, 7),
              Fraction(10 ** 3), Fraction(10 ** 6)]
    )
    def test_depth_is_minimal_and_converged(self, r, bits):
        # the depth is chosen a priori: at most two past the smallest d with
        # q^(d(d+1)/2) <= 2^-work_bits, and a far deeper truncation agrees
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        q = nome(r.numerator, r.denominator, ctx)
        val, depth = rrcf_converged(q, ctx)
        with workprec(ctx.work_bits + 64):
            log2_q = -mp.log(q, 2)
        d_min = 1
        while d_min * (d_min + 1) / 2 * log2_q < ctx.work_bits:
            d_min += 1
        assert depth <= d_min + 2
        deep = rrcf_truncated(q, 4 * depth + 50, ctx)
        with workprec(ctx.work_bits):
            assert abs(val - deep) < ctx.tolerance()

    def test_domain(self):
        for q in (0, 1, "1.5", "-0.2"):
            with pytest.raises(DomainError):
                rrcf_converged(q)
        with bk._request_memo():  # checked before the memo lookup too
            with pytest.raises(DomainError):
                rrcf_converged(1)

    def test_memo_scope_hands_back_the_first_value(self):
        q = nome(22, 7)
        with bk._request_memo():
            first = rrcf_converged(q)
            assert rrcf_converged(q) is first
        again = rrcf_converged(q)
        assert again is not first and again == first

    def test_q_too_close_to_one(self):
        # q^(d(d+1)/2) < 2^-576 needs a depth of about 2^55, past the cap
        with workprec(600):
            q = 1 - mpf(2) ** -100
        with pytest.raises(ConvergenceError):
            rrcf_converged(q)

    def test_disagreement_raises(self, monkeypatch):
        # a truncation that still moves between d and d + 2 is not returned
        import quintic_moduli.modular_core as mc

        monkeypatch.setattr(mc, "rrcf_truncated", lambda q, depth, ctx=None: mpf(depth))
        with pytest.raises(ConvergenceError):
            rrcf_converged(nome(1, 1))

    def test_deterministic(self):
        a = rrcf_converged(nome(1, 1))
        b = rrcf_converged(nome(1, 1))
        assert a == b


class TestRRCFClosed:
    """R at q = nome(r) through the certified a(r) and the closed form."""

    @pytest.mark.parametrize("rn", [1, 4, 5])
    def test_dual_route(self, rn):
        closed = closed_form_R(a_value(rn, 1).a)
        trunc, _ = rrcf_converged(nome(rn, 1))
        with workprec(600):
            assert abs(closed - trunc) < mpf(10) ** -100
        assert 0 < closed < 1

    def test_r4_radical(self):
        with workprec(600):
            assert abs(closed_form_R(a_value(4, 1).a) - ov.r4_radical()) < mpf(10) ** -100


class TestThetaForm:
    def test_matches_closed_form(self):
        a = a_value(1, 1).a
        y, R = theta_form(a)
        with workprec(600):
            assert abs(R - closed_form_R(a)) < mpf(10) ** -150
            # y really is arcsinh((11+a)/2)
            assert abs(mp.sinh(y) - (11 + a) / 2) < mpf(10) ** -150

    def test_monotone(self):
        _, r_small = theta_form(100)
        _, r_big = theta_form(10)
        assert r_small < r_big

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_form(-11)
        with pytest.raises(DomainError):
            theta_form(-12)

    @pytest.mark.parametrize("a", ["1e20", "1e43", "1e86"])
    def test_closed_form_keeps_precision_for_large_a(self, a):
        # -11 - a + sqrt(125 + 22a + a^2) cancels about log10(a^2) digits
        # unless it is rationalized
        _, R = theta_form(a)
        with workprec(600):
            assert abs(closed_form_R(a) / R - 1) < mpf(10) ** -140

    def test_closed_form_domain(self):
        for a in (-11, -12, "-1e30"):
            with pytest.raises(DomainError):
                closed_form_R(a)


class TestDescendV:
    def test_level_25_to_1(self):
        hi, _ = rrcf_converged(nome(25, 1))
        lo, _ = rrcf_converged(nome(1, 1))
        with workprec(600):
            assert abs(descend_v(hi) - lo) < TOL

    def test_level_100_to_4(self):
        hi, _ = rrcf_converged(nome(100, 1))
        with workprec(600):
            assert abs(descend_v(hi) - ov.r4_radical()) < mpf(10) ** -100

    def test_small_argument_expansion(self):
        # descend_v(v) ~ v^(1/5) as v -> 0
        v = mpf("1e-25")
        with workprec(600):
            got = descend_v(v)
            assert abs(got ** 5 / v - 1) < mpf("1e-20")

    def test_range(self):
        for s in ("0.05", "0.3", "0.6", "0.9"):
            assert 0 < descend_v(s) < 1

    def test_domain(self):
        for v in (0, 1, "1.2", "-0.3"):
            with pytest.raises(DomainError):
                descend_v(v)


class TestDescendA:
    def test_level_25_to_1(self):
        a25 = a_value(25, 1).a
        a1 = a_value(1, 1).a
        with workprec(600):
            assert abs(descend_a(a25) - a1) < TOL

    def test_consistent_with_v_route(self):
        # descending a directly must agree with descending the CF value and
        # rebuilding a = 1/v^5 - 11 - v^5 at the lower level
        a50 = a_value(50, 1).a
        v50, _ = rrcf_converged(nome(50, 1))
        with workprec(600):
            v2 = descend_v(v50)
            a2_via_v = 1 / v2 ** 5 - 11 - v2 ** 5
            assert abs(descend_a(a50) - a2_via_v) < mpf(10) ** -110

    def test_asymptotic_growth(self):
        # descend_a(x) ~ x^(1/5) with a slowly decaying relative correction
        with workprec(600):
            c6 = abs(descend_a(mpf(10) ** 6) / mpf(10) ** (mpf(6) / 5) - 1)
            c8 = abs(descend_a(mpf(10) ** 8) / mpf(10) ** (mpf(8) / 5) - 1)
        assert c6 < mpf("0.5")
        assert c8 < c6

    @pytest.mark.parametrize("a", ["1e-30", "1e-60", "1e-200"])
    def test_no_cancellation_near_zero(self, a):
        # the printed numerator -1 - E + E^2 cancels about |log10 a| digits
        # here; the reference evaluates it with 2048 bits to spare
        av = to_big(a)
        ref = ov.descend_a_printed(av, 2048)
        got = descend_a(av)
        with workprec(2048):
            assert abs(got - ref) <= abs(ref) * mpf(2) ** (8 - 512), a

    def test_domain(self):
        with pytest.raises(DomainError):
            descend_a(-11)

