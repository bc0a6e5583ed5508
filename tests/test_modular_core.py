import functools
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf, sqrt, workprec
from mpmath.libmp import from_man_exp

from quintic_moduli import (
    CertificationError,
    ConvergenceError,
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    a_value,
    a_via_eta,
    closed_form_R,
    descend_a,
    descend_v,
    eta_f,
    nome,
    rrcf_converged,
    rrcf_truncated,
    solve_singular_modulus,
    to_big,
)

import oracle_values as ov
import quintic_moduli.bigmath_kernel as bk
import quintic_moduli.certify as certify
import quintic_moduli.modular_core as mc

TOL = mpf(10) ** -120


#: the bits of eq11's products and quotients at the default context
_EQ11_BITS = DEFAULT_CONTEXT.work_bits + bk._GATE_INT_BITS


def _m5_float(rn, rd):
    """m5 = K(k_25r)/K(k_r) at the default context as eq11 forms it: the
    quotient of the two solves' K as a _Float of about _EQ11_BITS bits."""
    lo, hi = (solve_singular_modulus(m * rn, rd) for m in (1, 25))
    return bk._quo(*bk._floats(hi.K_k, lo.K_k), _EQ11_BITS)


def _m5(rn, rd):
    """eq11's m5 as an mpf, exact."""
    return mp.make_mpf(from_man_exp(*_m5_float(rn, rd)))


class TestMultiplier:
    def test_r1_radical(self):
        # the K-ratio at r=1 has the closed form (2+sqrt5)/5 (verified to
        # 3e-309 at 1024 bits); note it is a double root of the degree-6
        # polynomial, so root-polishing there is hopeless by design
        with workprec(600):
            assert abs(_m5(1, 1) - ov.m5_1_radical()) < TOL

    @pytest.mark.parametrize("rn,rd", [(1, 1), (3, 2), (5, 1)])
    def test_poly_residual(self, rn, rd):
        rec = solve_singular_modulus(rn, rd)
        s = bk._mul(*bk._floats(rec.k, rec.k_comp), _EQ11_BITS)
        residual, _ = certify._m5_relation(s, _m5_float(rn, rd), _EQ11_BITS)
        assert abs(mp.make_mpf(from_man_exp(*residual))) < TOL
        assert mpf(1) / 5 < _m5(rn, rd) < 1

    def test_defines_K_ratio(self):
        lo = solve_singular_modulus(3, 2)
        hi = solve_singular_modulus(75, 2)
        with workprec(600):
            assert abs(_m5(3, 2) * lo.K_k - hi.K_k) < TOL

    def test_reciprocal_point(self):
        # m5(1/5) = 1/sqrt5 (verified to 1e-308 at 1024 bits)
        with workprec(600):
            assert abs(_m5(1, 5) - 1 / sqrt(mpf(5))) < TOL


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

    @pytest.mark.parametrize("rn,rd", [(0, 1), (-1, 100), (1, 0)])
    def test_a_via_eta_names_the_r_it_refuses(self, rn, rd):
        # r is checked before the reflection moves it to 16/(25r)
        with pytest.raises(DomainError, match=r"^r must be positive: got %d/%d$" % (rn, rd)):
            a_via_eta(rn, rd)


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


#: q = nome(r) from near 1 (r = 1/250000) to about 2^-4532 (r = 10^6)
CF_RS = [Fraction(1, 10 ** 4), Fraction(1, 37), Fraction(1), Fraction(22, 7),
         Fraction(10 ** 3), Fraction(10 ** 6), Fraction(1, 250000)]


class TestRRCFConverged:
    def test_agrees_with_radical(self):
        val, depth = rrcf_converged(nome(4, 1))
        deeper = rrcf_truncated(nome(4, 1), 2 * depth)
        with workprec(600):
            assert abs(val - deeper) < TOL
            assert abs(val - ov.r4_radical()) < mpf(10) ** -100

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("r", CF_RS)
    def test_depth_is_minimal_and_converged(self, r, bits):
        # the depth is chosen a priori: two past the smallest d with
        # q^(d(d+1)/2) <= 2^-work_bits.  The value is the depth-D convergent
        # of the backward oracle within an ulp, and the convergent at
        # 4D + 50 lies between those at D - 1 and D and agrees with it; the
        # oracle's roundoff is held to 2^-(work_bits + 48)
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        q = nome(r.numerator, r.denominator, ctx)
        val, depth = rrcf_converged(q, ctx)
        hi = ctx.work_bits + 64
        with workprec(hi):
            log2_q = -mp.log(q, 2)
        d_min = 1
        while d_min * (d_min + 1) / 2 * log2_q < ctx.work_bits:
            d_min += 1
        assert depth == d_min + 2
        end, before, deep = (ov.rrcf_backward(q, d, hi) for d in (depth, depth - 1, 4 * depth + 50))
        with workprec(hi):
            assert abs(val - end) <= end * mpf(2) ** (1 - bits)
            slack = deep * mpf(2) ** (16 - hi)
            assert min(end, before) - slack <= deep <= max(end, before) + slack
            assert abs(val - deep) < ov.tolerance(ctx)

    @pytest.mark.parametrize("t", [4e19, math.inf])
    def test_depth_keeps_d_at_a_tiny_need(self, t):
        # x = need / t lies below the float epsilon, or is 0: d = 1 is the
        # smallest d with d(d+1)/2 t >= need, and the depth is two past it.
        # (sqrt(1 + 8x) - 1)/2 would cancel to 0 and give depth 2
        assert mc._rrcf_depth(t, 576) == 3

    def test_rrcf_value_reports_that_depth(self):
        # below 1/25 rrcf sums at 16/r: at r = 1/10^37, t = pi sqrt(16/r)
        # is about 4e19
        assert mc.rrcf_value(1, 10 ** 37).depth == 3

    def test_domain(self):
        for q in (0, 1, "1.5", "-0.2"):
            with pytest.raises(DomainError):
                rrcf_converged(q)
        with bk._request_memo():  # the lookup checks its point first too
            with pytest.raises(DomainError):
                mc._rrcf_at(0, 1, DEFAULT_CONTEXT)

    def test_memo_scope_hands_back_the_first_value(self):
        with bk._request_memo():
            first = mc._rrcf_at(22, 7, DEFAULT_CONTEXT)
            assert mc._rrcf_at(44, 14, DEFAULT_CONTEXT) is first
            # the public function computes afresh, to the same value and depth
            direct = rrcf_converged(nome(22, 7))
            assert direct is not first and direct == first
        again = mc._rrcf_at(22, 7, DEFAULT_CONTEXT)
        assert again is not first and again == first

    def test_q_too_close_to_one(self):
        # q^(d(d+1)/2) < 2^-576 needs a depth of about 2^55, past the cap
        with workprec(600):
            q = 1 - mpf(2) ** -100
        with pytest.raises(ConvergenceError):
            rrcf_converged(q)

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("r", CF_RS)
    def test_bracket_bound_is_never_below_the_exact_bracket(self, r, bits):
        # 2^k, from q's exponent and the bit lengths of the integer B_d and
        # B_(d-1), lies above q^(d(d+1)/2) / (B_d B_(d-1)) computed in mpf
        # at twice work_bits, and by less than four bits
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        q = to_big(nome(r.numerator, r.denominator, ctx), ctx)
        t = bk._neg_ln(q)
        depth = mc._rrcf_depth(t, ctx.work_bits)
        assert depth == rrcf_converged(q, ctx)[1]
        _, b, b_prev, frac = mc._rrcf_forward(q, depth, ctx)
        bound = mpf(2) ** mc._bracket_exp(q, t, depth, b, b_prev, frac)
        exact = ov.cf_bracket(q, depth, 2 * ctx.work_bits)
        with workprec(2 * ctx.work_bits):
            assert exact <= bound < 16 * exact

    def test_disagreement_raises(self, monkeypatch):
        # held three levels deep at q = e^-pi, the last two convergents
        # still differ by q^6 / (B_3 B_2), far above the gate: 2^k lies
        # within a few bits above their real distance and misses the gate,
        # so the value is not returned
        ctx = DEFAULT_CONTEXT
        q = to_big(nome(1, 1), ctx)
        t = bk._neg_ln(q)
        _, b, b_prev, frac = mc._rrcf_forward(q, 3, ctx)
        bound = mpf(2) ** mc._bracket_exp(q, t, 3, b, b_prev, frac)
        assert not ctx.verdict(ov.pair(bound), (1, 0))[1]
        hi = ctx.work_bits + 64
        with workprec(hi):
            r3, r2 = (ov.rrcf_backward(q, d, hi) for d in (3, 2))
            q5 = mp.root(q, 5)
            assert bound / 16 < abs(q5 / r3 - q5 / r2) <= bound
            assert abs(rrcf_truncated(q, 3, ctx) - r3) <= r3 * mpf(2) ** -ctx.precision_bits
        monkeypatch.setattr(mc, "_rrcf_depth", lambda t, work_bits: 3)
        with pytest.raises(ConvergenceError):
            rrcf_converged(q)

    def test_deterministic(self):
        a = rrcf_converged(nome(1, 1))
        b = rrcf_converged(nome(1, 1))
        assert a == b


class TestNomeBelowTheFloatRange:
    """q = nome(10^1000), near 2^-(4.5 10^500): -ln q is past the float
    range, so _neg_ln reads inf, and each q series is its first term."""

    @pytest.mark.parametrize("bits", [512, 1024])
    def test_q_series_are_their_first_terms(self, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        q = nome(10 ** 1000, 1, ctx)
        assert bk._neg_ln(q) == math.inf
        assert eta_f(q, ctx) == 1
        val, depth = rrcf_converged(q, ctx)
        # d = 1 already meets the need, and the depth is two past it
        assert depth == 3
        assert rrcf_truncated(q, depth, ctx) == rrcf_truncated(q, 1, ctx) == val
        with workprec(ctx.work_bits):
            assert abs(val / mp.root(q, 5) - 1) < mpf(2) ** (1 - bits)


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
    """closed_form_R against the log-sinh (theta) form of the same value,
    R = exp(-y/5) with y = arcsinh((11 + a)/2), spelled here as the oracle."""

    @staticmethod
    def _theta_R(a):
        with workprec(700):
            return mp.exp(-mp.asinh((11 + mpf(a)) / 2) / 5)

    def test_matches_closed_form(self):
        a = a_value(1, 1).a
        R = closed_form_R(a)
        with workprec(600):
            assert abs(R - self._theta_R(a)) < mpf(10) ** -150
            # R^-5 - R^5 = 2 sinh(y) = 11 + a
            assert abs(R ** -5 - R ** 5 - (11 + a)) < mpf(10) ** -150

    def test_monotone(self):
        assert closed_form_R(100) < closed_form_R(10)

    def test_domain(self):
        # at the edge a -> -11 from above, h -> 0 and R -> 1 from below
        a = "-10.9999999999"
        R = closed_form_R(a)
        assert 0 < R < 1
        with workprec(600):
            assert abs(R - self._theta_R(a)) < mpf(10) ** -150

    @pytest.mark.parametrize("a", ["1e20", "1e43", "1e86"])
    def test_closed_form_keeps_precision_for_large_a(self, a):
        # -11 - a + sqrt(125 + 22a + a^2) cancels about log10(a^2) digits
        # unless it is rationalized
        with workprec(600):
            assert abs(closed_form_R(a) / self._theta_R(a) - 1) < mpf(10) ** -140

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

    @pytest.mark.parametrize("a", ["1", "7", "1e6", "1e40"])
    def test_printed_form_at_large_a(self, a):
        # away from a = 0 the printed form does not cancel, so at 4096 bits
        # it checks the Horner evaluation of the quartic and the
        # denominator as written
        ctx = PrecisionContext(precision_bits=4096, tol_exp=ov.TOL_EXP[4096])
        av = to_big(a, ctx)
        ref = ov.descend_a_printed(av, ctx.work_bits + 64)
        got = descend_a(av, ctx)
        with workprec(ctx.work_bits + 64):
            assert abs(got - ref) <= abs(ref) * mpf(2) ** (8 - 4096), a

    def test_domain(self):
        with pytest.raises(DomainError):
            descend_a(-11)


#: a in (-11, 0) and from 1e-300 to 10^(10^9): E near 1, near the golden
#: ratio (where a must keep its own exponent), large and huge
DESCENT_AS = ["-10.999", "-5", "-1", "1e-300", "1e-100", "1e-20", "1e-3", "0.5", "1", "7",
              "17.5", "1000", "5e13", "1e20", "1e100", "1e300", "1e1000000000"]


class TestDescentOnIntegers:
    """descend_a and closed_form_R on integers give the bits of their mpf
    spellings in oracle_values, both rounded to precision_bits."""

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_descend_a_is_the_horner_spelling_rounded(self, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        for a in DESCENT_AS:
            av = to_big(a, ctx)
            ref = ov.descend_a_horner(av, ctx.work_bits)
            with workprec(bits):
                assert descend_a(av, ctx)._mpf_ == (+ref)._mpf_, a

    @pytest.mark.parametrize("a", ["1e1364", "1e-1364"])
    def test_descend_a_at_huge_and_tiny_a(self, a):
        # a(10^6) is about 1e1364, where the denominator is about a^(9/5);
        # its bounded-width mantissas keep the quotient within an ulp
        ctx = PrecisionContext(precision_bits=4096, tol_exp=ov.TOL_EXP[4096])
        av = to_big(a, ctx)
        got = descend_a(av, ctx)
        ref = ov.descend_a_horner(av, ctx.work_bits + 64)
        with workprec(ctx.work_bits + 64):
            assert abs(got - ref) <= abs(got) * mpf(2) ** (1 - ctx.precision_bits), a

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_closed_form_R_is_the_mpf_spelling_rounded(self, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        for a in DESCENT_AS:
            av = to_big(a, ctx)
            with workprec(ctx.work_bits):
                ref = 1 / ov.fifth_root_radical_mpf(av, ctx.work_bits)
            with workprec(bits):
                assert closed_form_R(av, ctx)._mpf_ == (+ref)._mpf_, a

    @pytest.mark.parametrize("bits", [256, 512, 1024, 2048, 4096])
    def test_huge_a_cut_gives_the_same_rounded_values(self, bits, monkeypatch):
        # past a = 2^64 the radical cuts 2h to work_bits + 96 bits; the
        # rounded descent and closed form keep the bits of the radical that
        # carried every integer bit of a
        ctx = PrecisionContext(precision_bits=bits, tol_exp=10)
        avs = [to_big(a, ctx) for a in ("7", "1e100", "1e1364", "1e-1364")]
        got = [(descend_a(av, ctx), closed_form_R(av, ctx)) for av in avs]
        monkeypatch.setattr(mc, "_fifth_root_radical", ov.fifth_root_radical_uncut)
        want = [(descend_a(av, ctx), closed_form_R(av, ctx)) for av in avs]
        assert [(d._mpf_, c._mpf_) for d, c in got] == [(d._mpf_, c._mpf_) for d, c in want]

    @pytest.mark.parametrize("bits", [256, 4096])
    def test_huge_a_builds_no_wide_integer(self, bits, traced_peak):
        # at a = 10^(10^9) E is a mantissa of about work_bits + 45 bits and
        # an exponent; E in fixed point, shifted by log2(a)/5 bits, took
        # 180-350 MB and up to a second at this a
        ctx = PrecisionContext(precision_bits=bits, tol_exp=10)
        av = to_big("1e1000000000", ctx)
        for fn in (descend_a, closed_form_R):
            _, peak = traced_peak(fn, av, ctx)
            assert peak < 4 << 20, (fn.__name__, peak)

    @pytest.mark.parametrize("bits", [64, 250, 251, 1000, 20000])
    def test_root5_is_within_a_few_units(self, bits):
        # from the float seed alone and through every doubling level
        for n in (1 << bits, (1 << bits) - 1, 3 ** (bits * 100 // 158), 7 ** 5 << 5 * (bits // 5)):
            x = mc._root5(n)
            assert (x - 3) ** 5 <= n < (x + 4) ** 5, n


    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_descend_v_is_within_an_ulp_of_the_mpf_spelling(self, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        for v in ("1e-300", "1e-25", "0.001", "0.4", "0.61803", "0.9", "0.999999"):
            vv = to_big(v, ctx)
            got = descend_v(vv, ctx)
            with workprec(2 * bits + 64):
                num = 1 - 2 * vv + 4 * vv ** 2 - 3 * vv ** 3 + vv ** 4
                den = 1 + 3 * vv + 4 * vv ** 2 + 2 * vv ** 3 + vv ** 4
                ref = mp.root(vv * num / den, 5)
                assert abs(got - ref) <= ref * mpf(2) ** -bits, v

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_fifth_root_is_within_a_few_units(self, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        # the continued fraction's q^(1/5): _root5_of on q's mantissa
        for x in ("1e-1364", "3e-7", "0.5", "0.999", "1", "7e300"):
            _, man, exp, _ = to_big(x, ctx)._mpf_
            with workprec(2 * bits + 64):
                got = mpf(mc._root5_of(man, exp, ctx.work_bits + bk._INT_BITS))
                ref = mp.root(mpf((man, exp)), 5)
                assert abs(got - ref) <= ref * mpf(2) ** (2 - ctx.work_bits), x


#: r points below the reflection crossover, the last just below it
REFLECTED_RS = [(1, 10 ** 4), (1, 2500), (1, 100), (1, 26)]


@functools.lru_cache(maxsize=None)
def _direct(rn, rd, bits):
    """f(-q), R and a at r, and each at its reflected point, summed at their
    own nomes by the public q-series functions at 2 bits + 64: the
    references the reflected routes are held to.  a is the quotient
    f(-q)^6 / (q f(-q^5)^6) of two such sums, not a_via_eta, which is the
    reflected route itself."""
    hi = PrecisionContext(precision_bits=2 * bits + 64, tol_exp=ov.TOL_EXP[bits])
    eta = lambda n, d: eta_f(nome(n, d, hi), hi)
    cf = lambda n, d: rrcf_converged(nome(n, d, hi), hi)[0]

    def a(n, d):
        with workprec(hi.work_bits):
            return eta(n, d) ** 6 / (nome(n, d, hi) * eta(25 * n, d) ** 6)

    return {
        "eta": (eta(rn, rd), eta(16 * rd, rn)),
        "rrcf": (cf(rn, rd), cf(16 * rd, rn)),
        "a": (a(rn, rd), a(16 * rd, 25 * rn)),
        "bits": hi.work_bits,
    }



class TestReflectedLookups:
    """Below _REFLECT_BELOW the eta, continued-fraction and eta-quotient
    lookups read the value at the reflected point, whose nome lies near 0
    (Dedekind, Ramanujan's reciprocity, the Fricke involution)."""

    LOOKUPS = {
        "eta": bk._eta_at,
        "rrcf": lambda n, d, ctx: mc._rrcf_at(n, d, ctx)[0],  # (value, depth)
        "a": mc._a_eta_at,
    }

    @staticmethod
    def _ulps(value, ref, bits, wide):
        with workprec(wide):
            return abs(value - ref) / abs(ref) * mpf(2) ** bits

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("rn,rd", REFLECTED_RS)
    def test_lookup_is_within_8_ulps_of_the_direct_route(self, rn, rd, bits):
        assert bk._reflects(rn, rd)
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        ref = _direct(rn, rd, bits)
        for kind, lookup in self.LOOKUPS.items():
            got = lookup(rn, rd, ctx)
            assert self._ulps(got, ref[kind][0], bits, ref["bits"]) <= 8, kind

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("rn,rd", REFLECTED_RS)
    def test_public_a_via_eta_is_within_8_ulps(self, rn, rd, bits):
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        ref = _direct(rn, rd, bits)
        assert self._ulps(a_via_eta(rn, rd, ctx), ref["a"][0], bits, ref["bits"]) <= 8

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("rn,rd", REFLECTED_RS[:2])
    def test_direct_route_at_the_same_bits_misses_for_eta(self, rn, rd, bits):
        # the nome is rounded to precision_bits before the sum, and f(-q)
        # near q = 1 amplifies that rounding by pi^2 / (6 ln^2 q): at
        # r = 1/10^4 and 512 bits eta is about 500 ulps off.  The continued
        # fraction does not amplify it and stays within 8
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        ref = _direct(rn, rd, bits)
        q = nome(rn, rd, ctx)
        direct = {"eta": eta_f(q, ctx), "rrcf": rrcf_converged(q, ctx)[0]}
        ulps = {k: self._ulps(v, ref[k][0], bits, ref["bits"]) for k, v in direct.items()}
        assert ulps["eta"] > 8 and ulps["rrcf"] <= 8, ulps

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("rn,rd", REFLECTED_RS)
    def test_reflection_identities(self, rn, rd, bits):
        ref = _direct(rn, rd, bits)
        (eta, eta_far), (cf, cf_far), (a, a_far) = ref["eta"], ref["rrcf"], ref["a"]
        with workprec(ref["bits"]):
            r = mpf(rn) / rd
            dedekind = mp.exp(mp.pi * (r - 4) / (24 * sqrt(r))) * eta_far / sqrt(sqrt(r) / 2)
            phi = (1 + sqrt(5)) / 2
            gap = mpf(2) ** -bits
            assert abs(dedekind / eta - 1) < gap
            assert abs((phi + cf) * (phi + cf_far) / (phi * sqrt(5)) - 1) < gap
            assert abs(a * a_far / 125 - 1) < gap

    def test_reflected_points_do_not_reflect_again(self):
        # 16/r and 16/(25r) lie above 4/5 for every r below the crossover
        assert bk._REFLECT_BELOW <= Fraction(4, 5)
        assert not bk._reflects(16 * 26, 1) and not bk._reflects(16 * 26, 25)

    def test_a_via_eta_reflects_and_q_functions_sum_at_their_q(self, monkeypatch):
        # a_via_eta takes r: at r = 1/100 it sums eta only at the nomes of
        # 16/(25r) = 64 and 25 * 64.  eta_f and rrcf_converged take q: they
        # size their sums by -ln q of the q given and form no nome
        q = nome(1, 100)
        etas, logs, nomes = [], [], []
        series, neg_ln, exp_nome = bk.eta_f, bk._neg_ln, bk._exp_nome
        monkeypatch.setattr(bk, "eta_f", lambda x, c: etas.append(x) or series(x, c))
        a_via_eta(1, 100)
        assert sorted(etas) == sorted([nome(64), nome(1600)])
        monkeypatch.setattr(bk, "_exp_nome", lambda *args: nomes.append(args) or exp_nome(*args))
        for module in (bk, mc):
            monkeypatch.setattr(module, "_neg_ln", lambda x: logs.append(x) or neg_ln(x))
        eta_f(q)
        rrcf_converged(q)
        assert logs == [q, q] and not nomes
