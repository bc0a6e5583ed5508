import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, quad, sqrt, workprec

from quintic_moduli import (
    BranchError,
    CertificationError,
    ConvergenceError,
    DomainError,
    DEFAULT_CONTEXT,
    PrecisionContext,
    agm,
    complement,
    elliptic_K,
    eta_f,
    nome,
    solve_singular_modulus,
    to_big,
)

import oracle_values as ov
import quintic_moduli.bigmath_kernel as bk

TOL = mpf(10) ** -120

#: r well below 1: k_r lies within 1e-37 of 1, so only k'_r carries its digits
DEEP_RECIPROCALS = [(1, 800), (1, 2500), (1, 10000)]


def _ctx_at(bits):
    return PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])


def _ellipk_residual(rec, bits):
    """|K(k')/K(k) - sqrt(r)| through mpmath's ellipk at twice ``bits``."""
    ratio = ov.k_ratio_ellipk(rec.k, rec.k_comp, 2 * bits)
    with workprec(2 * bits):
        return abs(ratio - sqrt(mpf(rec.r_num) / rec.r_den))


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.precision_bits == 512
        assert ctx.tol_exp == 120
        assert ctx.work_bits == 576

    def test_tolerance_value(self):
        ctx = PrecisionContext()
        with workprec(600):
            assert abs(ctx.tolerance() - mpf(10) ** -120) < mpf(10) ** -290

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            PrecisionContext(precision_bits=32)

    def test_rejects_unrepresentable_tolerance(self):
        # 10^-200 needs ~664 bits plus guard; 512 cannot certify it
        with pytest.raises(ValueError):
            PrecisionContext(precision_bits=512, tol_exp=200)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PrecisionContext(tol_exp=0)
        with pytest.raises(ValueError):
            PrecisionContext(guard_bits=-1)
        with pytest.raises(ValueError):
            PrecisionContext(max_iter=0)


class TestAgm:
    def test_equal_arguments_fixed_point(self):
        assert agm(1, 1) == 1
        x = to_big("0.3217")
        assert abs(agm(x, x) - x) < TOL

    def test_symmetry(self):
        assert agm("0.25", "0.75") == agm("0.75", "0.25")

    def test_against_quadrature_K(self):
        # pi/(2 agm(1, 1/sqrt2)) is K(1/sqrt2); compare with the frozen
        # quadrature value
        with workprec(600):
            got = mp.pi / (2 * agm(1, 1 / sqrt(mpf(2))))
            assert abs(got - mpf(ov.K_SQRT_HALF)) < mpf(10) ** -150

    def test_domain(self):
        with pytest.raises(DomainError):
            agm(0, 1)
        with pytest.raises(DomainError):
            agm(1, -2)


class TestComplement:
    def test_pythagorean(self):
        k = to_big("0.1188769458")
        with workprec(600):
            assert abs(k ** 2 + complement(k) ** 2 - 1) < mpf(10) ** -150

    def test_near_one_keeps_precision(self):
        # k' of a modulus extremely close to 0 must stay exactly 1-ish
        # without the (1-k)(1+k) product collapsing
        k = to_big("1e-100")
        with workprec(600):
            assert abs(complement(k) - (1 - mpf(10) ** -200 / 2)) < mpf(10) ** -250

    def test_endpoints(self):
        assert complement(0) == 1
        assert complement(1) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            complement("1.0000001")
        with pytest.raises(DomainError):
            complement("-0.5")


class TestEllipticK:
    def test_K_zero(self):
        with workprec(600):
            assert abs(elliptic_K(0) - mp.pi / 2) < mpf(10) ** -150

    def test_frozen_quadrature_value(self):
        with workprec(600):
            got = elliptic_K(1 / sqrt(mpf(2)))
            assert abs(got - mpf(ov.K_SQRT_HALF)) < mpf(10) ** -150

    def test_live_quadrature(self):
        # independent oracle: K(m) = int_0^1 dx / sqrt((1-x^2)(1-m^2 x^2))
        m = mpf("0.3718")
        with workprec(200):
            oracle = quad(
                lambda x: 1 / sqrt((1 - x ** 2) * (1 - m ** 2 * x ** 2)), [0, 1]
            )
            # tanh-sinh loses some digits to the endpoint singularity
            assert abs(elliptic_K(m) - oracle) < mpf(10) ** -25

    def test_monotone(self):
        assert elliptic_K("0.2") < elliptic_K("0.5") < elliptic_K("0.9")

    def test_domain(self):
        for bad in (1, 2, -1):
            with pytest.raises(DomainError):
                elliptic_K(bad)


class TestNome:
    def test_value(self):
        with workprec(600):
            assert abs(nome(1, 1) - mp.exp(-mp.pi)) < mpf(10) ** -150
            assert abs(nome(1, 1) - mpf(ov.E_MINUS_PI)) < mpf(10) ** -60

    def test_square_relation(self):
        # q(4) = q(1)^2 up to final rounding of each side
        with workprec(600):
            ulp = mpf(2) ** -500
            assert abs(nome(4, 1) - nome(1, 1) ** 2) < ulp
            assert abs(nome(1, 4) - sqrt(nome(1, 1))) < ulp

    @pytest.mark.parametrize("rn,rd", [(1, 1), (5, 1), (22, 7), (1, 50), (3, 7)])
    def test_record_carries_the_same_nome(self, rn, rd):
        assert solve_singular_modulus(rn, rd).q == nome(rn, rd)

    def test_domain(self):
        with pytest.raises(DomainError):
            nome(0, 1)
        with pytest.raises(DomainError):
            nome(-3, 1)
        with pytest.raises(DomainError):
            nome(1, 0)
        with pytest.raises(DomainError):
            nome(1.5, 2)  # type: ignore[arg-type]


class TestSolver:
    def test_r1_is_sqrt_half(self):
        rec = solve_singular_modulus(1, 1)
        with workprec(600):
            assert abs(rec.k - 1 / sqrt(mpf(2))) < TOL

    def test_example_radicals(self):
        with workprec(600):
            assert abs(solve_singular_modulus(5, 1).k - ov.k5_radical()) < TOL
            assert abs(solve_singular_modulus(1, 5).k - ov.k_fifth_radical()) < TOL
            assert abs(solve_singular_modulus(25, 1).k - ov.k25_radical()) < TOL

    def test_frozen_strings(self):
        with workprec(600):
            assert abs(solve_singular_modulus(5, 1).k - mpf(ov.K5)) < mpf(10) ** -138
            assert abs(solve_singular_modulus(1, 5).k - mpf(ov.K_FIFTH)) < mpf(10) ** -138
            assert abs(solve_singular_modulus(25, 1).k - mpf(ov.K25)) < mpf(10) ** -138

    @pytest.mark.parametrize(
        "rn,rd,bits",
        [(2, 1, 512), (7, 1, 512), (10, 3, 512)]
        + [(rn, rd, bits) for bits in (512, 4096) for rn, rd in DEEP_RECIPROCALS],
    )
    def test_ellipk_ratio_oracle(self, rn, rd, bits):
        # mpmath's ellipk shares no code with the solver's theta/agm route
        ctx = _ctx_at(bits)
        rec = solve_singular_modulus(rn, rd, ctx)
        assert _ellipk_residual(rec, bits) < ctx.tolerance()

    def test_record_invariants(self):
        rec = solve_singular_modulus(3, 2)
        assert 0 < rec.k < 1
        assert rec.residual < TOL
        with workprec(600):
            assert abs(rec.k ** 2 + rec.k_comp ** 2 - 1) < mpf(10) ** -150
            # K(k')/K(k) must reproduce sqrt(r)
            assert abs(rec.K_kcomp / rec.K_k - sqrt(mpf(3) / 2)) < mpf(10) ** -150
        for bits in (512, 4096):
            ctx = _ctx_at(bits)
            for rn, rd in DEEP_RECIPROCALS:
                rec = solve_singular_modulus(rn, rd, ctx)
                assert 0 < rec.k_comp < rec.k < 1
                assert rec.residual < ctx.tolerance()
                with workprec(2 * bits):
                    ratio = rec.K_kcomp / rec.K_k
                    assert abs(ratio - sqrt(mpf(rn) / rd)) < ctx.tolerance()

    def test_reciprocal_symmetry(self):
        # k'_r = k_(1/r), relative to the size of k'_r (it is tiny for small r)
        cases = [(rn, rd, 512) for rn, rd in [(5, 1), (3, 2), (7, 1)]]
        cases += [(rn, rd, bits) for bits in (512, 4096) for rn, rd in DEEP_RECIPROCALS]
        for rn, rd, bits in cases:
            ctx = _ctx_at(bits)
            rec = solve_singular_modulus(rn, rd, ctx)
            inv = solve_singular_modulus(rd, rn, ctx)
            with workprec(2 * bits):
                assert abs(inv.k - rec.k_comp) <= rec.k_comp * ctx.tolerance()

    def test_monotone_decreasing_in_r(self):
        ks = [solve_singular_modulus(n, d).k for n, d in [(1, 1), (3, 2), (2, 1), (5, 1), (7, 1)]]
        assert all(a > b for a, b in zip(ks, ks[1:]))

    def test_branch_above_one(self):
        # r < 1 means k > 1/sqrt2
        rec = solve_singular_modulus(1, 25)
        with workprec(600):
            assert rec.k > 1 / sqrt(mpf(2))

    def test_deep_modulus(self):
        t0 = time.perf_counter()
        rec = solve_singular_modulus(78125, 1)
        assert time.perf_counter() - t0 < 5
        assert rec.residual < TOL
        with workprec(600):
            assert mpf("8.4e-191") < rec.k < mpf("8.5e-191")

    def test_deterministic(self):
        a = solve_singular_modulus(5, 1)
        b = solve_singular_modulus(5, 1)
        assert a.k == b.k
        assert a.residual == b.residual
        assert a.K_k == b.K_k

    def test_domain(self):
        for rn, rd in [(0, 1), (-5, 1), (5, 0), (5, -1)]:
            with pytest.raises(DomainError):
                solve_singular_modulus(rn, rd)
        with pytest.raises(DomainError):
            solve_singular_modulus(2.5, 1)  # type: ignore[arg-type]

    def test_custom_context(self):
        ctx = PrecisionContext(precision_bits=256, tol_exp=55)
        rec = solve_singular_modulus(5, 1, ctx)
        with workprec(300):
            assert abs(rec.k - ov.k5_radical()) < mpf(10) ** -55


class TestKRoundsToOne:
    """Below some r the reflected k = sqrt(1 - k'^2) rounds to exactly 1 at
    the output precision; the solver refuses rather than return it."""

    @pytest.mark.parametrize("rn,rd,bits", [(1, 3400, 256), (1, 13000, 512)])
    def test_refused(self, rn, rd, bits):
        with pytest.raises(DomainError, match=r"rounds to 1.*k_comp.*--prec"):
            solve_singular_modulus(rn, rd, _ctx_at(bits))

    @pytest.mark.parametrize("rn,rd,bits", [(1, 3000, 256), (1, 12000, 512)])
    def test_just_above_still_certifies(self, rn, rd, bits):
        ctx = _ctx_at(bits)
        rec = solve_singular_modulus(rn, rd, ctx)
        assert 0 < rec.k_comp < rec.k < 1
        assert _ellipk_residual(rec, bits) < ctx.tolerance()


class TestSolverDomain:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        r=st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 6, max_denominator=10 ** 4),
        bits=st.sampled_from(sorted(ov.TOL_EXP)),
    )
    @example(r=Fraction(10 ** 6), bits=256)
    @example(r=Fraction(10 ** 6), bits=4096)
    def test_certified_or_typed_error(self, r, bits):
        ctx = _ctx_at(bits)
        try:
            rec = solve_singular_modulus(r.numerator, r.denominator, ctx)
        except (DomainError, ConvergenceError, BranchError, CertificationError):
            return
        assert _ellipk_residual(rec, bits) < ctx.tolerance()


class TestEtaF:
    def test_pentagonal_leading_terms(self):
        # f(-q) = 1 - q - q^2 + q^5 + q^7 - ...
        q = mpf("1e-30")
        with workprec(600):
            assert abs(eta_f(q) - (1 - q - q ** 2)) < mpf(10) ** -149

    def test_eta8_identity_r1(self):
        # f(-q)^8 against 2^(8/3) pi^-4 q^(-1/3) k^(2/3) k'^(8/3) K^4 at r=1
        rec = solve_singular_modulus(1, 1)
        with workprec(600):
            lhs = eta_f(rec.q) ** 8
            rhs = (
                mpf(2) ** (mpf(8) / 3)
                / mp.pi ** 4
                * rec.q ** (-mpf(1) / 3)
                * rec.k ** (mpf(2) / 3)
                * rec.k_comp ** (mpf(8) / 3)
                * rec.K_k ** 4
            )
            assert abs(lhs - rhs) < TOL

    def test_eta2_identity_r1(self):
        rec = solve_singular_modulus(1, 1)
        with workprec(600):
            lhs = eta_f(rec.q ** 2) ** 6
            rhs = 2 * rec.k * rec.k_comp * rec.K_k ** 3 / (mp.pi ** 3 * sqrt(rec.q))
            assert abs(lhs - rhs) < TOL

    @pytest.mark.parametrize("bits", [512, 1024, 4096])
    @pytest.mark.parametrize(
        "r", [Fraction(1, 2500), Fraction(1, 100), Fraction(1), Fraction(5), Fraction(10 ** 4)]
    )
    def test_matches_euler_product(self, r, bits):
        # the series against the product, at q = nome(r)^j.  With only 8
        # guard bits the cancellation near q = 1 (about 38 bits at the
        # q of r = 1/2500) would show unless the series adds that much
        # precision of its own.
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits], guard_bits=8)
        q = nome(r.numerator, r.denominator, ctx)
        for j in (1, 2, 5, 10):
            with workprec(ctx.work_bits):
                qj = q ** j
            ref = ov.eta_product(qj, ctx.work_bits + 64)
            got = eta_f(qj, ctx)
            with workprec(ctx.work_bits + 64):
                assert abs(got - ref) <= abs(ref) * mpf(2) ** (1 - bits), (j, got, ref)

    def test_domain(self):
        for bad in (0, 1, "1.5", -0.25):
            with pytest.raises(DomainError):
                eta_f(bad)

    def test_q_too_close_to_one(self):
        with workprec(600):
            q = 1 - mpf(2) ** -100
        with pytest.raises(ConvergenceError):
            eta_f(q)

    def test_deterministic(self):
        assert eta_f("0.25") == eta_f("0.25")


class TestRequestMemo:
    def test_scope_hands_back_the_first_value(self):
        with bk._request_memo():
            rec = solve_singular_modulus(7, 3)
            assert solve_singular_modulus(7, 3) is rec
            assert solve_singular_modulus(7, 3, DEFAULT_CONTEXT) is rec
            assert eta_f(rec.q) is eta_f(rec.q)
            assert nome(7, 3) is nome(7, 3, DEFAULT_CONTEXT)
        # outside a scope every call computes afresh, to the same value
        again = solve_singular_modulus(7, 3)
        assert again is not rec and again == rec

    def test_keyed_on_context(self, ctx1024):
        with bk._request_memo():
            rec = solve_singular_modulus(7, 3)
            assert solve_singular_modulus(7, 3, ctx1024).k != rec.k
            assert solve_singular_modulus(3, 7) is not rec

    def test_error_is_not_stored(self, monkeypatch):
        def breakdown(*a):
            raise ConvergenceError("stubbed AGM breakdown")

        with bk._request_memo():
            monkeypatch.setattr(bk, "_agm_raw", breakdown)
            with pytest.raises(ConvergenceError):
                solve_singular_modulus(7, 3)
            monkeypatch.undo()
            assert solve_singular_modulus(7, 3).residual < TOL
