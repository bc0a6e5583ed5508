import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, sqrt, workprec

from quintic_moduli import (
    BranchError,
    CertificationError,
    DomainError,
    LadderTrace,
    PrecisionContext,
    audit_example_forms,
    g_invariant,
    ladder,
    p_map,
    solve_singular_modulus,
    to_big,
    u_defining_residual,
    u_map,
    u_star,
)

import oracle_values as ov
import quintic_moduli.bigmath_kernel as bk
import quintic_moduli.quintic_ladder as ql

TOL = mpf(10) ** -120


def _kkp(rn, rd=1):
    rec = solve_singular_modulus(rn, rd)
    with workprec(600):
        return rec.k * rec.k_comp


def _cubic_at(xv, yv, bits):
    """(residual, scale) of P(w) = c w^3 + 5 w^2 - c w - 1, the cubic u_map
    solves, at c = x^3 and w = y^2/x: the relation u_map inverts at (x, y)
    times -sqrt5 y^3, by the shared ql._cubic_residual."""
    (xm, xe), y = bk._floats(xv, yv)
    w = bk._quo(bk._mul(y, y, bits), (xm, xe), bits)
    return ql._cubic_residual((xm * xm * xm, 3 * xe), w, bits)


def _kkp_rounded(rn, rd, bits):
    """k k' from the solve at rn/rd and `bits` bits, the exact product of
    the two rounded once to `bits`: the seed ladder solves for itself."""
    ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
    rec = solve_singular_modulus(rn, rd, ctx)
    with workprec(bits):
        return +mp.fmul(rec.k, rec.k_comp, exact=True)


class TestUStar:
    def test_at_one(self):
        # X(1)^2 = (sqrt(20)-1)/2 + 1/2 = sqrt(5), so X(1) = 5^(1/4)
        with workprec(600):
            assert abs(u_star(1) - mpf(5) ** mpf("0.25")) < mpf(10) ** -150

    @pytest.mark.parametrize("y", ["1.2", "2", "3"])
    def test_satisfies_defining_relation(self, y):
        x = u_star(y)
        assert u_defining_residual(x, y) < TOL

    def test_tiny_argument_no_cancellation(self):
        # X(y) -> sqrt5 y^2 as y -> 0; the rationalized radicand keeps full
        # relative accuracy where sqrt(1+t)-1 would lose everything
        y = mpf(10) ** -40
        with workprec(600):
            got = u_star(y)
            assert abs(got / (sqrt(mpf(5)) * y ** 2) - 1) < mpf(10) ** -75

    def test_domain(self):
        for y in (0, -1):
            with pytest.raises(DomainError):
                u_star(y)


class TestUMap:
    def test_at_one(self):
        # Y(1)^2 is the positive root of z^3 + 5z^2 - z - 1
        y = u_map(1)
        with workprec(600):
            z = y ** 2
            assert abs(z ** 3 + 5 * z ** 2 - z - 1) < mpf(10) ** -150

    @pytest.mark.parametrize("y0", ["1.1", "1.5", "2.0", "2.9"])
    def test_round_trip(self, y0):
        with workprec(600):
            y = u_map(u_star(y0))
            assert abs(y - mpf(y0)) < mpf(10) ** -140

    @pytest.mark.parametrize("x", ["0.003", "0.31", "1.4953", "9", "20"])
    def test_defining_residual_wide_range(self, x):
        y = u_map(x)
        assert u_defining_residual(x, y) < TOL
        assert y > 0

    def test_matches_radical_oracle(self):
        # the closed cubic formula agrees with the certified root across the
        # same wide range
        for x in ("0.003", "0.31", "1", "9", "20"):
            y = u_map(x)
            with workprec(700):
                assert abs(y - ov.u_radical(x)) < TOL

    @pytest.mark.parametrize("bits", [512, 1024])
    @pytest.mark.parametrize(
        "x", ["1e-200", "1.7e-127", "1e-40", "1e-20", "1e12", "1e20", "1e30"]
    )
    def test_full_relative_accuracy_at_extreme_x(self, x, bits):
        # the relation's terms grow like x^(-3/2) or x^(3/2) here, far past
        # what an absolute residual gate at 10^-tol_exp allows for; the cubic
        # formula loses about 3 |log2 x| bits, so it is evaluated that much
        # deeper
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        y = u_map(x, ctx)
        with workprec(bits + 64):
            extra = int(3 * abs(mp.log(mpf(x), 2)))
            ref = ov.u_radical(x, bits + extra + 64).real
            assert abs(y / ref - 1) < mpf(2) ** (8 - bits)

    @pytest.mark.parametrize("bits", [512, 4096])
    @pytest.mark.parametrize(
        "x, cube_is_float",
        [("0.7", True), ("1", True), ("1.9", True), ("1e-30", True),
         ("1e-200", False), ("1e200", False)],
    )
    def test_both_starts(self, x, cube_is_float, bits):
        # the float seed solves the scaled cubic c w^3 + 5w^2 - c w - 1 with
        # c = x^3 where that is a float, and its limit (root 1/sqrt5 or 1)
        # where c underflows or overflows; either way the root certifies and
        # matches the cubic formula
        xf = float(x)
        assert (0 < xf * xf * xf < math.inf) == cube_is_float
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        y = u_map(x, ctx)
        with workprec(ctx.work_bits):
            xv = to_big(x, ctx)
            assert ctx.certifies(*_cubic_at(xv, y, ctx.work_bits + ql._GATE_INT_BITS))
            extra = int(3 * abs(mp.log(xv, 2)))
            ref = ov.u_radical(x, bits + extra + 64).real
            assert abs(y / ref - 1) < mpf(2) ** (8 - bits)

    @pytest.mark.parametrize("bits", [256, 512, 4096])
    def test_at_huge_x(self, bits, traced_peak):
        # x = 10^(10^8): c = x^3 lies past Newton's cap, which is read from
        # x's exponent, so x^3 is never formed in fixed point (it took 270 MB
        # and half a second at this x); the root is sqrt(x) (1 - 1/x^3 + ...)
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        xv = to_big("1e100000000", ctx)
        y, peak = traced_peak(u_map, xv, ctx)
        assert peak < 4 << 20, peak
        with workprec(bits + 64):
            assert abs(y / sqrt(xv) - 1) < mpf(2) ** (8 - bits)

    @pytest.mark.parametrize("x", ["38.478404647760", "10.444578150741"])
    def test_full_relative_accuracy_at_16384_bits(self, x):
        # past 4096 bits the guard bits no longer hide a Newton schedule that
        # loses a few units per level: without each level's 8 extra bits
        # these two y miss by about 2^-16343
        bits = 16384
        ctx = PrecisionContext(precision_bits=bits, tol_exp=4 * ov.TOL_EXP[4096])
        y = u_map(x, ctx)
        ref = ov.u_radical(x, 2 * bits + 200).real
        with workprec(2 * bits):
            assert abs(y / ref - 1) < mpf(2) ** (1 - bits)

    @pytest.mark.parametrize("y0", ["1e-30", "1e-60"])
    def test_round_trip_tiny(self, y0):
        y = u_map(u_star(y0))
        with workprec(600):
            assert abs(y / mpf(y0) - 1) < mpf(10) ** -140

    def test_deterministic(self):
        assert u_map("1.25") == u_map("1.25")

    def test_domain(self):
        for x in (0, "-2"):
            with pytest.raises(DomainError):
                u_map(x)

    def test_residual_helper_domain(self):
        with pytest.raises(DomainError):
            u_defining_residual(0, 1)
        with pytest.raises(DomainError):
            u_defining_residual(1, "-1")


def _ctx_at(bits):
    return PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])


def _rounded_to(bits, x):
    with workprec(bits):
        return (+x)._mpf_


#: y from 1e-100 to 1e100: both of u_star's branches (y <= 1 in u = y^6,
#: y > 1 in v = y^-6), powers that vanish in the fixed point, and y = 1
U_STAR_YS = ["1e-100", "1e-30", "1e-5", "0.3", "0.999", "1", "1.001", "2", "13.8", "1e5",
             "1e30", "1e100"]


class TestIntegerSpellings:
    """u_star, and the residual of P that u_map's gate, eq26 and
    u_defining_residual share, on integers against their mpf spellings in
    oracle_values."""

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_u_star_is_the_mpf_spelling_rounded(self, bits):
        ctx = _ctx_at(bits)
        for y in U_STAR_YS:
            yv = to_big(y, ctx)
            want = _rounded_to(bits, ov.u_star_mpf(yv, ctx.work_bits))
            assert u_star(yv, ctx)._mpf_ == want, y

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_cubic_residual_matches_the_four_terms(self, bits):
        # at the root, where the terms cancel to the last bits, and off it:
        # P and its largest monomial divided by -sqrt5 y^3 are the relation's
        # four terms summed, and u_defining_residual is their |sum|
        ctx = _ctx_at(bits)
        for x in ("1e-40", "0.003", "0.7", "1", "1.4953", "20", "1e12"):
            xv = to_big(x, ctx)
            y = to_big(u_map(xv, ctx), ctx)
            for yv in (y, y * (1 + mpf(10) ** -30), y * 2):
                res, scale = _cubic_at(xv, yv, ctx.work_bits + ql._GATE_INT_BITS)
                got = u_defining_residual(xv, yv, ctx)
                ref_res, ref_scale = ov.u_relation_terms(xv, yv, 2 * ctx.work_bits)
                with workprec(2 * ctx.work_bits):
                    c = -sqrt(5) * yv ** 3
                    bound = mpf(2) ** (8 - ctx.work_bits) * ref_scale
                    assert abs(res / c - ref_res) < bound, (x, yv)
                    assert abs(scale / abs(c) - ref_scale) < bound, (x, yv)
                    assert abs(got - abs(ref_res)) < bound + abs(ref_res) * mpf(2) ** -bits, (x, yv)

    @pytest.mark.parametrize("bits", [256, 1024])
    def test_gate_decides_as_the_four_terms_did(self, bits):
        # y off the root by a relative 10^-(tol_exp + j): the cubic P on
        # integers passes exactly the points the four mpf terms passed,
        # on both sides of the gate
        ctx = _ctx_at(bits)
        decisions = set()
        for x in ("1e-20", "0.31", "1", "9", "1e20"):
            xv = to_big(x, ctx)
            y = to_big(u_map(xv, ctx), ctx)
            for j in range(-3, 4):
                for sign in (1, -1):
                    with workprec(ctx.work_bits):
                        yv = y * (1 + sign * mpf(10) ** -(ctx.tol_exp + j))
                        old = ctx.certifies(*ov.u_relation_terms(xv, yv, ctx.work_bits))
                    new = ctx.certifies(*_cubic_at(xv, yv, ctx.work_bits + ql._GATE_INT_BITS))
                    assert new == old, (x, j, sign)
                    decisions.add(new)
        assert decisions == {True, False}

    def test_u_map_raises_where_the_gate_fails(self, monkeypatch):
        # a Newton that never moves leaves the float seed's 48 bits, which
        # the gate refuses with a BranchError naming the companion roots
        def stuck(w, c, bits):
            return w

        assert u_map("1.25") > 0
        monkeypatch.setattr(ql, "_newton_int", stuck)
        with pytest.raises(BranchError, match="fails the defining relation"):
            u_map("1.25")


class TestNewtonSchedule:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(bits=st.integers(min_value=ql._SEED_BITS + 1, max_value=1 << 22))
    def test_levels_double_up_to_bits(self, bits):
        # each level asks for half the next one's bits plus 8 guard bits
        # (plus one for an odd count), so one Newton step, which doubles
        # the bits it starts from, reaches the next with the guard to spare
        precs = ql._doubling_precisions(bits)
        assert precs[-1] == bits
        assert precs[0] > ql._SEED_BITS
        for lo, hi in zip(precs, precs[1:]):
            assert lo < hi
            assert hi / 2 + 8 <= lo <= hi / 2 + 9


class TestPMap:
    def test_chain_value_at_one(self):
        # p_map(1) must be the next rung's twelfth-root ratio for r0 = 5
        # (equal seeds k_5, k_(1/5) make the starting ratio exactly 1)
        with workprec(600):
            expected = (_kkp(125) / _kkp(5)) ** (mpf(1) / 12)
            assert abs(p_map(1) - expected) < TOL

    def test_positive_on_range(self):
        for x in ("0.5", "0.9", "1.3", "2"):
            assert p_map(x) > 0

    def test_domain(self):
        for x in (0, "-2"):
            with pytest.raises(DomainError):
                p_map(x)

    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_sixth_power_is_the_rungs(self, bits):
        # p_map is the rung core at x^6 and one sixth root: its sixth power
        # lies within a few ulps of the core's p^6, from x = 1e-30 to 1e30
        ctx = _ctx_at(bits)
        for e in range(-30, 31, 5):
            for m in ("1", "3.7"):
                xv = to_big(m + "e%d" % e, ctx)
                _, man, exp, _ = xv._mpf_
                p6 = ql._rung((man ** 6, 6 * exp), ctx)
                with workprec(2 * bits):
                    got = p_map(xv, ctx) ** 6
                    assert abs(got / mpf(p6) - 1) < 8 * mpf(2) ** -bits, xv

    def test_rung_raises_where_the_gate_fails(self, monkeypatch):
        # a Newton that never moves leaves the float seed's 48 bits: the
        # rung's gate on c w^3 + 5 w^2 - c w - 1 refuses it, in p_map and in
        # the ladder's climb alike
        def stuck(w, c, bits):
            return w

        assert p_map("0.7") > 0
        monkeypatch.setattr(ql, "_newton_int", stuck)
        with pytest.raises(BranchError, match="fails the defining relation"):
            p_map("0.7")
        with pytest.raises(BranchError, match="fails the defining relation"):
            ladder(5, 1, 1)


class TestGInvariant:
    def test_r1_is_one(self):
        with workprec(600):
            assert abs(g_invariant(1, 1) - 1) < mpf(10) ** -150

    def test_r25_radical(self):
        with workprec(600):
            assert abs(g_invariant(25, 1) - ov.g25_radical()) < TOL

    def test_increasing(self):
        assert g_invariant(1, 1) < g_invariant(5, 1) < g_invariant(25, 1)


class TestAscendOnce:
    """One rung, ladder(..., n=1): the ascended product k k' against a
    direct solve at 25 r0."""

    def test_r5_level(self):
        (step,) = ladder(5, 1, 1).steps
        with workprec(600):
            assert abs(step.kkprime - _kkp(125)) < TOL

    def test_r1_level(self):
        (step,) = ladder(1, 1, 1).steps
        with workprec(600):
            assert abs(step.kkprime - _kkp(25)) < TOL


class TestLadder:
    def test_two_rungs_from_5(self):
        trace = ladder(5, 1, 2)
        assert isinstance(trace, LadderTrace)
        # the seeds are k k' at r0 and r0/25, and k k' at 1/5 is k k' at 5
        assert trace.seed_kkprime == trace.seed_kkprime25 == _kkp_rounded(5, 1, 512)
        assert [s.level for s in trace.steps] == [1, 2]
        gate = mpf(10) ** -100
        for s in trace.steps:
            assert s.oracle_residual < gate
        # level-1 value is k_125 against a direct solve
        with workprec(600):
            direct = solve_singular_modulus(125, 1)
            assert abs(trace.steps[0].k - direct.k) < gate

    def test_one_rung_from_25(self):
        trace = ladder(25, 1, 1)
        with workprec(600):
            direct = solve_singular_modulus(625, 1)
            assert abs(trace.steps[0].k - direct.k) < mpf(10) ** -100

    def test_chain_consistency(self):
        # each rung's x6 is the last rung's p6, bit for bit; the first is
        # (g(1/5)/g(5))^6 = 1, and each kkprime is the last one times p6^2
        steps = ladder(5, 1, 3).steps
        assert steps[0].x6 == 1
        for j in range(1, len(steps)):
            assert steps[j].x6._mpf_ == steps[j - 1].p6._mpf_
            with workprec(2048):
                want = steps[j - 1].kkprime * steps[j].p6 ** 2
                assert abs(steps[j].kkprime / want - 1) < 8 * mpf(2) ** -512

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("r0", ["1/25", "2/49"])
    def test_levels_match_a_double_precision_oracle(self, r0, bits):
        # a seed point r0/25 below 1 costs the climb no digits: every level
        # lies within a relative 2^(16 - bits) of a solve at twice the bits
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        fine = PrecisionContext(precision_bits=2 * bits, tol_exp=ov.TOL_EXP[2 * bits])
        r0 = Fraction(r0)
        for s in ladder(r0.numerator, r0.denominator, 3, ctx).steps:
            oracle = solve_singular_modulus(s.r.numerator, s.r.denominator, fine).k
            with workprec(4 * bits):
                assert abs(s.k - oracle) < oracle * mpf(2) ** (16 - bits), s.r

    def test_climb_to_the_solve_bound_matches_a_double_precision_oracle(self):
        # from 7/3 the last rung under the solver's bound is 25^28 r0, about
        # 3.2e39; a rung's relative miss of a solve at twice the bits grows
        # like pi sqrt(r)/2 ulps, as the K-ratio's own sensitivity to k does
        bits, r0 = 256, Fraction(7, 3)
        assert r0 * 25 ** 28 <= bk._R_MAX < r0 * 25 ** 29
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        fine = PrecisionContext(precision_bits=2 * bits, tol_exp=ov.TOL_EXP[2 * bits])
        for s in ladder(r0.numerator, r0.denominator, 28, ctx).steps:
            oracle = solve_singular_modulus(s.r.numerator, s.r.denominator, fine).k
            with workprec(4 * bits):
                half_pi_root = mp.pi * sqrt(mpf(s.r.numerator) / s.r.denominator) / 2
                assert abs(s.k - oracle) < oracle * mpf(2) ** (16 - bits) * half_pi_root, s.r

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("r0", ["7/3", "1/25", "50"])
    def test_every_rung_to_the_solve_bound_is_within_half_a_sensitivity_ulp(self, r0, bits):
        # the solved seeds k k' enter each rung's k k' once, rounded once:
        # up to the last rung under the solver's bound every rung lies
        # within a relative 2^(-1 - bits) pi sqrt(R)/2 of a solve at twice
        # the bits, R = max(r, 1/r), the K-ratio's own sensitivity to k
        # (at most 0.26 of that measured; g seeds, carried twelvefold,
        # missed by up to 1.48 units at 256 bits and 4.66 at 512)
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        fine = PrecisionContext(precision_bits=2 * bits, tol_exp=ov.TOL_EXP[2 * bits])
        r0 = Fraction(r0)
        n = max(j for j in range(1, 40) if r0 * 25 ** j <= bk._R_MAX)
        assert r0 * 25 ** n > 10 ** 38
        for s in ladder(r0.numerator, r0.denominator, n, ctx).steps:
            oracle = solve_singular_modulus(s.r.numerator, s.r.denominator, fine).k
            big_r = max(s.r, 1 / s.r)
            with workprec(4 * bits):
                half_pi_root = mp.pi * sqrt(mpf(big_r.numerator) / big_r.denominator) / 2
                assert abs(s.k - oracle) < oracle * mpf(2) ** (-1 - bits) * half_pi_root, s.r

    def test_bad_seed_fails_certification_with_trace(self):
        with pytest.raises(CertificationError) as ei:
            ladder(5, 1, 1, kkprime_r0="0.1", kkprime_r0_over25=_kkp_rounded(5, 1, 512))
        trace = ei.value.payload
        assert isinstance(trace, LadderTrace)
        assert len(trace.steps) == 1
        assert trace.steps[0].oracle_residual > mpf(10) ** -100

    @pytest.mark.parametrize("bits", [256, 512])
    def test_seed_that_makes_kkprime_huge_fails_in_bounded_memory(self, bits, traced_peak):
        # k k' = 1/2 at r0 = 10^37, where the solve gives about 10^(-2e18):
        # the first rung's k k' is about 10^(1e17), and 4 (k k')^2 in fixed
        # point would take about 6e17 bits; the branch reads it as past 1
        # from its exponent, and the level fails its oracle
        ctx = _ctx_at(bits)

        def climb():
            with pytest.raises(CertificationError) as ei:
                ladder(10 ** 37, 1, 1, ctx, kkprime_r0="0.5")
            return ei.value.payload

        trace, peak = traced_peak(climb)
        assert peak < 4 << 20, peak
        assert trace.steps[0].kkprime > mpf(10) ** 1000

    def test_gate_is_relative(self):
        # k_78125 is about 8e-191: a seed k k' off by a relative 1e-60 moves
        # it by far less than an absolute 10^-100 gate, but not by less than
        # the relative 10^-(tol_exp - 20)
        with workprec(600):
            seed = _kkp_rounded(3125, 1, 512) * (1 + mpf(10) ** -60)
        with pytest.raises(CertificationError) as ei:
            ladder(3125, 1, 1, kkprime_r0=seed, kkprime_r0_over25=_kkp_rounded(125, 1, 512))
        (step,) = ei.value.payload.steps
        assert step.oracle_residual < mpf(10) ** -100
        assert step.oracle_residual > mpf(10) ** -100 * step.k

    def test_domain(self):
        with pytest.raises(DomainError):
            ladder(5, 1, 0)
        with pytest.raises(DomainError):
            ladder(5, 1, 1, kkprime_r0=mpf(0), kkprime_r0_over25=_kkp_rounded(5, 1, 512))
        with pytest.raises(DomainError):
            ladder(0, 1, 1)
        # r0 is checked as the solver checks r: exact positive integers
        for r0 in ((-5, -1), (1, 0), (5.0, 1)):
            with pytest.raises(DomainError, match="^r must be"):
                ladder(*r0, 1)

    @pytest.mark.parametrize(
        "seeds",
        [
            {"kkprime_r0": "0.6"},
            {"kkprime_r0_over25": "0.50001"},
            {"kkprime_r0": "0.2", "kkprime_r0_over25": 0},
            {"kkprime_r0_over25": "-0.1"},
            {"kkprime_r0_over25": "inf"},
            {"kkprime_r0": "nan"},
        ],
    )
    def test_bad_seed_solves_nothing(self, monkeypatch, seeds):
        # k k' lies in (0, 1/2]; a seed outside is refused before any solve
        calls = []
        for mod in (ql, bk):
            monkeypatch.setattr(mod, "solve_singular_modulus", lambda *a: calls.append(a))
        with pytest.raises(DomainError, match=r"must lie in \(0, 1/2\]"):
            ladder(5, 1, 1, **seeds)
        assert calls == []

    def test_given_seeds_are_echoed_rounded(self):
        # a 100-digit seed is rounded to 256 bits where it is read, so the
        # climb starts from, and the trace echoes, the k k' it was printed
        # from
        ctx = PrecisionContext(precision_bits=256, tol_exp=55)
        s5, s125 = _kkp_rounded(5, 1, 256), _kkp_rounded(125, 1, 256)
        with workprec(256):
            long_s5 = mp.nstr(s5, 100)
        trace = ladder(125, 1, 1, ctx, kkprime_r0=s125, kkprime_r0_over25=long_s5)
        assert (trace.seed_kkprime, trace.seed_kkprime25) == (s125, s5)
        assert ladder(125, 1, 1, ctx).steps == trace.steps

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("r0", ["5", "1/25"])
    def test_replay_from_the_echoed_seeds_is_exact(self, r0, bits):
        # seeds solved at twice the bits carry digits below precision_bits;
        # the climb starts from their rounding, which the trace echoes
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        wide = PrecisionContext(precision_bits=2 * bits, tol_exp=ov.TOL_EXP[bits])
        r0 = Fraction(r0)
        s, s25 = (
            _kkp_rounded(max(r, 1 / r).numerator, max(r, 1 / r).denominator, 2 * bits)
            for r in (r0, r0 / 25)
        )
        trace = ladder(r0.numerator, r0.denominator, 2, ctx, kkprime_r0=s, kkprime_r0_over25=s25)
        assert (trace.seed_kkprime, trace.seed_kkprime25) != (s, s25)
        replay = ladder(
            r0.numerator, r0.denominator, 2, ctx,
            kkprime_r0=trace.seed_kkprime, kkprime_r0_over25=trace.seed_kkprime25,
        )
        assert replay == trace

    def test_solved_seed_rounding_to_one_is_refused(self):
        # a k seed at 1/625 would round to 1 at 96 bits, where its k' is 0;
        # the k k' seed there is k k' at 625, which rounds to nothing
        # degenerate, and a precision that coarse is still refused on
        # tol_exp 5 first, with no seed given
        ctx = PrecisionContext(precision_bits=96, tol_exp=5)
        with pytest.raises(DomainError, match=r"^ladder needs tol_exp >= 21, got 5"):
            ladder(1, 25, 1, ctx)

    @pytest.mark.parametrize("tol_exp", [1, 15, 20])
    def test_gate_of_one_or_looser_is_refused(self, monkeypatch, tol_exp):
        # the relative gate 10^-(tol_exp - 20) would pass any k
        calls = []
        for mod in (ql, bk):
            monkeypatch.setattr(mod, "solve_singular_modulus", lambda *a: calls.append(a))
        ctx = PrecisionContext(precision_bits=134, tol_exp=tol_exp)
        with pytest.raises(DomainError, match=r"^ladder needs tol_exp >= 21, got %d" % tol_exp):
            ladder(1, 25, 1, ctx, kkprime_r0_over25="0.9999")
        assert calls == []

    def test_smallest_gate_climbs(self):
        trace = ladder(5, 1, 1, PrecisionContext(precision_bits=134, tol_exp=21))
        assert trace.gate_exp == 1


class TestSeedsBelowOne:
    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("r0", ["1/25", "2/49", "1/7"])
    def test_are_solved_at_their_reciprocal(self, r0, bits, monkeypatch):
        # k k' is the same at r and 1/r, so a seed point below 1 is solved
        # at its reciprocal and the climb takes no nome below r = 1
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        r0 = Fraction(r0)
        points = []
        exp_nome = bk._exp_nome

        def spy(r_num, r_den, c):
            points.append(Fraction(r_num, r_den))
            return exp_nome(r_num, r_den, c)

        monkeypatch.setattr(bk, "_exp_nome", spy)
        trace = ladder(r0.numerator, r0.denominator, 2, ctx)
        monkeypatch.undo()
        assert points and min(points) >= 1, points
        for seed, r in ((trace.seed_kkprime, r0), (trace.seed_kkprime25, r0 / 25)):
            assert seed._mpf_ == _kkp_rounded(r.denominator, r.numerator, bits)._mpf_


class TestNomeChains:
    """The ladder's scope holds each nome it takes, and the nome at 25 r is
    the one at r to the fifth power, so a climb pays for its seeds' exps."""

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize(
        "r0,exps",
        [("7/3", ["7/3", "75/7"]), ("1/7", ["7", "25/7"]), ("50", ["50", "2"])],
    )
    def test_a_climb_takes_two_exps(self, r0, exps, bits, exp_points):
        # the seeds at r0 and r0/25 (each at max(r, 1/r)), or, from r0 below
        # 1, the seed at 1/r0 and the first oracle at 25 r0; every other
        # nome is a power of one the climb holds
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        r0 = Fraction(r0)
        ladder(r0.numerator, r0.denominator, 4, ctx)
        assert exp_points == [Fraction(r) for r in exps]

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("r0", ["7/3", "1/25", "50"])
    def test_deep_chains_keep_every_nome_to_20_bits_of_work(self, r0, bits, monkeypatch, exp_points):
        # each link of a chain multiplies its base's relative error by 5:
        # up to the last rung under the solver's bound every nome the climb
        # takes lies within 2^-(work_bits - 20) of an exp at 200 more bits,
        # and every oracle's rounded q is the exp route's nome(r).  (An
        # unbounded chain missed by about 2^64 units of 2^-work_bits at
        # 512 bits from 7/3, and 2 of its 28 oracles' q differed.)
        ctx = PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])
        r0 = Fraction(r0)
        n = max(j for j in range(1, 40) if r0 * 25 ** j <= bk._R_MAX)
        nomes, records = [], []
        lookup, solve = bk._nome, ql.solve_singular_modulus

        def nome_spy(r_num, r_den, c):
            q = lookup(r_num, r_den, c)
            nomes.append((Fraction(r_num, r_den), q))
            return q

        def solve_spy(r_num, r_den, c):
            records.append((Fraction(r_num, r_den), solve(r_num, r_den, c)))
            return records[-1][1]

        monkeypatch.setattr(bk, "_nome", nome_spy)
        monkeypatch.setattr(ql, "solve_singular_modulus", solve_spy)
        ladder(r0.numerator, r0.denominator, n, ctx)
        monkeypatch.undo()
        # a chain of fifth powers stops at 5^8, so 3 more exps start chains
        assert len(exp_points) == 5 and len(records) == n
        assert {r for r, _ in records} <= {r for r, _ in nomes}
        for r, q in nomes:
            with workprec(ctx.work_bits + 200):
                exact = mp.exp(-mp.pi * sqrt(mpf(r.numerator) / r.denominator))
                assert abs(q / exact - 1) < mpf(2) ** (20 - ctx.work_bits), r
        for r, rec in records:
            assert rec.q == bk.nome(r.numerator, r.denominator, ctx), r


class TestExampleAudit:
    def test_audit(self):
        audit = audit_example_forms()
        assert set(audit) == {
            "canonical_125", "verbatim_125", "canonical_625", "verbatim_625",
        }
        # the canonical ascents certify
        assert audit["canonical_125"]["holds"]
        assert audit["canonical_625"]["holds"]
        assert audit["canonical_125"]["difference"] < mpf(10) ** -100
        assert audit["canonical_625"]["difference"] < mpf(10) ** -100
        # the printed shorthands do not: one misses badly, one closely
        assert not audit["verbatim_125"]["holds"]
        assert not audit["verbatim_625"]["holds"]
        assert mpf("1e-3") < audit["verbatim_125"]["difference"] < mpf("1e-1")
        assert mpf("1e-17") < audit["verbatim_625"]["difference"] < mpf("1e-14")
