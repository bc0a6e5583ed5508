import pytest
from mpmath import mp, mpf, sqrt, workprec

from quintic_moduli import (
    BranchError,
    CertificationError,
    DomainError,
    LadderTrace,
    PrecisionContext,
    ascend_once,
    audit_example_forms,
    g_invariant,
    k_from_kkprime,
    ladder,
    p_map,
    solve_singular_modulus,
    u_defining_residual,
    u_map,
    u_star,
    verify_thm31,
    verify_thm32,
)

import oracle_values as ov

TOL = mpf(10) ** -120


def _kkp(rn, rd=1):
    rec = solve_singular_modulus(rn, rd)
    with workprec(600):
        return rec.k * rec.k_comp


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
        with pytest.raises(DomainError):
            p_map(0)


class TestGInvariant:
    def test_r1_is_one(self):
        with workprec(600):
            assert abs(g_invariant(1, 1).g - 1) < mpf(10) ** -150

    def test_r25_radical(self):
        with workprec(600):
            assert abs(g_invariant(25, 1).g - ov.g25_radical()) < TOL

    def test_increasing(self):
        assert g_invariant(1, 1).g < g_invariant(5, 1).g < g_invariant(25, 1).g


class TestKFromKKprime:
    def test_round_trip(self):
        for rn in (5, 25):
            rec = solve_singular_modulus(rn, 1)
            with workprec(600):
                assert abs(k_from_kkprime(rec.k * rec.k_comp) - rec.k) < TOL

    def test_half_gives_sqrt_half(self):
        with workprec(600):
            assert abs(k_from_kkprime("0.5") - 1 / sqrt(mpf(2))) < mpf(10) ** -150

    def test_clamps_rounding_overshoot(self):
        # a product one rounding error above 1/2 must not blow up
        with workprec(600):
            p = mpf(1) / 2 + mpf(2) ** -600
            assert abs(k_from_kkprime(p) - 1 / sqrt(mpf(2))) < mpf(10) ** -150

    def test_tiny_product(self):
        p = mpf(10) ** -200
        with workprec(600):
            assert abs(k_from_kkprime(p) / p - 1) < mpf(10) ** -140

    def test_domain(self):
        with pytest.raises(DomainError):
            k_from_kkprime("0.6")
        with pytest.raises(DomainError):
            k_from_kkprime(0)


class TestAscendOnce:
    def test_r5_level(self):
        got = ascend_once(_kkp(5), _kkp(1, 5))
        with workprec(600):
            assert abs(got - _kkp(125)) < TOL

    def test_r1_level(self):
        got = ascend_once(_kkp(1), _kkp(1, 25))
        with workprec(600):
            assert abs(got - _kkp(25)) < TOL

    def test_domain(self):
        with pytest.raises(DomainError):
            ascend_once("0.7", "0.1")
        with pytest.raises(DomainError):
            ascend_once("0.1", 0)


class TestLadder:
    def test_two_rungs_from_5(self):
        rec5 = solve_singular_modulus(5, 1)
        rec15 = solve_singular_modulus(1, 5)
        trace = ladder(5, 1, rec5.k, rec15.k, 2)
        assert isinstance(trace, LadderTrace)
        assert [s.level for s in trace.steps] == [1, 2]
        gate = mpf(10) ** -100
        for s in trace.steps:
            assert s.oracle_residual < gate
        # level-1 value is k_125 against a direct solve
        with workprec(600):
            direct = solve_singular_modulus(125, 1)
            assert abs(trace.steps[0].k - direct.k) < gate

    def test_one_rung_from_25(self):
        rec25 = solve_singular_modulus(25, 1)
        rec1 = solve_singular_modulus(1, 1)
        trace = ladder(25, 1, rec25.k, rec1.k, 1)
        with workprec(600):
            direct = solve_singular_modulus(625, 1)
            assert abs(trace.steps[0].k - direct.k) < mpf(10) ** -100

    def test_chain_consistency(self):
        # each rung's x is the twelfth root of the previous products' ratio
        rec5 = solve_singular_modulus(5, 1)
        rec15 = solve_singular_modulus(1, 5)
        trace = ladder(5, 1, rec5.k, rec15.k, 2)
        with workprec(600):
            x2_expect = (trace.steps[0].kkprime / _kkp(5)) ** (mpf(1) / 12)
            assert abs(trace.steps[1].x - x2_expect) < mpf(10) ** -140

    def test_sub_unit_level_refused(self):
        # the refusal happens before any seed is consulted, so the seeds
        # only need to be plausible moduli
        with pytest.raises(BranchError):
            ladder(1, 625, "0.999", "0.9999", 1)

    def test_bad_seed_fails_certification_with_trace(self):
        rec15 = solve_singular_modulus(1, 5)
        with pytest.raises(CertificationError) as ei:
            ladder(5, 1, "0.2", rec15.k, 1)
        trace = ei.value.payload
        assert isinstance(trace, LadderTrace)
        assert len(trace.steps) == 1
        assert trace.steps[0].oracle_residual > mpf(10) ** -100

    def test_gate_is_relative(self):
        # k_78125 is about 8e-191: a seed off by a relative 1e-60 moves it by
        # far less than an absolute 10^-100 gate, but not by less than the
        # relative 10^-(tol_exp - 20)
        k3125 = solve_singular_modulus(3125, 1).k
        k125 = solve_singular_modulus(125, 1).k
        with workprec(600):
            seed = k3125 * (1 + mpf(10) ** -60)
        with pytest.raises(CertificationError) as ei:
            ladder(3125, 1, seed, k125, 1)
        (step,) = ei.value.payload.steps
        assert step.oracle_residual < mpf(10) ** -100
        assert step.oracle_residual > mpf(10) ** -100 * step.k

    def test_domain(self):
        rec5 = solve_singular_modulus(5, 1)
        rec15 = solve_singular_modulus(1, 5)
        with pytest.raises(DomainError):
            ladder(5, 1, rec5.k, rec15.k, 0)
        with pytest.raises(DomainError):
            ladder(5, 1, mpf(0), rec15.k, 1)
        with pytest.raises(DomainError):
            ladder(0, 1, rec5.k, rec15.k, 1)


class TestAscentDescentLaws:
    @pytest.mark.parametrize("rn,rd", [(1, 1), (1, 25)])
    def test_thm31(self, rn, rd):
        (entry,) = verify_thm31(rn, rd)
        assert entry.id == "eq29-thm31"
        assert entry.passed
        assert entry.residual < TOL
        assert set(entry.detail) == {"sixth_power_vs_a(4r)", "invariant_ratio_relation"}

    @pytest.mark.parametrize("rn,rd", [(1, 1), (5, 1)])
    def test_thm32(self, rn, rd):
        (entry,) = verify_thm32(rn, rd)
        assert entry.id == "eq30-thm32"
        assert entry.passed
        assert entry.residual < TOL

    def test_descent_and_ascent_agree_at_reciprocal(self):
        # the descent law at r and the ascent law at r/25 see the same rungs
        (descent,) = verify_thm32(5, 1)
        (ascent,) = verify_thm31(1, 5)
        assert descent.passed and ascent.passed


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
