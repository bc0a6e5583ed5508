import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, quad, sqrt, workprec
from mpmath.libmp import from_man_exp, from_rational, mpf_sqrt, round_nearest

from quintic_moduli import (
    BranchError,
    CertificationError,
    ConvergenceError,
    DomainError,
    DEFAULT_CONTEXT,
    PrecisionContext,
    a_value,
    a_via_eta,
    a_via_moduli,
    agm,
    closed_form_R,
    descend_a,
    descend_v,
    elliptic_K,
    eta_f,
    g_invariant,
    ladder,
    nome,
    p_map,
    rrcf_converged,
    rrcf_truncated,
    rrcf_value,
    run_suite,
    solve_singular_modulus,
    to_big,
    u_map,
    u_star,
)

import oracle_values as ov
import quintic_moduli.bigmath_kernel as bk
import quintic_moduli.modular_core as mc
import quintic_moduli.quintic_ladder as ql
from quintic_moduli.report import big_to_str, str_to_big

TOL = mpf(10) ** -120

#: r well below 1: k_r lies within 1e-37 of 1, so only k'_r carries its digits
DEEP_RECIPROCALS = [(1, 800), (1, 2500), (1, 10000)]


def _ctx_at(bits):
    return PrecisionContext(precision_bits=bits, tol_exp=ov.TOL_EXP[bits])


def _complement_of(k, prec):
    """sqrt(1 - k^2) for an mpf k, bk._complement of k's mantissa squared,
    as the solve and elliptic_K take it."""
    _, man, exp, _ = k._mpf_
    return bk._complement((man * man, 2 * exp), prec)


def complement(x, ctx):
    """The solve's sqrt(1 - x^2) of to_big(x) at precision_bits."""
    return _complement_of(to_big(x, ctx), ctx.precision_bits)


def _ellipk_residual(rec, rn, rd, bits):
    """|K(k')/K(k) - sqrt(rn/rd)| through mpmath's ellipk at twice ``bits``."""
    ratio = ov.k_ratio_ellipk(rec.k, rec.k_comp, 2 * bits)
    with workprec(2 * bits):
        return abs(ratio - sqrt(mpf(rn) / rd))


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.precision_bits == 512
        assert ctx.tol_exp == 120
        assert ctx.work_bits == 576

    def test_the_threshold_is_exactly_10_to_the_minus_tol_exp(self):
        # 2^-120 times 10^120 is 5^120: a residual of 2^-120 against a scale
        # of 5^120 lies at the threshold, not within a rounding of it
        ctx = PrecisionContext()
        assert not ctx.verdict((1, -120), (5 ** 120, 0))[1]
        assert ctx.verdict((1, -120), (5 ** 120 + 1, 0))[1]
        assert not ctx.verdict((-1, -121), (5 ** 120, -1))[1]

    def test_rejects_tiny_precision(self):
        with pytest.raises(ValueError):
            PrecisionContext(precision_bits=32)

    def test_rejects_unrepresentable_tolerance(self):
        # 10^-200 needs ~664 bits plus guard; 512 cannot certify it
        with pytest.raises(ValueError):
            PrecisionContext(precision_bits=512, tol_exp=200)

    @pytest.mark.parametrize("tol_exp", [512, 10 ** 400])
    def test_rejects_a_tol_exp_of_precision_bits_or_more_on_integers(self, tol_exp):
        # 10^400 times log2(10) overflows a float; tol_exp >= precision_bits
        # is refused before that product, as it would refuse it
        with pytest.raises(ValueError, match="guard bits must stay below precision_bits"):
            PrecisionContext(precision_bits=512, tol_exp=tol_exp)

    @pytest.mark.parametrize("args", [(100.5, 10), (512, 10.5), (512.0, 10)])
    def test_rejects_non_integers(self, args):
        # a fractional tol_exp would read as 10^-floor; fractional bits
        # would fail inside the solve
        with pytest.raises(ValueError, match="must be integers"):
            PrecisionContext(*args)

    @pytest.mark.parametrize("make", [
        lambda: PrecisionContext(512, True),
        lambda: PrecisionContext(True, 10),
        lambda: DEFAULT_CONTEXT._replace(tol_exp=True),
        lambda: PrecisionContext._make((512, False)),
    ], ids=["tol_exp", "precision_bits", "_replace", "_make"])
    def test_rejects_bools(self, make):
        # a bool is an int in Python, but no count of bits or digits
        with pytest.raises(ValueError, match="must be integers"):
            make()

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PrecisionContext(tol_exp=0)

    @pytest.mark.parametrize("make", [
        lambda: PrecisionContext(32, 1),
        lambda: DEFAULT_CONTEXT._replace(precision_bits=32),
        lambda: PrecisionContext._make((32, 1)),
    ], ids=["constructor", "_replace", "_make"])
    def test_every_construction_path_validates(self, make):
        with pytest.raises(ValueError):
            make()

    def test_replace_and_make_give_contexts(self):
        for ctx in (DEFAULT_CONTEXT._replace(tol_exp=60), PrecisionContext._make((512, 60))):
            assert type(ctx) is PrecisionContext
            assert (ctx.precision_bits, ctx.tol_exp, ctx.work_bits) == (512, 60, 576)


class TestBoolIsNotARational:
    """A bool is an int to isinstance, but no term of a rational r, nor a
    depth: every entry point that takes r, and rrcf_truncated's depth,
    refuses it with DomainError rather than reading True as 1."""

    @pytest.mark.parametrize("call", [
        lambda: solve_singular_modulus(True, 3),
        lambda: solve_singular_modulus(3, True),
        lambda: nome(True, 3),
        lambda: ladder(7, True, 1),
        lambda: run_suite(True, 3, ids=["k-reciprocal"]),
        lambda: a_via_eta(True, 2),
        lambda: a_via_moduli(2, True),
        lambda: a_value(True, 2),
        lambda: rrcf_value(True, 2),
        lambda: g_invariant(True, 3),
        lambda: bk._solved(True, 3, DEFAULT_CONTEXT),
        lambda: bk._nome(3, True, DEFAULT_CONTEXT),
        lambda: bk._eta_at(True, 3, DEFAULT_CONTEXT),
        lambda: mc._rrcf_at(True, 3, DEFAULT_CONTEXT),
        lambda: mc._a_eta_at(True, 3, DEFAULT_CONTEXT),
        lambda: rrcf_truncated("0.04", True),
    ], ids=[
        "solve-num", "solve-den", "nome", "ladder", "run_suite", "a_via_eta", "a_via_moduli",
        "a_value", "rrcf_value", "g_invariant", "_solved", "_nome", "_eta_at", "_rrcf_at",
        "_a_eta_at", "rrcf_truncated-depth",
    ])
    def test_refused(self, call):
        with pytest.raises(DomainError):
            call()


def _exact(man, exp):
    """The mpf man * 2^exp, unrounded."""
    return mp.make_mpf(from_man_exp(man, exp))


def _kernel_inputs(bits, seed):
    """Reals that exercise every branch of mpf_sqrt's and mpf_pos's steps
    at ``bits``: zero, powers of two with even and odd exponents (mantissa
    1), the extremes of the exponent range, neighbours of 1, exact squares,
    halfway cases for rounding to ``bits``, and seeded random mantissas of
    up to twice that length with exponents of both parities."""
    rng = random.Random(seed)
    xs = [mpf(0), _exact(1, -100000), _exact(1, 100000)]
    xs += [_exact(1, e) for e in range(-5, 6)]  # 4^k and 2 * 4^k
    xs += [_exact((1 << n) + s, -n) for n in (bits - 1, bits, bits + 1, 2 * bits) for s in (-1, 1)]
    xs += [_exact(m * m, e) for m in (3, 2 ** 200 + 1, rng.getrandbits(bits) | 1) for e in (-6, 7)]
    xs += [_exact((1 << bits) | rng.getrandbits(bits) | 1, rng.randint(-99, 99)) for _ in range(20)]
    xs += [
        _exact(rng.getrandbits(rng.randint(1, 2 * bits + 70)) | 1, rng.randint(-3000, 3000))
        for _ in range(200)
    ]
    return xs


class TestMantissaKernels:
    """_sqrt_raw, _rounded, to_big and the verdict give the very bits of
    the mpmath operations they replace."""

    @pytest.mark.parametrize("bits", [64, 576, 1088, 4160])
    def test_sqrt_raw_is_mpf_sqrt(self, bits):
        for x in _kernel_inputs(bits, bits):
            _, man, exp, _ = x._mpf_
            want = mpf_sqrt(x._mpf_, bits, round_nearest)
            assert bk._sqrt_raw(man, exp, bits)._mpf_ == want, x._mpf_

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_rounding_is_pos_and_mpf(self, bits):
        ctx = _ctx_at(bits)
        for x in _kernel_inputs(bits, bits) + _kernel_inputs(ctx.work_bits, bits + 1):
            for v in (x, -x):
                with workprec(ctx.precision_bits):
                    assert bk._rounded(ctx, v)._mpf_ == (+v)._mpf_, v._mpf_
                with workprec(ctx.work_bits):
                    assert to_big(v, ctx)._mpf_ == mpf(v)._mpf_, v._mpf_

    def test_fraction_divides_at_work_bits(self):
        ctx = _ctx_at(256)
        with workprec(ctx.work_bits):
            third = mpf(1) / 3
        assert to_big(Fraction(1, 3), ctx)._mpf_ == third._mpf_
        assert third != bk._rounded(ctx, third)

    def test_a_fraction_is_rounded_once(self):
        # one correctly rounded division, where dividing the rounded
        # numerator by the rounded denominator would round three times
        ctx = PrecisionContext(precision_bits=192, tol_exp=30)
        assert ctx.work_bits == 256
        rng = random.Random(700)
        for _ in range(2000):
            n, d = rng.getrandbits(700) | 1 << 699, rng.getrandbits(690) | 1 << 689
            want = from_rational(n, d, ctx.work_bits, round_nearest)
            assert to_big(Fraction(n, d), ctx)._mpf_ == want, (n, d)

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_verdict_is_the_exact_comparison(self, bits):
        # pairs (man, exp) of either sign and times 1, 3 and 10^20 + 7,
        # from far off the bound to a few units of the residual's last bit
        # either side of it, against the rule on exact Fractions; the gap
        # is |residual| rounded once to precision_bits
        ctx = _ctx_at(bits)
        rng = random.Random(bits)
        decisions = set()
        for times in (1, 3, 10 ** 20 + 7):
            for _ in range(40):
                scale = (rng.choice((1, -1)) * rng.getrandbits(2 * bits), rng.randint(-900, 900))
                bound = abs(_value(scale)) / (times * 10 ** ctx.tol_exp)  # of |residual|
                shift = rng.randint(1, 2 * bits)
                near = math.floor(bound * 2 ** shift)
                mans = [near + d for d in range(-3, 4)] + [rng.getrandbits(bits), near << 40, 1]
                for man in mans:
                    residual = (rng.choice((1, -1)) * man, -shift)
                    gap, passed = ctx.verdict(residual, scale, times)
                    exact = times * abs(_value(residual)) * 10 ** ctx.tol_exp < abs(_value(scale))
                    assert passed == exact, (times, residual, scale)
                    assert gap._mpf_ == from_man_exp(abs(residual[0]), -shift, bits, round_nearest)
                    decisions.add(passed)
        assert decisions == {True, False}

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_a_residual_at_the_bound_fails(self, bits):
        # 1 against 10^tol_exp is exactly at the bound; one unit of the
        # residual's last bit under it passes, and so does 1 against one
        # unit more of scale
        ctx = _ctx_at(bits)
        at = 10 ** ctx.tol_exp
        assert not ctx.verdict((1, 0), (at, 0))[1]
        assert not ctx.verdict((-1, 0), (-at, 0))[1]
        assert not ctx.verdict((1, 5), (at, 5))[1]
        assert not ctx.verdict((1, 0), (3 * at, 0), 3)[1]
        assert ctx.verdict(((1 << bits) - 1, -bits), (at, 0))[1]
        assert ctx.verdict((1, 0), (at + 1, 0))[1]

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_zero_operands(self, bits):
        # a zero scale fails every residual, zero included; a zero residual
        # passes every nonzero scale, at any exponent either side
        ctx = _ctx_at(bits)
        for exp in (0, -10 ** 20, 10 ** 20):
            for man in (0, 1, -1, 10 ** 400):
                assert not ctx.verdict((man, exp), (0, 0))[1]
                assert not ctx.verdict((man, 0), (0, exp))[1]
            for s_man in (1, -1, 10 ** 400):
                gap, passed = ctx.verdict((0, exp), (s_man, -exp))
                assert passed and gap == 0

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("gap", [10 ** 20, -10 ** 20])
    def test_a_wide_exponent_gap_decides_at_once(self, bits, gap, traced_peak):
        # the continued fraction's bracket near the solve bound lies about
        # 10^20 bits under its scale: the verdict decides by bit lengths,
        # so no integer grows with the gap
        ctx = _ctx_at(bits)
        cases = [
            ((1, gap), (1, 0), gap < 0),
            ((-(3 ** 500), 0), (7, gap), gap > 0),
            ((1, -gap), (10 ** ctx.tol_exp + 1, -gap), True),
        ]
        for residual, scale, want in cases:
            (_, passed), peak = traced_peak(ctx.verdict, residual, scale)
            assert passed == want, (residual, scale)
            assert peak < 1 << 20, peak
            spent = min(_seconds(ctx.verdict, residual, scale) for _ in range(5))
            assert spent < 1e-3, spent


def _seconds(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _value(x):
    """man 2^exp, given as (man, exp), as an exact Fraction."""
    return Fraction(x[0]) * Fraction(2) ** x[1]


def _floats_at(bits, seed):
    """_Floats around `bits` bits: mantissa 1, all-ones and power-of-two
    mantissas of exactly `bits` bits and one either side, and seeded random
    mantissas up to twice that length, with exponents of both signs."""
    rng = random.Random(seed)
    mans = [1, 3, (1 << bits) - 1, 1 << bits, 1 << (bits - 1), (1 << (bits + 1)) - 1]
    mans += [rng.getrandbits(rng.randint(1, 2 * bits + 9)) | 1 for _ in range(40)]
    return [(m, rng.randint(-700, 700)) for m in mans]


class TestMantissaArithmetic:
    """The kernel's one mantissa arithmetic against exact Fraction
    arithmetic: each result is the exact value truncated toward zero at the
    unit of its own last bit (a difference to within one unit either way),
    so each cut product loses under 2^(1 - bits) of its value."""

    BITS = [2, 53, 200, 1088]

    @pytest.mark.parametrize("bits", BITS)
    def test_truncated_keeps_the_top_bits(self, bits):
        for man, exp in _floats_at(bits, bits):
            m, e = bk._truncated(man, exp, bits)
            assert m.bit_length() == min(bits, man.bit_length())
            assert 0 <= _value((man, exp)) - _value((m, e)) < Fraction(2) ** e
            if man.bit_length() <= bits:
                assert (m, e) == (man, exp)

    @pytest.mark.parametrize("bits", BITS)
    def test_mul_is_the_exact_product_truncated(self, bits):
        xs = _floats_at(bits, bits + 1)
        for x, y in zip(xs, xs[1:] + xs[:1]):
            m, e = bk._mul(x, y, bits)
            exact = _value(x) * _value(y)
            assert (m, e) == bk._truncated(x[0] * y[0], x[1] + y[1], bits)
            assert 0 <= exact - _value((m, e)) < Fraction(2) ** e
            assert exact - _value((m, e)) < exact * Fraction(2) ** (1 - bits)

    @pytest.mark.parametrize("bits", BITS)
    def test_pow_loses_under_n_minus_one_cuts(self, bits):
        # x^n is formed by n - 1 cut products, counted with the powers they
        # feed, so it lies below x^n by under (n - 1) 2^(1 - bits) of it
        for x in _floats_at(bits, bits + 2)[::4]:
            for n in (1, 2, 3, 4, 5, 6, 12, 13, 24):
                m, _ = got = bk._pow(x, n, bits)
                exact = _value(x) ** n
                assert 0 <= exact - _value(got) <= exact * (n - 1) * Fraction(2) ** (1 - bits)
                assert m.bit_length() <= max(bits, x[0].bit_length())
            assert bk._pow(x, 1, bits) == x

    @pytest.mark.parametrize("bits", BITS)
    def test_quo_is_the_exact_quotient_truncated(self, bits):
        xs = _floats_at(bits, bits + 3)
        for x, y in zip(xs, xs[2:] + xs[:2]):
            m, e = bk._quo(x, y, bits)
            exact = _value(x) / _value(y)
            assert 0 <= exact - _value((m, e)) < Fraction(2) ** e
            assert m.bit_length() in (bits, bits + 1)

    @pytest.mark.parametrize("bits", BITS)
    def test_plus_truncates_each_operand_at_one_unit(self, bits):
        xs = _floats_at(bits, bits + 4)
        for x, y in zip(xs, xs[3:] + xs[:3]):
            top = max(v[0].bit_length() + v[1] for v in (x, y))
            m, e = bk._plus(x, y, bits)
            assert e == top - bits
            assert 0 <= _value(x) + _value(y) - _value((m, e)) < 2 * Fraction(2) ** e
            big, small = sorted((x, y), key=_value, reverse=True)
            m, e = bk._plus(big, small, bits, -1)
            assert abs(_value(big) - _value(small) - _value((m, e))) < Fraction(2) ** e
            assert m >= 0

    @pytest.mark.parametrize("bits", BITS)
    def test_root_is_the_exact_root_truncated(self, bits):
        for x in _floats_at(bits, bits + 5):
            m, e = bk._root(x, bits)
            unit = Fraction(2) ** e
            assert _value((m, e)) ** 2 <= _value(x) < (_value((m, e)) + unit) ** 2
            assert m.bit_length() in (bits, bits + 1)

    def test_pi_is_truncated_pi(self):
        for bits in (10, 300, 4200):
            with workprec(bits + 64):
                gap = mp.pi - _exact(*bk._pi(bits))
                assert 0 <= gap < mpf(2) ** -bits

    @pytest.mark.parametrize("bits", BITS)
    def test_term_sum_is_the_exact_sum_of_its_cut_terms(self, bits):
        # every term is cut at the unit that gives the largest `bits` bits,
        # and the sum and the largest |term| are exact there
        rng = random.Random(bits + 6)
        xs = _floats_at(bits, bits + 6)
        cases = [[(1, 0, 5)], [(3, 0, 0), (-2, 0, -9)]]
        for i in range(0, len(xs) - 4, 4):
            terms = [(rng.choice((1, -1, 5, -16, 256)), *x) for x in xs[i:i + 4]]
            terms[0] = (terms[0][0], terms[0][1], terms[1][2])  # two terms on one scale
            cases.append(terms)
        cases.append([(1, *xs[0]), (-1, *xs[0])])  # a sum that cancels to 0
        for terms in cases:
            total, scale = bk._term_sum(terms, bits)
            tops = [man.bit_length() + exp for _, man, exp in terms if man]
            unit = Fraction(2) ** ((max(tops) if tops else 0) - bits)
            cut = [c * (_value((man, exp)) // unit) * unit for c, man, exp in terms]
            assert _value(total) == sum(cut)
            assert _value(scale) == max(map(abs, cut))


def _error_text(call):
    """The text of the BranchError or CertificationError that call raises."""
    try:
        call()
    except (BranchError, CertificationError) as e:
        return str(e)
    raise AssertionError("no error raised")


class TestAmbientPrecision:
    """The integer kernels and the values built on them switch no working
    precision: they compute on integers and mantissas after to_big and
    round at stated bits, so the caller's mp.prec moves no bit of what they
    return, records included, nor of a conversion or an error's text."""

    @pytest.mark.parametrize("as_mpf", [False, True], ids=["str", "mpf"])
    @pytest.mark.parametrize("bits", [512, 1024])
    @pytest.mark.parametrize(
        "fn, args",
        [
            (agm, ("0.3217", "2.5")),
            (elliptic_K, ("0.8",)),
            (closed_form_R, ("7.25",)),
            (descend_v, ("0.27",)),
            (descend_a, ("-3.5",)),
            (u_star, ("1.3",)),
            (u_star, ("0.45",)),
            (eta_f, ("0.04",)),
            (complement, ("0.6",)),
            (rrcf_converged, ("0.04",)),
            (rrcf_truncated, ("0.04", 7)),
            (a_via_eta, (7, 3)),
            (a_via_eta, (1, 100)),
            (a_via_moduli, (7, 3)),
            (a_value, (1, 13)),
            (rrcf_value, (7, 3)),
            (rrcf_value, (1, 100)),
            (u_map, ("1.3",)),
            (g_invariant, (7, 3)),
            (p_map, ("1.3",)),
        ],
        ids=lambda v: v.__name__ if callable(v) else "-".join(map(str, v)),
    )
    def test_same_bits_at_any_ambient_precision(self, fn, args, bits, as_mpf):
        ctx = _ctx_at(bits)
        if as_mpf:
            # more bits than work_bits, so to_big rounds them
            with workprec(4 * bits):
                args = tuple(mpf(a) if isinstance(a, str) else a for a in args)

        def raw(out):  # rrcf_converged's (value, depth) and the records field by field
            return tuple(map(raw, out)) if isinstance(out, tuple) else getattr(out, "_mpf_", out)

        got = [raw(fn(*args, ctx))]
        for prec in (53, 8000):
            with workprec(prec):
                got.append(raw(fn(*args, ctx)))
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize(
        "case",
        [
            lambda: to_big("0.1", _ctx_at(256))._mpf_,
            lambda: to_big(0.1, _ctx_at(256))._mpf_,
            lambda: to_big(Fraction(2 ** 700 + 1, 3 ** 441), _ctx_at(256))._mpf_,
            lambda: str_to_big("0.1", 256)._mpf_,
            lambda: big_to_str(Fraction(2 ** 700 + 1, 3 ** 441), 256),
            # a rung's miss: its relative miss and 1/|1 - 2k^2|
            lambda: _error_text(lambda: ladder(5, 1, 1, kkprime_r0="0.1")),
        ],
        ids=["to_big-str", "to_big-float", "to_big-Fraction", "str_to_big",
             "big_to_str-Fraction", "missed"],
    )
    def test_conversions_and_messages(self, case):
        got = [case()]
        for prec in (53, 8000):
            with workprec(prec):
                got.append(case())
        assert got[0] == got[1] == got[2]

    def test_branch_error_text(self, monkeypatch):
        # a Newton that never moves fails the cubic's gate: the message's
        # numbers are rounded at stated bits
        monkeypatch.setattr(ql, "_newton_int", lambda w, c, bits: w)
        got = [_error_text(lambda: u_map("1.25"))]
        for prec in (53, 8000):
            with workprec(prec):
                got.append(_error_text(lambda: u_map("1.25")))
        assert got[0] == got[1] == got[2]
        assert got[0].endswith("fails the defining relation (relative residual 2.07208e-17)")

    @pytest.mark.parametrize(
        "fn, x, quoted",
        [
            (to_big, "inf", "+inf"),
            (elliptic_K, Fraction(4, 3), "1.33333333333333"),
            (eta_f, Fraction(4, 3), "1.33333333333333"),
            (closed_form_R, Fraction(-37, 3), "-12.3333333333333"),
            (descend_v, Fraction(4, 3), "1.33333333333333"),
            (descend_a, Fraction(-37, 3), "-12.3333333333333"),
            (u_map, Fraction(-1, 3), "-0.333333333333333"),
            (u_star, Fraction(-1, 3), "-0.333333333333333"),
            (p_map, Fraction(-1, 3), "-0.333333333333333"),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_refusal_text(self, fn, x, quoted):
        # a refused real is quoted at 15 significant digits, as str() gives
        # it at mpmath's default, whatever mp.dps the caller has set
        def text():
            with pytest.raises(DomainError) as err:
                fn(x)
            return str(err.value)

        got = [text()]
        for dps in (5, 40):
            with mp.workdps(dps):
                got.append(text())
        assert got[0] == got[1] == got[2]
        assert got[0].endswith(", got " + quoted)


class TestNonFinite:
    """Every public function that takes a Real reads it through to_big,
    which refuses +-inf and nan with DomainError: before, u_map, u_star,
    p_map and descend_a returned 0.0 at +inf, closed_form_R(inf) 1/phi,
    elliptic_K(nan) pi/2, and agm ran 10 000 steps into ConvergenceError."""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", math.inf, -math.inf, math.nan,
                                       mp.inf, -mp.inf, mp.nan], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: to_big(x),
            lambda x: agm(1, x),
            lambda x: agm(x, 1),
            lambda x: elliptic_K(x),
            lambda x: eta_f(x),
            lambda x: rrcf_truncated(x, 7),
            lambda x: rrcf_converged(x),
            lambda x: closed_form_R(x),
            lambda x: descend_v(x),
            lambda x: descend_a(x),
            lambda x: u_map(x),
            lambda x: u_star(x),
            lambda x: p_map(x),
            lambda x: ladder(5, 1, 1, kkprime_r0=x),
            lambda x: ladder(5, 1, 1, kkprime_r0_over25=x),
        ],
        ids=["to_big", "agm-b", "agm-a", "elliptic_K", "eta_f", "rrcf_truncated",
             "rrcf_converged", "closed_form_R", "descend_v", "descend_a", "u_map",
             "u_star", "p_map", "ladder-kkprime_r0", "ladder-kkprime_r0_over25"],
    )
    def test_refused(self, call, value):
        with pytest.raises(DomainError, match="^expected a finite real"):
            call(value)


class TestRawQ:
    """The q-series read q's raw tuple: whether 0 < q < 1, and -ln q as the
    very float the mpf expression gave."""

    def test_open_unit_is_the_mpf_comparison(self):
        with workprec(700):
            xs = [mpf(0), mpf(-0.2), mpf(1), mpf("1.5"), mpf(0.5), mpf(2) ** -5000,
                  1 - mpf(2) ** -600, 1 + mpf(2) ** -600, mp.inf, -mp.inf, mp.nan]
        for x in xs:
            assert bk._in_open_unit(x) == (0 < x < 1), x

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_neg_ln_is_the_mpf_expression(self, bits):
        # the expression rrcf_converged evaluated inside workprec(work_bits)
        # and eta_f at the default mp.prec, on q from 2^-5000 up to within
        # 2^-work_bits of 1, across 1/2 and the subnormal 1 - q
        ctx = _ctx_at(bits)

        def old(x):
            if x > 0.5:
                return -math.log1p(-float(1 - x))
            return -(math.log(x.man) + x.exp * math.log(2))

        rng = random.Random(bits)
        with workprec(ctx.work_bits):
            half, one = mpf(0.5), mpf(1)
            qs = [mpf(2) ** -5000, mpf("1e-300"), mpf("0.04"), nome(1, 1, ctx), half,
                  half - mpf(2) ** -ctx.work_bits, mpf("0.75"), mpf("0.999")]
            for n in (1, 2, 60, 100, 1000, 1071, ctx.work_bits - 1, ctx.work_bits):
                qs += [half + mpf(2) ** -n, one - mpf(2) ** -n, one - 3 * mpf(2) ** -n]
            qs += [mpf((rng.getrandbits(ctx.work_bits), -ctx.work_bits)) for _ in range(20)]
            qs += [one - mpf((rng.getrandbits(40) | 1, -1100)), mpf(1) / 3 + mpf(1) / 3]
        qs = [q for q in qs if 0 < q < 1]
        for q in qs:
            with workprec(ctx.work_bits):
                assert bk._neg_ln(q).hex() == old(q).hex(), q._mpf_
            with workprec(53):
                assert bk._neg_ln(q).hex() == old(q).hex(), q._mpf_


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

    @pytest.mark.parametrize("bits", [256, 512, 4096])
    @pytest.mark.parametrize("ratio", ["1 - 2^-600", "1/2", "1e-30", "k at r = 10^6"])
    def test_against_mpmath_agm(self, ratio, bits):
        # b/a spans nearly equal operands (integer phase only), a ratio the
        # integer phase starts on, and tiny ratios that step in mpf first;
        # k at r = 10^6 is 4 e^(-500 pi) to about 2^-4500
        ctx = _ctx_at(bits)
        with workprec(2 * ctx.work_bits):
            b_over_a = {
                "1 - 2^-600": 1 - mpf(2) ** -600,
                "1/2": mpf(1) / 2,
                "1e-30": mpf(10) ** -30,
                "k at r = 10^6": 4 * mp.exp(-500 * mp.pi),
            }[ratio]
            for scale in (1, mpf(2) ** 1000, mpf(2) ** -1000):
                a, b = to_big(scale, ctx), to_big(scale * b_over_a, ctx)
                for x, y in ((a, b), (b, a)):
                    got = agm(x, y, ctx)
                    assert abs(got / mp.agm(x, y) - 1) < mpf(2) ** -bits, (scale, x < y)

    def test_domain(self):
        with pytest.raises(DomainError):
            agm(0, 1)
        with pytest.raises(DomainError):
            agm(1, -2)


def _finish_moduli(ctx):
    """k from 2.6e-682 (r = 10^6) to 1 - 2^-100, at working precision."""
    with workprec(ctx.work_bits + 100):
        ks = [4 * mp.exp(-500 * mp.pi), mpf(10) ** -30, mpf("0.01"), mpf("0.3"),
              1 / sqrt(mpf(2)), mpf("0.9"), 1 - mpf(2) ** -50, 1 - mpf(2) ** -100]
    return [to_big(k, ctx) for k in ks]


class TestAgmFinish:
    """The integer phase stops at |a - b| < 2^(-(work_bits + 40)/4) a and
    adds the closing term -(a - b)^2 / (8 (a + b)); what it leaves out is
    below the guard bits."""

    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_limit_within_its_documented_bound(self, bits):
        # b loses up to _INT_BITS bits where it goes onto a's scale, and
        # agm(1, k) sees that through 1/ln 2^34: below 2^28 units of
        # 2^-(work_bits + 32), where the closing term alone is below 2^-15
        ctx = _ctx_at(bits)
        for r in (1, 10 ** 6, 10 ** 20, bk._R_MAX):
            k = solve_singular_modulus(r, 1, ctx).k
            man, exp = bk._agm_raw(mpf(1), k, ctx)
            with workprec(ctx.work_bits + 300):
                err = abs(mp.ldexp(mpf(man), exp) / mp.agm(1, k) - 1)
                assert err < mpf(2) ** (28 - ctx.work_bits - 32), (r, bits)

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_solver_legs_match_mp_agm(self, bits):
        ctx = _ctx_at(bits)
        legs = [k for rn, rd in ((10 ** 6, 1), (1, 1), (1, 10 ** 4))
                for rec in [solve_singular_modulus(rn, rd, ctx)] for k in (rec.k, rec.k_comp)]
        for k in legs + _finish_moduli(ctx):
            with workprec(ctx.work_bits):
                man, exp = bk._agm_raw(mpf(1), k, ctx)
            with workprec(2 * ctx.work_bits):
                got = mp.ldexp(mpf(man), exp)
                assert abs(got / mp.agm(1, k) - 1) < mpf(2) ** (2 - ctx.work_bits), k

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_agm_and_K_keep_their_bits(self, bits):
        # the same bits as the two-phase AGM that stopped a step later
        ctx = _ctx_at(bits)
        for k in _finish_moduli(ctx):
            ref = ov.agm_two_phase(1, k, bits)
            with workprec(ctx.work_bits):
                ref_K = mp.pi / (2 * ov.agm_two_phase(1, _complement_of(k, ctx.work_bits), bits))
            with workprec(bits):
                assert agm(1, k, ctx)._mpf_ == (+ref)._mpf_, k
                if k < 1:
                    assert elliptic_K(k, ctx)._mpf_ == (+ref_K)._mpf_, k


class TestComplement:
    """bk._complement, sqrt(1 - x) of a modulus's square x, at the default
    context's 512 bits unless a test says otherwise."""

    def test_pythagorean(self):
        k = to_big("0.1188769458")
        with workprec(600):
            assert abs(k ** 2 + _complement_of(k, 512) ** 2 - 1) < mpf(10) ** -150

    def test_near_one_keeps_precision(self):
        # k' of a modulus extremely close to 0 must stay exactly 1-ish
        # without the (1-k)(1+k) product collapsing
        k = to_big("1e-100")
        with workprec(600):
            assert abs(_complement_of(k, 512) - (1 - mpf(10) ** -200 / 2)) < mpf(10) ** -250

    def test_endpoints(self):
        # x = 0 gives 1, and every x >= 1 gives 0
        assert bk._complement((0, 0), 512) == bk._complement((0, -900), 512) == 1
        for x in ((1, 0), (4, -2), (3, -1), (5, 3), (1 << 600 | 1, -600)):
            assert bk._complement(x, 512)._mpf_ == mpf(0)._mpf_, x

    @pytest.mark.parametrize("prec", [256, 512, 1024, 4096])
    def test_tiny_square_is_the_root_path_on_both_sides_of_the_skip(self, prec):
        # x = m 2^e with e + bc at the last exponent that skips the root
        # (e + bc <= -(prec + 2)) and above it: both give the bits of
        # mpmath's root of the exact 1 - x, and on the skipping side that is 1
        rng = random.Random(prec)
        last = -(prec + 2)
        for top in (last - 40, last, last + 1, last + 2, last + 3):
            for bc in (1, 2, 53, prec, 2 * prec + 3):
                man = 1 << bc - 1 | rng.getrandbits(bc - 1) | 1 if bc > 1 else 1
                for m in (man, (1 << bc) - 1 or 1):
                    exp = top - bc
                    exact = from_man_exp((1 << -exp) - m, exp)
                    root = mpf_sqrt(exact, prec, round_nearest)
                    assert bk._complement((m, exp), prec)._mpf_ == root, (top, bc)
                    if top <= last:
                        assert root == mpf(1)._mpf_

    @pytest.mark.parametrize("prec", [64, 65, 577, 1088, 2049, 4160])
    def test_square_gives_the_bits_of_the_complement_of_k(self, prec):
        # the complement of k's mantissa squared against the earlier
        # spelling from k itself: at k = 0 and 1, with k^2 on both sides of
        # 2^-(prec + 2) (at odd prec the square's skip is one bit looser,
        # and both sides of that bit give 1), near 1 and at random
        rng = random.Random(prec)
        ks = [mpf(0), mpf(1)]
        for top in range(-(prec + 2) // 2 - 3, -(prec + 2) // 2 + 4):
            for bc in (1, 2, 3, 53, prec // 2, prec, prec + 7):
                for m in (1 << bc - 1, (1 << bc) - 1 or 1, 1 << bc - 1 | rng.getrandbits(bc - 1)):
                    ks.append(mp.make_mpf(from_man_exp(m, top - bc)))
        ks += [mp.make_mpf(from_man_exp((1 << j) - 1, -j)) for j in (1, 2, 30, prec, prec + 5)]
        ks += [mp.make_mpf(from_man_exp((1 << prec) - rng.getrandbits(40), -prec))
               for _ in range(20)]
        for _ in range(200):
            bits = rng.randint(1, prec + 70)
            ks.append(_exact(rng.getrandbits(bits) | 1, -bits - rng.randint(0, 3 * prec)))
        for k in ks:
            assert _complement_of(k, prec)._mpf_ == ov.complement_of_k(k, prec)._mpf_, k._mpf_


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
        assert _ellipk_residual(rec, rn, rd, bits) < ov.tolerance(ctx)

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
                assert rec.residual < ov.tolerance(ctx)
                with workprec(2 * bits):
                    ratio = rec.K_kcomp / rec.K_k
                    assert abs(ratio - sqrt(mpf(rn) / rd)) < ov.tolerance(ctx)

    def test_reciprocal_symmetry(self):
        # k'_r = k_(1/r), relative to the size of k'_r (it is tiny for small r)
        cases = [(rn, rd, 512) for rn, rd in [(5, 1), (3, 2), (7, 1)]]
        cases += [(rn, rd, bits) for bits in (512, 4096) for rn, rd in DEEP_RECIPROCALS]
        for rn, rd, bits in cases:
            ctx = _ctx_at(bits)
            rec = solve_singular_modulus(rn, rd, ctx)
            inv = solve_singular_modulus(rd, rn, ctx)
            with workprec(2 * bits):
                assert abs(inv.k - rec.k_comp) <= rec.k_comp * ov.tolerance(ctx)

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


class TestThetaQuotient:
    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    @pytest.mark.parametrize("r", ["1", "7/3", "10", "1000", "12962", "1000000"])
    def test_matches_jtheta(self, r, bits):
        # the solver's one integer pass over the powers of q against
        # mpmath's theta functions, at the nome the solver evaluates
        ctx = _ctx_at(bits)
        r = Fraction(r)
        with workprec(ctx.work_bits):
            q = bk._exp_nome(r.numerator, r.denominator, ctx)
            quotient, square = bk._theta_quotient(q, ctx)
        # the quotient and theta3^2, the square it divides by
        for got, ref in ((_exact(*quotient), ov.theta_quotient(q, ctx.work_bits)),
                         (_exact(*square), ov.theta3_squared(q, ctx.work_bits))):
            assert bk._rounded(ctx, got) == bk._rounded(ctx, ref)
            # and a few ulps apart at working precision, where each side rounds
            with workprec(ctx.work_bits + 64):
                assert abs(got / ref - 1) < mpf(2) ** (4 - ctx.work_bits)

    @pytest.mark.parametrize("bits", [256, 512, 1024, 4096])
    @pytest.mark.parametrize("r", ["1", "7/3", "10", "100", "10000", "1000000",
                                   "100000000000000000000", str(bk._R_MAX)])
    def test_sum_at_q4_matches_the_direct_sum(self, r, bits):
        # theta3(q) = theta3(q^4) + theta2(q^4) and Jacobi's identity give
        # the quotient from sums at q^4; the direct sum at q is the oracle
        ctx = _ctx_at(bits)
        r = Fraction(r)
        q = bk._exp_nome(r.numerator, r.denominator, ctx)
        got, ref = bk._theta_quotient(q, ctx)[0], ov.theta_quotient_direct(q, ctx.work_bits)
        assert bk._rounded(ctx, got) == bk._rounded(ctx, ref)
        with workprec(ctx.work_bits + 64):
            assert abs(_exact(*got) / _exact(*ref) - 1) < mpf(2) ** -(ctx.work_bits + 16)


class TestIntegerSolve:
    """The solve on integers from nome to record gives every field but the
    residual the bits of its earlier mpf spelling (ov.solve_mpf): the mpf
    wide-gap AGM head, the mpf complement, the theta quotient rounded
    twice, and K of the small modulus as (pi/2) theta3^2 from mpmath's
    jtheta.  Only the residual's low digits may differ, where the AGM leg
    takes wide-gap steps."""

    @pytest.mark.parametrize("bits", sorted(ov.TOL_EXP))
    def test_fields_keep_their_bits(self, bits):
        ctx = _ctx_at(bits)
        for r in ("1/10000", "1/5822", "1/13", "1", "7/3", "3125", "400000", "1000000"):
            r = Fraction(r)
            rec = solve_singular_modulus(r.numerator, r.denominator, ctx)
            ref = ov.solve_mpf(r.numerator, r.denominator, bits)
            for name, value in ref.items():
                assert getattr(rec, name)._mpf_ == value._mpf_, (str(r), name)


class TestKRoundsToOne:
    """Below some r the reflected k = sqrt(1 - k'^2) is the correctly
    rounded 1 at the output precision.  As in the mirror case for large r,
    the other member of the pair, k_comp, carries the digits, and the
    K-ratio still certifies."""

    @pytest.mark.parametrize("rn,rd,bits", [(1, 3400, 256), (1, 13000, 512)])
    def test_k_is_one(self, rn, rd, bits):
        ctx = _ctx_at(bits)
        rec = solve_singular_modulus(rn, rd, ctx)
        assert rec.k == 1
        # the mirror solve's k, bit for bit
        assert rec.k_comp == solve_singular_modulus(rd, rn, ctx).k
        assert 0 < rec.k_comp < rec.k
        with workprec(ctx.work_bits):
            assert ctx.verdict(ov.pair(rec.residual), ov.pair(sqrt(mpf(rn) / rd)))[1]
        assert _ellipk_residual(rec, rn, rd, bits) < ov.tolerance(ctx)

    @pytest.mark.parametrize("rn,rd,bits", [(1, 3000, 256), (1, 12000, 512)])
    def test_just_above_still_certifies(self, rn, rd, bits):
        ctx = _ctx_at(bits)
        rec = solve_singular_modulus(rn, rd, ctx)
        assert 0 < rec.k_comp < rec.k < 1
        assert _ellipk_residual(rec, rn, rd, bits) < ov.tolerance(ctx)


class TestKCompRoundsToOne:
    """The mirror case is kept: for large r, k_comp = sqrt(1 - k^2) is the
    correctly rounded 1.  k keeps its digits, and K(k_comp) comes from
    agm(1, k), so the solve still certifies."""

    @pytest.mark.parametrize("rn,k_comp_is_one", [(12961, False), (12962, True)])
    def test_threshold_at_512_bits(self, rn, k_comp_is_one):
        ctx = _ctx_at(512)
        rec = solve_singular_modulus(rn, 1, ctx)
        assert (rec.k_comp == 1) is k_comp_is_one
        assert rec.k_comp <= 1
        assert 0 < rec.k < 1
        assert rec.residual < ov.tolerance(ctx)


class TestSolvableBound:
    """No integer a solve builds grows with r: the AGM's wide-gap steps keep
    each operand on its own scale.  The one bound left, _R_MAX, is the
    certificate's: the largest R with pi sqrt(R)/2 <= 10^20."""

    @staticmethod
    def _widest(monkeypatch, fn, *args):
        """The widest integer fn(*args) makes with _fixed or hands to
        math.isqrt inside the AGM."""
        widths, in_agm = [0], [False]
        fixed, isqrt, agm_raw = bk._fixed, math.isqrt, bk._agm_raw

        def spy_fixed(man, exp, frac):
            value = fixed(man, exp, frac)
            widths.append(value.bit_length())
            return value

        def spy_isqrt(n):
            if in_agm[0]:
                widths.append(n.bit_length())
            return isqrt(n)

        def spy_agm(*agm_args):
            in_agm[0] = True
            try:
                return agm_raw(*agm_args)
            finally:
                in_agm[0] = False

        monkeypatch.setattr(bk, "_fixed", spy_fixed)
        monkeypatch.setattr(math, "isqrt", spy_isqrt)
        monkeypatch.setattr(bk, "_agm_raw", spy_agm)
        fn(*args)
        monkeypatch.undo()
        return max(widths)

    @pytest.mark.parametrize(
        "r", [(10 ** 8, 1), (1, 10 ** 8), (10 ** 6, 7), (10 ** 20, 1), (4 * 10 ** 39, 1)]
    )
    def test_widest_integer_is_set_by_the_precision(self, r, monkeypatch):
        ctx = _ctx_at(256)
        widest = self._widest(monkeypatch, bk.solve_singular_modulus, *r, ctx)
        assert widest <= 2 * (ctx.work_bits + 32) + 8, widest

    def test_public_agm_of_a_tiny_operand_builds_no_wider_integer(self, monkeypatch):
        ctx = _ctx_at(512)
        widest = self._widest(monkeypatch, agm, 1, "1e-1000000", ctx)
        assert widest <= 2 * (ctx.work_bits + 32) + 8, widest
        with workprec(2 * ctx.work_bits):
            expected = mp.agm(1, mpf("1e-1000000"))
            assert abs(agm(1, "1e-1000000", ctx) / expected - 1) < mpf(2) ** -ctx.precision_bits

    def test_bound_is_the_largest_r_within_twenty_digits(self):
        with workprec(400):
            def half_pi_root(big):
                return mp.pi * sqrt(big) / 2

            assert half_pi_root(bk._R_MAX) <= mpf(10) ** 20 < half_pi_root(bk._R_MAX + 1)
        ctx = _ctx_at(256)
        for n, d in ((bk._R_MAX, 1), (1, bk._R_MAX), (3 * bk._R_MAX - 1, 3)):
            rec = bk.solve_singular_modulus(n, d, ctx)
            assert 0 < min(rec.k, rec.k_comp) < max(rec.k, rec.k_comp) == 1
        for n, d in ((bk._R_MAX + 1, 1), (1, bk._R_MAX + 1), (3 * bk._R_MAX + 1, 3)):
            with pytest.raises(DomainError, match="max\\(r, 1/r\\) must not exceed %d$" % bk._R_MAX):
                bk.solve_singular_modulus(n, d, ctx)

    def test_library_refuses_before_the_nome(self, monkeypatch):
        monkeypatch.setattr(bk, "_exp_nome", None)  # any call would raise TypeError
        for args in ((bk._R_MAX + 1, 1), (1, bk._R_MAX + 1), (10 ** 44, 1)):
            with pytest.raises(DomainError, match="lies past the bound that keeps a ladder rung within"):
                bk.solve_singular_modulus(*args)

    @pytest.mark.parametrize(
        "fn,args,point",
        [
            (a_via_moduli, (10 ** 39, 1), "25%s/1" % ("0" * 39)),
            (a_value, (1, 10 ** 41), "1/10%s" % ("0" * 40)),
            (run_suite, (10 ** 38, 1), "10%s/1" % ("0" * 39)),
            (ladder, (5, 1, 10 ** 9), "%d/1" % (5 * 25 ** 28)),
        ],
    )
    def test_callers_raise_the_solves_refusal(self, fn, args, point):
        with pytest.raises(DomainError, match="a solve at r = %s lies past the bound" % point):
            fn(*args)


#: R = 1, 7/3, 7, 100, 10^6, 10^20 and the bound, and their reciprocals
_WIDE_RS = [Fraction(r) for r in ("7/3", "7", "100", "1000000", "1" + "0" * 20, str(bk._R_MAX))]
_WIDE_RS = [Fraction(1)] + _WIDE_RS + [1 / r for r in _WIDE_RS]


class TestSolveVouchesForTolExpDigits:
    """The K-ratio moves by only about d / S for a relative error d in the
    small modulus, S = 2 k'^2 K K' / pi <= pi sqrt(R)/2, and at R = 1 by
    0.457 d, as K of the small modulus comes from theta3^2 and only the AGM
    leg sees d; the solve gates its residual times an integer above S, so a
    k off by 10^-tol_exp fails at every R."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    @pytest.mark.parametrize("r", _WIDE_RS, ids=lambda r: "%d/%d" % (r.numerator, r.denominator))
    def test_a_small_modulus_off_by_the_tolerance_fails(self, monkeypatch, r, bits, sign):
        ctx = _ctx_at(bits)
        bk.solve_singular_modulus(r.numerator, r.denominator, ctx)  # certifies as computed
        theta_quotient, scale = bk._theta_quotient, 10 ** ctx.tol_exp

        def perturbed(q, ctx):
            (man, exp), square = theta_quotient(q, ctx)
            return (man * (scale + sign) // scale, exp), square  # theta3^2 as computed

        monkeypatch.setattr(bk, "_theta_quotient", perturbed)
        with pytest.raises(ConvergenceError, match="left residual"):
            bk.solve_singular_modulus(r.numerator, r.denominator, ctx)


class TestOneAgmLeg:
    """A solve runs one AGM leg, agm(1, small), for K of the larger modulus,
    and takes K of the small one as (pi/2) theta3^2 from its theta pass."""

    @pytest.mark.parametrize("r", [(7, 3), (3, 7), (1, 1), (10 ** 6, 1), (1, 10 ** 6)])
    def test_one_agm_and_one_quotient_by_pi(self, monkeypatch, r):
        calls = []
        for name in ("_agm_raw", "_half_pi_over"):
            def spy(*args, _name=name, _fn=getattr(bk, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(bk, name, spy)
        rec = bk.solve_singular_modulus(*r, _ctx_at(512))
        assert sorted(calls) == ["_agm_raw", "_half_pi_over"]
        assert 0 < min(rec.k, rec.k_comp) <= max(rec.k, rec.k_comp) <= 1

    @pytest.mark.parametrize("bits", [256, 512, 1024, 2048, 4096])
    def test_K_of_the_small_modulus_within_an_ulp(self, bits):
        # K(small) = (pi/2) theta3^2 against mpmath's ellipk at the exact
        # modulus, from jtheta, at twice the bits
        ctx = PrecisionContext(bits, 50)
        for big in (1, 7, 100, 10 ** 4, 10 ** 6, 10 ** 12, 10 ** 20):
            for rn, rd in ((big, 1), (1, big)):
                rec = solve_singular_modulus(rn, rd, ctx)
                got = rec.K_k if rn >= rd else rec.K_kcomp
                with workprec(2 * bits):
                    q = mp.exp(-mp.pi * sqrt(mpf(big)))
                    K = mp.ellipk(ov.theta_quotient(q, 2 * bits) ** 2)
                    ulp = mp.ldexp(1, mp.mag(got) - bits)
                    assert abs(got - K) <= ulp, (bits, rn, rd)


#: reflected points n/d: small n, large n and d, and d at the chain budget
#: 2^19 and one past it, where r and 1/r fall back to an exp each
_REFLECTED = [
    (1, 2), (1, 13), (3, 7), (9, 10), (7, 615), (1, 10 ** 4), (9, 10 ** 5 + 3),
    (99991, 99997), (1, 1 << 19), (5, 1 << 19), ((1 << 19) - 1, 1 << 19), (1, (1 << 19) + 1),
]


class TestReflectedNomes:
    """In a scope the nome lookup at r = n/d < 1 takes the nome y at 1/(nd)
    first, so the nomes at r and 1/r are y^n and y^d: two links of _nome's
    chains, each within 2 A units of 2^-work_bits of its exp, A its chain
    product.  A solve opens a scope where none is open."""

    @pytest.mark.parametrize("bits", [256, 512, 1024, 2048, 4096])
    def test_the_pair_lies_within_its_chain_bound(self, bits, exp_points):
        ctx = PrecisionContext(bits, 50)
        for n, d in _REFLECTED:
            del exp_points[:]
            with bk._request_memo():
                q_r, q = bk._nome(n, d, ctx), bk._nome(d, n, ctx)
            chained = d <= bk._NOME_CHAIN_MAX
            exps = [Fraction(1, n * d)] if chained else [Fraction(n, d), Fraction(d, n)]
            assert exp_points == exps
            for got, (a, b), chain in ((q_r, (n, d), n), (q, (d, n), d)):
                with workprec(2 * ctx.work_bits):
                    exact = mp.exp(-mp.pi * sqrt(mpf(a) / b))
                    error = abs(got / exact - 1) * mpf(2) ** ctx.work_bits
                assert error <= 2 * (chain if chained else 1), (n, d, a, b, error)

    def test_a_scope_holds_both_nomes_as_chain_links(self, exp_points):
        ctx = DEFAULT_CONTEXT
        with bk._request_memo():
            rec = bk.solve_singular_modulus(14, 1230, ctx)  # r = 7/615
            memo = bk._MEMO.get()
            assert memo[bk._key("nome", 1, 4305, ctx)][1] == 1
            q_r, chain_r = memo[bk._key("nome", 7, 615, ctx)]
            q, chain = memo[bk._key("nome", 615, 7, ctx)]
            assert (chain_r, chain) == (7, 615)
            assert rec.q == bk._rounded(ctx, q_r)
            assert bk._nome(7, 615, ctx) is q_r and bk._nome(615, 7, ctx) is q
            # a link from 1/r counts on from its 615: 25/r is its fifth power
            bk._nome(15375, 7, ctx)
            assert memo[bk._key("nome", 15375, 7, ctx)][1] == 5 * 615
        assert exp_points == [Fraction(1, 4305)]

    def test_a_nome_read_before_the_solve_is_its_base(self, exp_points):
        # the eta lookups of verify --r 3/7 read the nome at r first: the
        # solve then links 1/r from the same base and takes no exp
        ctx = DEFAULT_CONTEXT
        with bk._request_memo():
            held = bk._nome(3, 7, ctx)
            assert exp_points == [Fraction(1, 21)]
            assert bk.solve_singular_modulus(3, 7, ctx).q == bk._rounded(ctx, held)
            assert bk._MEMO.get()[bk._key("nome", 7, 3, ctx)][1] == 7
            # at r = 1/d the nome at r is the base, and 1/r its d-th power
            base = bk._nome(1, 13, ctx)
            bk.solve_singular_modulus(1, 13, ctx)
            assert bk._MEMO.get()[bk._key("nome", 13, 1, ctx)][1] == 13
            assert bk._nome(1, 13, ctx) is base
        assert exp_points == [Fraction(1, 21), Fraction(1, 13)]

    def test_a_solve_outside_a_scope_takes_one_exp_in_its_own(self, exp_points):
        bk.solve_singular_modulus(3, 7)
        assert exp_points == [Fraction(1, 21)]
        assert bk._MEMO.get() is None

    @pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    @pytest.mark.parametrize("r", [(1, 2), (1, 13), (3, 7), (7, 615), (1, 10 ** 4), (5, 1 << 19)],
                             ids=lambda r: "%d/%d" % r)
    def test_a_base_off_by_the_tolerance_fails_the_solve(self, monkeypatch, r, bits, sign):
        # y off by 10^-tol_exp moves the nome at 1/r by d times that, and the
        # small modulus by about half of it
        ctx = _ctx_at(bits)
        n, d = r
        bk.solve_singular_modulus(n, d, ctx)  # certifies as computed
        exp_nome, scale, perturbed = bk._exp_nome, 10 ** ctx.tol_exp, []

        def off(r_num, r_den, c):
            _, man, exp, _ = exp_nome(r_num, r_den, c)._mpf_
            perturbed.append((r_num, r_den))
            return mp.make_mpf(from_man_exp(man * (scale + sign) // scale, exp))

        monkeypatch.setattr(bk, "_exp_nome", off)
        with pytest.raises(ConvergenceError, match="left residual"):
            bk.solve_singular_modulus(n, d, ctx)
        assert perturbed == [(1, n * d)]


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
        assert _ellipk_residual(rec, r.numerator, r.denominator, bits) < ov.tolerance(ctx)


class TestTermsPastTheIntStrLimit:
    """A term of r past Python's 4300-digit int-to-str limit is quoted by its
    bit length in every message (bigmath_kernel._term_text), so each refusal
    and each failed gate raises its own typed error, never the ValueError of
    formatting it."""

    HUGE = 10 ** 5000

    @pytest.mark.parametrize("sign", [1, -1], ids=["past-the-bound", "negative"])
    @pytest.mark.parametrize("call", [
        lambda n: solve_singular_modulus(n, 1),
        lambda n: ladder(n, 1, 1),
        # the full registry sums eq5's q-series first, for seconds at this r
        lambda n: run_suite(n, 1) if n < 0 else run_suite(n, 1, ids=["eq10-multiplier"]),
        lambda n: rrcf_value(n, 1),
    ], ids=["solve", "ladder", "run_suite", "rrcf_value"])
    def test_refusal_quotes_the_term_by_its_size(self, call, sign):
        with pytest.raises(DomainError) as info:
            call(sign * self.HUGE)
        assert type(info.value) is DomainError
        assert ("-" if sign < 0 else "") + "<16610-bit integer>/1" in str(info.value)

    def test_a_missed_rung_quotes_its_point_by_size(self):
        # a seed far off the solved one misses level 1 at r near 1
        with pytest.raises(CertificationError, match=r"^ladder level 1 \(r = <16610-bit "
                           r"integer>/<16605-bit integer>\) missed the oracle"):
            ladder(self.HUGE + 1, self.HUGE, 1, kkprime_r0="0.3")

    def test_a_failed_route_gate_quotes_its_point_by_size(self, monkeypatch):
        closed = mc.closed_form_R
        monkeypatch.setattr(mc, "closed_form_R", lambda a, ctx: closed(a, ctx) * 2)
        with pytest.raises(CertificationError, match=r"^rrcf at r=<16610-bit integer>/"
                           r"<16610-bit integer>: closed form and continued fraction differ by "):
            rrcf_value(self.HUGE + 1, self.HUGE)

    def test_a_term_within_the_limit_is_its_decimal(self):
        assert bk._term_text(-10 ** 4000) == "-1" + "0" * 4000
        assert bk._term_text(Fraction(10 ** 4000, 3)) == "1" + "0" * 4000 + "/3"
        assert bk._term_text(Fraction(self.HUGE, 1)) == "<16610-bit integer>"


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
        self._against_product(r, bits)

    @pytest.mark.parametrize("bits", [512, 1024])
    def test_matches_euler_product_past_the_guard_bits(self, bits):
        # at the q of r = 1/10^4 the terms cancel by about 75 bits, more
        # than the 64 guard bits, so this shows unless the series adds that
        # much precision of its own (4096 bits is left out: the product
        # oracle takes about 11 s there)
        self._against_product(Fraction(1, 10 ** 4), bits)

    def test_matches_euler_product_at_the_deepest_registry_point(self):
        # eq24's r/25 point at r = 1/10^4: the deepest eta the registry
        # visits, where the terms cancel by about 378 bits
        ctx = _ctx_at(512)
        q = nome(1, 250000, ctx)
        ref = ov.eta_product(q, ctx.work_bits + 64)
        got = eta_f(q, ctx)
        with workprec(ctx.work_bits + 64):
            assert abs(got - ref) <= abs(ref) * mpf(2) ** (1 - 512)

    @pytest.mark.parametrize("shift", [40, 12, -1])
    def test_tiny_q_around_the_cutoff(self, shift):
        # for q this small the sum stops at 2^-bits, bits = work_bits + 9,
        # on a scale of bits + 16 fractional bits: q = 2^-(bits + 40) has
        # the integer image 0, q = 2^-(bits + 12) a nonzero image below the
        # cutoff, and q = 2^-(bits - 1) sums one pair of terms.  Each time
        # f(-q) = 1 - q - q^2 + ... is 1 to the output precision
        ctx = _ctx_at(512)
        q = mp.ldexp(1, -(ctx.work_bits + 9 + shift))
        assert eta_f(q, ctx) == 1

    @staticmethod
    def _against_product(r, bits):
        # the series against the product, at q = nome(r)^j
        ctx = _ctx_at(bits)
        q = nome(r.numerator, r.denominator, ctx)
        for j in (1, 2, 5, 10):
            with workprec(ctx.work_bits):
                qj = q ** j
            ref = ov.eta_product(qj, ctx.work_bits + 64)
            got = eta_f(qj, ctx)
            with workprec(ctx.work_bits + 64):
                assert abs(got - ref) <= abs(ref) * mpf(2) ** (1 - bits), (j, got, ref)

    @pytest.mark.parametrize("bits", [256, 512, 1024, 4096])
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_a_point_and_a_power_agree(self, m, bits):
        # q^m is the nome of m^2 r, the identity the registry's eta lookups
        # rest on: f(-q^m) is looked up at m^2 r.  The rounded nome raised
        # to the m-th power carries m ulps, which f's log-derivative
        # amplifies as q -> 1 (158 ulps at worst, at 1024 bits)
        ctx = _ctx_at(bits)
        for r in (Fraction(1, 10 ** 4), Fraction(1, 100), 1, 5, Fraction(22, 7), 10 ** 4):
            r = Fraction(r)
            at_point = eta_f(nome(m * m * r.numerator, r.denominator, ctx), ctx)
            q = nome(r.numerator, r.denominator, ctx)
            with workprec(ctx.work_bits):
                at_power = eta_f(q ** m, ctx)
                gap = abs(at_point - at_power)
                assert gap <= abs(at_point) * mpf(2) ** (10 - bits), (r, gap)

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
    """Shared values are looked up by their exact rational point; the public
    functions behind the lookups always compute."""

    def test_scope_hands_back_the_first_value(self):
        ctx = DEFAULT_CONTEXT
        with bk._request_memo():
            rec = bk._solved(7, 3, ctx)
            assert bk._solved(7, 3, ctx) is rec
            # keyed by the rational in lowest terms, however it is spelled
            assert bk._solved(14, 6, ctx) is rec
            assert bk._nome(7, 3, ctx) is bk._nome(14, 6, ctx)
            eta = bk._eta_at(7, 3, ctx)
            assert bk._eta_at(21, 9, ctx) is eta
        # each lookup holds what the public function computes at that point
        assert rec == solve_singular_modulus(7, 3)
        assert eta == eta_f(nome(7, 3))
        # outside a scope every lookup computes afresh, to the same value
        again = bk._solved(7, 3, ctx)
        assert again is not rec and again == rec

    def test_public_functions_compute_inside_a_scope(self):
        with bk._request_memo():
            rec = solve_singular_modulus(7, 3)
            assert solve_singular_modulus(7, 3) is not rec
            assert bk._solved(7, 3, DEFAULT_CONTEXT) is not rec
            assert nome(7, 3) is not nome(7, 3)
            assert eta_f(rec.q) is not eta_f(rec.q)

    def test_keyed_on_context(self, ctx1024):
        with bk._request_memo():
            rec = bk._solved(7, 3, DEFAULT_CONTEXT)
            assert bk._solved(7, 3, ctx1024).k != rec.k
            assert bk._solved(3, 7, DEFAULT_CONTEXT) is not rec
            assert bk._eta_at(7, 3, ctx1024) != bk._eta_at(7, 3, DEFAULT_CONTEXT)

    def test_keyed_on_the_context_values(self):
        # the key holds the context's two ints, not the object
        first, second = PrecisionContext(512, 120), PrecisionContext(512, 120)
        assert first is not second
        with bk._request_memo():
            rec = bk._solved(7, 3, first)
            assert bk._solved(7, 3, second) is rec
            assert bk._solved(14, 6, second) is bk._solved(7, 3, first)
            assert bk._nome(7, 3, second) is bk._nome(7, 3, first)
            # one more digit of tolerance is another entry
            assert bk._solved(7, 3, PrecisionContext(512, 121)) is not rec

    def test_error_is_not_stored(self, monkeypatch):
        def breakdown(*a):
            raise ConvergenceError("stubbed AGM breakdown")

        with bk._request_memo():
            monkeypatch.setattr(bk, "_agm_raw", breakdown)
            with pytest.raises(ConvergenceError):
                bk._solved(7, 3, DEFAULT_CONTEXT)
            monkeypatch.undo()
            assert bk._solved(7, 3, DEFAULT_CONTEXT).residual < TOL

    def test_lookups_refuse_a_bad_point(self):
        for rn, rd in ((0, 1), (1, -2), (1.5, 1)):
            with pytest.raises(DomainError):
                bk._solved(rn, rd, DEFAULT_CONTEXT)
