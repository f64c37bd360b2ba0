import math
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repapprox import iterative, polynomial, roots
from repapprox.backends import as_int_pair, floor_log10, rational, sci_string
from repapprox.bench import TABLE6_X0, reproduce_table
from repapprox.errors import DomainError, IterationDiverged, UsageError, ZeroDenominator
from repapprox.iterative import (
    IterativeState,
    _residual_grew,
    halley_step,
    iterate_records,
    newton_step,
    noor_step,
    run_method,
    step,
    sweep_initial_conditions,
)
from repapprox.polynomial import Polynomial, homogeneous_eval, parse_polynomial
from repapprox.roots import is_squarefree, isolate_real_roots

import dense

SQRT2 = parse_polynomial("c:1,0,-2")


# Fraction-Horner reference versions of the three steps and of the residual
# test: the integer kernels must equal them exactly.


def oracle_newton(f, x):
    x = rational(x)
    d = dense.evaluate(f, x, 1)
    if d == 0:
        raise ZeroDenominator(f"f'({x}) = 0 in a Newton step")
    return x - dense.evaluate(f, x) / d


def oracle_halley(f, x):
    x = rational(x)
    fx, dfx, ddfx = dense.evaluate(f, x), dense.evaluate(f, x, 1), dense.evaluate(f, x, 2)
    denom = 2 * dfx * dfx - fx * ddfx
    if denom == 0:
        raise ZeroDenominator(f"Halley denominator vanished at {x}")
    return x - 2 * fx * dfx / denom


def oracle_noor(f, x):
    y = oracle_newton(f, x)
    fy, dfy, ddfy = dense.evaluate(f, y), dense.evaluate(f, y, 1), dense.evaluate(f, y, 2)
    if dfy == 0:
        raise ZeroDenominator(f"f'({y}) = 0 in a Noor corrector")
    return y, y - fy / dfy - fy * fy * ddfy / (2 * dfy**3)


def oracle_residual_grew(f, x_new, x_old):
    return abs(dense.evaluate(f, x_new)) > abs(dense.evaluate(f, x_old))


@st.composite
def squarefree_polynomials(draw):
    """Squarefree f of degree 1..8, half with integer u, half with rational u."""
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        coeff = st.integers(-9, 9)
    else:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    f = Polynomial(draw(st.lists(coeff, min_size=m, max_size=m)))
    assume(is_squarefree(f))
    return f


_points = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)


class TestIntegerKernels:
    @given(squarefree_polynomials(), _points)
    @settings(max_examples=200, deadline=None)
    @example(SQRT2, rational(0))  # f'(0) = 0: Newton and Noor refuse
    @example(parse_polynomial("c:1,0,0,-2"), rational(0))  # f' = f'' = 0: Halley too
    @example(parse_polynomial("c:1,0,-3,7"), rational(2))  # Newton lands on f'(1) = 0
    @example(parse_polynomial("u:5/3"), rational(-7, 2))  # linear: f'' is empty
    @example(parse_polynomial("u:1/2,-1/3,3/4"), rational(-5, 3))  # L = 12
    def test_steps_equal_fraction_oracle(self, f, x):
        # Each step without fx, and with fx = F(p, q) as step passes it.
        fx = homogeneous_eval(f.integer_forms()[0], *as_int_pair(x))
        for kernel, oracle in (
            (newton_step, oracle_newton),
            (halley_step, oracle_halley),
            (noor_step, oracle_noor),
        ):
            try:
                want = oracle(f, x)
            except ZeroDenominator as refused:
                for args in ((f, x), (f, x, fx)):
                    with pytest.raises(ZeroDenominator) as info:
                        kernel(*args)
                    assert str(info.value) == str(refused)
            else:
                assert kernel(f, x) == kernel(f, x, fx) == want

    @given(squarefree_polynomials(), _points, _points)
    @settings(max_examples=200, deadline=None)
    @example(SQRT2, rational(3, 2), rational(3, 2))  # a tie is not growth
    @example(SQRT2, rational(577, 408), rational(17, 12))  # shrinking by 10 bits
    @example(SQRT2, rational(17, 12), rational(577, 408))
    def test_residual_comparison_equals_fraction_oracle(self, f, x_new, x_old):
        lf = f.integer_forms()[0]

        def pair(x):
            p, q = as_int_pair(x)
            return abs(homogeneous_eval(lf, p, q)), q

        grew = _residual_grew(pair(x_new), pair(x_old), f.degree)
        assert grew == oracle_residual_grew(f, x_new, x_old)

    @pytest.mark.parametrize(
        "method,per_step",
        # F at every iterate but the last serves its residual check and the
        # next step; besides it a step evaluates F1 (Newton), F1 and F2
        # (Halley), or F1 at x_n and F, F1, F2 at the predictor y (Noor).
        [("newton", {"F": 1, "F1": 1}), ("halley", {"F": 1, "F1": 1, "F2": 1}),
         ("noor", {"F": 2, "F1": 2, "F2": 1})],
    )
    def test_one_evaluation_of_f_per_iterate(self, ramanujan, monkeypatch, method, per_step):
        names = dict(zip(ramanujan.integer_forms(), ("F", "F1", "F2")))
        calls = Counter()

        def counting(coeffs, p, q):
            calls[names[coeffs]] += 1
            return homogeneous_eval(coeffs, p, q)

        monkeypatch.setattr(iterative, "homogeneous_eval", counting)
        steps = 3
        assert len(iterate_records(method, ramanujan, rational(-2), steps)) == steps
        # x_0 needs F and x_3 does not: no residual check can raise there,
        # after a run whose residual never grew.
        assert calls == Counter({form: k * steps for form, k in per_step.items()})

    @pytest.mark.parametrize("steps,budget", [(6, None), (25, 300)])
    def test_divergence_on_the_final_step_still_raises(self, monkeypatch, steps, budget):
        # Halley on t^2 + 1 from 1/2: the residual grows at steps 4, 5 and 6.
        # Step 6 is the last, by the step count, or by a budget that admits
        # it (255 digits * 3 <= 300) and stops step 7 (765 > 300).
        if budget is not None:
            monkeypatch.setattr(iterative, "MAX_DEN_DIGITS", budget)
        with pytest.raises(IterationDiverged) as info:
            iterate_records("halley", parse_polynomial("c:1,0,1"), rational(1, 2), steps)
        assert [r.den_digits for r in info.value.records] == [1, 3, 10, 29, 85, 255]


_coefficients = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


def _step_pair(f, p, q, method):
    """(A(p, q), B(p, q)) of one step, from the update formula's values."""
    F, F1, F2 = (homogeneous_eval(c, p, q) for c in f.integer_forms())
    if method == "newton":
        return p * F1 - F, q * F1
    if method == "halley":
        h = 2 * F1 * F1 - F * F2
        return p * h - 2 * F * F1, q * h
    return 2 * F1 * F1 * (p * F1 - F) - F * F * F2, 2 * q * F1**3


class TestResultantReduction:
    @given(
        st.integers(2, 8).flatmap(lambda m: st.lists(_coefficients, min_size=m, max_size=m)),
        _points,
        st.sampled_from(iterative.METHODS),
    )
    @settings(max_examples=200, deadline=None)
    @example([2], rational(1, 3), "newton")  # t - 2: A = 2Y, B = Y share Y, R = 0
    @example([0, 3, -2], rational(5, 7), "newton")  # (t - 1)^2 (t + 2): R = 0
    def test_reduction_equals_fraction(self, u, x, method):
        f = Polynomial(u)
        p, q = as_int_pair(x)
        if method == "noor":  # the corrector's forms are taken at the predictor
            d = homogeneous_eval(f.integer_forms()[1], p, q)
            assume(d != 0)
            p, q = as_int_pair(newton_step(f, x))
        a, b = _step_pair(f, p, q, method)
        assume(b != 0)
        bound = iterative._resultant_bound(f, method)
        if bound:
            assert bound % math.gcd(a, b) == 0  # gcd(A(p, q), B(p, q)) divides R
        got, want = iterative._reduced(a, b, bound), rational(a, b)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @pytest.mark.parametrize(
        "poly,method,bound",
        # The Ramanujan cubic's values agree with sympy's resultant.
        [("c:1,1,-2,-1", "newton", 98), ("c:1,1,-2,-1", "halley", 7589772288),
         ("c:1,1,-2,-1", "noor", 31502539350456975360),
         ("c:1,-2", "newton", 0), ("c:1,0,-3,2", "newton", 0)],
    )
    def test_bound_values(self, poly, method, bound):
        assert iterative._resultant_bound(parse_polynomial(poly), method) == bound

    @pytest.mark.parametrize("method,steps", [("newton", 10), ("halley", 7), ("noor", 6)])
    def test_table6_step_gcds_stay_within_the_bound(self, ramanujan, monkeypatch, method, steps):
        bound = iterative._resultant_bound(ramanujan, method)
        operands, real_gcd = [], math.gcd

        def recording(*args):
            operands.extend(abs(a) for a in args)
            return real_gcd(*args)

        monkeypatch.setattr(math, "gcd", recording)
        assert iterate_records(method, ramanujan, rational(-2), steps)
        assert operands and max(operands) <= bound

    def test_table6_runs_no_gcd_of_two_huge_operands(self, monkeypatch):
        # A gcd of two ints of over 10k bits each runs Lehmer's quadratic
        # loop; one with a small operand is a single division.  Reducing a
        # step's result through Fraction's constructor takes such a gcd, and
        # so does re-normalising a huge error with rational().
        huge, real_gcd = [], math.gcd

        def recording(*args):
            if min(abs(a).bit_length() for a in args) > 10_000:
                huge.append(tuple(abs(a).bit_length() for a in args))
            return real_gcd(*args)

        for module in (math, polynomial, roots):
            monkeypatch.setattr(module, "gcd", recording)
        reproduce_table(6)
        assert huge == []


class TestNearestInterval:
    @given(squarefree_polynomials(), _points)
    @settings(max_examples=100, deadline=None)
    @example(parse_polynomial("c:1,0,-2"), rational(0))  # midway between +-sqrt(2): the earlier
    def test_equals_distance_oracle(self, f, x):
        intervals = isolate_real_roots(f)
        assume(intervals)
        for point in (x, *(end for iv in intervals for end in iv)):
            assert iterative._nearest_interval(intervals, point) == dense.nearest_interval(
                intervals, point
            )
        for left, right in zip(intervals, intervals[1:]):  # ties at gap midpoints
            mid = (left[1] + right[0]) / 2
            assert iterative._nearest_interval(intervals, mid) == left == dense.nearest_interval(
                intervals, mid
            )


class TestSteps:
    def test_newton_hand_value(self):
        assert newton_step(SQRT2, 1) == rational(3, 2)

    def test_halley_hand_value(self):
        assert halley_step(SQRT2, 1) == rational(7, 5)

    def test_noor_hand_value(self):
        y, nxt = noor_step(SQRT2, 1)
        assert y == rational(3, 2)
        assert nxt == rational(611, 432)

    def test_fixed_points_at_exact_root(self):
        f = parse_polynomial("c:1,-5,6")  # roots 2 and 3
        assert newton_step(f, 2) == 2
        assert halley_step(f, 2) == 2
        assert noor_step(f, 2) == (2, 2)

    def test_zero_derivative(self):
        with pytest.raises(ZeroDenominator):
            newton_step(SQRT2, 0)

    def test_state_machine(self):
        s = IterativeState("noor", rational(1), 0)
        s = step(SQRT2, s)
        assert s.n == 1 and s.x_n == rational(611, 432)
        assert noor_step(SQRT2, 1)[0] == rational(3, 2)
        with pytest.raises(UsageError):
            step(SQRT2, IterativeState("bogus", rational(1), 0))


class TestRunMethod:
    def test_newton_reference_run(self, ramanujan):
        records = run_method("newton", ramanujan, rational(-2), 10)
        by_n = {r.n: r for r in records}
        assert by_n[3].reduced_den_digits == 9
        assert by_n[5].reduced_den_digits == 80
        assert by_n[10].reduced_den_digits == 19352
        assert sci_string(by_n[3].abs_error, 2) == "1.1e-6"
        assert sci_string(by_n[10].abs_error, 2) == "3.7e-762"

    def test_halley_reference_run(self, ramanujan):
        records = run_method("halley", ramanujan, rational(-2), 3)
        by_n = {r.n: r for r in records}
        assert by_n[2].reduced_den_digits == 9
        assert by_n[3].reduced_den_digits == 45
        assert sci_string(by_n[2].abs_error, 2) == "8.1e-8"
        assert sci_string(by_n[3].abs_error, 2) == "4.8e-22"

    def test_linear_polynomial_exact_after_one_step(self):
        f = Polynomial((rational(5, 3),))
        records = run_method("newton", f, rational(0), 3)
        assert records[0].value == rational(5, 3)
        assert records[0].abs_error == 0

    def test_errors_strictly_decrease(self, ramanujan):
        for x0 in (rational(-2), rational(-3, 2)):
            records = run_method("newton", ramanujan, x0, 8)
            errs = [r.abs_error for r in records if r.abs_error > 0]
            assert all(a > b for a, b in zip(errs[1:], errs[2:]))

    def test_deterministic(self, ramanujan):
        a = run_method("halley", ramanujan, rational(-2), 4)
        b = run_method("halley", ramanujan, rational(-2), 4)
        assert [(r.n, r.value, r.abs_error) for r in a] == [
            (r.n, r.value, r.abs_error) for r in b
        ]

    def test_noor_budget_truncation(self, ramanujan, monkeypatch):
        monkeypatch.setattr(iterative, "MAX_DEN_DIGITS", 5000)
        records = iterate_records("noor", ramanujan, rational(-2), 6)
        assert 0 < len(records) < 6
        assert records[-1].den_digits <= 5000

    def test_divergence_detected(self):
        f = parse_polynomial("c:1,0,1")  # no real roots
        with pytest.raises(IterationDiverged) as info:
            iterate_records("halley", f, rational(1, 2), 25)
        assert info.value.records  # partial digit records attached

    def test_no_real_root_for_reference(self):
        f = parse_polynomial("c:1,0,1")
        with pytest.raises((DomainError, IterationDiverged)):
            run_method("newton", f, rational(1, 3), 8)

    def test_unknown_method(self, ramanujan):
        with pytest.raises(UsageError):
            run_method("bisection", ramanujan, rational(-2), 3)


class TestOrders:
    # Correct digits gain a constant offset log10(1/C) per step on top of the
    # order-2/order-3 scaling; for this cubic Newton's C is 1.065 > 1, so the
    # doubling holds only up to that (sub-digit) deficit.

    def test_newton_digits_double_within_one(self, ramanujan):
        records = run_method("newton", ramanujan, rational(-2), 9)
        digits = [-floor_log10(r.abs_error) - 1 for r in records if r.abs_error > 0]
        started = False
        for d1, d2 in zip(digits, digits[1:]):
            if d1 >= 2:
                started = True
                assert d2 >= 2 * d1 - 1
        assert started

    def test_halley_digits_triple(self, ramanujan):
        records = run_method("halley", ramanujan, rational(-2), 6)
        digits = [-floor_log10(r.abs_error) - 1 for r in records if r.abs_error > 0]
        started = False
        for d1, d2 in zip(digits, digits[1:]):
            if d1 >= 2:
                started = True
                assert d2 >= 3 * d1
        assert started

    def test_denominator_growth_factors(self, ramanujan):
        newton = iterate_records("newton", ramanujan, rational(-2), 10)
        ratios = [
            b.den_digits / a.den_digits for a, b in zip(newton[4:], newton[5:])
        ]
        assert all(r >= 2 for r in ratios)
        halley = iterate_records("halley", ramanujan, rational(-2), 6)
        ratios = [
            b.den_digits / a.den_digits for a, b in zip(halley[2:], halley[3:])
        ]
        assert all(r >= 4 for r in ratios)


class TestSweep:
    def test_newton_best_start_matches_all_columns(self, ramanujan):
        expected = {"newton": [(3, 9), (5, 80), (10, 19352)]}
        rows, best = sweep_initial_conditions(ramanujan, expected, TABLE6_X0)
        assert best["newton"].x0 == rational(-2)
        assert best["newton"].matches == 3
        assert len(rows) == 4  # one row per candidate

    def test_sweep_reports_all_methods(self, ramanujan):
        expected = {
            "newton": [(3, 9)],
            "halley": [(2, 9), (3, 45)],
        }
        rows, best = sweep_initial_conditions(ramanujan, expected, TABLE6_X0)
        assert set(best) == {"newton", "halley"}
        assert best["halley"].matches == 2
