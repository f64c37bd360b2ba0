import pytest

from repapprox.backends import floor_log10, rational, sci_string
from repapprox.errors import DomainError, IterationDiverged, UsageError, ZeroDenominator
from repapprox.iterative import (
    IterativeState,
    halley_step,
    iterate_records,
    newton_step,
    noor_step,
    run_method,
    step,
    sweep_initial_conditions,
)
from repapprox.polynomial import Polynomial, parse_polynomial

SQRT2 = parse_polynomial("c:1,0,-2")


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
        assert s.n == 1 and s.y_n == rational(3, 2) and s.x_n == rational(611, 432)
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

    def test_noor_budget_truncation(self, ramanujan):
        records = iterate_records("noor", ramanujan, rational(-2), 6, max_den_digits=5000)
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
        rows, best = sweep_initial_conditions(ramanujan, expected)
        assert best["newton"].x0 == rational(-2)
        assert best["newton"].matches == 3
        assert len(rows) == 4  # one row per candidate

    def test_sweep_reports_all_methods(self, ramanujan):
        expected = {
            "newton": [(3, 9)],
            "halley": [(2, 9), (3, 45)],
        }
        rows, best = sweep_initial_conditions(ramanujan, expected)
        assert set(best) == {"newton", "halley"}
        assert best["halley"].matches == 2
