import random
import tracemalloc
from numbers import Rational

import pytest
from hypothesis import example, given, settings, strategies as st

import repapprox as ra
from repapprox import powers
from repapprox.backends import decimal_digit_count, rational, sci_string
from repapprox.bench import WEIGHT_VECTORS
from repapprox.errors import UsageError, ZeroDenominator
from repapprox.polynomial import Polynomial
from repapprox.powers import (
    accelerated_sequence,
    constant_ratio_check,
    mat_pow,
    ratio_sequence,
)
from repapprox.regrep import build
from repapprox.roots import Enclosure

import dense


@pytest.fixture(scope="module")
def m_ref(ramanujan):
    return build(ramanujan, (0, -1, 1))


class TestMatPow:
    def test_zero_is_identity(self, m_ref):
        assert mat_pow(m_ref, 0).entries == dense.identity(3)

    def test_one_is_matrix(self, m_ref, ramanujan):
        assert mat_pow(m_ref, 1).entries == dense.regular_representation(ramanujan, (0, -1, 1))

    def test_reference_digit_count(self, m_ref):
        p5 = mat_pow(m_ref, 5)
        assert decimal_digit_count(p5.entries[2][0]) == 3

    def test_negative_rejected(self, m_ref):
        with pytest.raises(UsageError):
            mat_pow(m_ref, -1)

    @pytest.mark.parametrize("u,x,n", [((1, 1), (0, 1), 5000), ((-1, 2, 1), (0, -1, 1), 20000)])
    def test_output_estimate_within_a_percent(self, monkeypatch, u, x, n):
        # Integral entries: the estimate is the digits of M^n's entries.
        m = build(Polynomial(u), x)
        digits = sum(decimal_digit_count(e) for row in mat_pow(m, n).entries for e in row)
        monkeypatch.setattr(powers, "MAX_OUTPUT_DIGITS", digits * 101 // 100)
        mat_pow(m, n)
        ratio_sequence(m, (2, 1), (1, 1), 0, [n])
        monkeypatch.setattr(powers, "MAX_OUTPUT_DIGITS", digits * 99 // 100)
        for refused in (lambda: mat_pow(m, n), lambda: ratio_sequence(m, (2, 1), (1, 1), 0, [n])):
            with pytest.raises(UsageError, match=f"up to n = {n} would hold about"):
                refused()

    @given(dense.elements(), st.integers(0, 40))
    @example((Polynomial((-1, 2, 1)), (0, -1, 1)), 32)
    @settings(max_examples=25, deadline=None)
    def test_binary_equals_naive(self, element, n):
        m, a = build(*element), dense.regular_representation(*element)
        acc = dense.identity(len(a))
        for _ in range(n):
            acc = dense.mat_mul(acc, a)
        assert mat_pow(m, n).entries == acc

    def test_exponent_addition(self, m_ref):
        rng = random.Random(3)
        for _ in range(10):
            a, b = rng.randint(0, 16), rng.randint(0, 16)
            lhs = mat_pow(m_ref, a + b).entries
            rhs = dense.mat_mul(mat_pow(m_ref, a).entries, mat_pow(m_ref, b).entries)
            assert lhs == rhs

    def test_det_multiplicativity(self):
        for u, x in [((2, -1), (1, 2)), ((-1, 2, 1), (0, -1, 1)), ((1, 0, 1, 2), (1, 1, 0, 1))]:
            m = build(Polynomial(u), x)
            d = dense.det(dense.regular_representation(Polynomial(u), x))
            for n in (2, 3, 5):
                assert dense.det(mat_pow(m, n).entries) == d**n


class TestRatioSequence:
    def test_reference_row(self, m_ref):
        records = ratio_sequence(m_ref, (2, 1), (3, 1), -1, (5, 20))
        assert sci_string(records[0].abs_error, 1) == "8e-5"
        assert sci_string(records[1].abs_error, 2) == "3.1e-18"
        assert records[1].den_digits == 14  # raw denominator entry
        assert records[1].reduced_den_digits == 12  # after reduction

    def test_other_ratio(self, m_ref):
        records = ratio_sequence(m_ref, (2, 2), (2, 1), 0, (35,))
        assert sci_string(records[0].abs_error, 2) == "8.1e-32"

    def test_explicit_target_used_exactly(self, m_ref, monkeypatch):
        target = Enclosure(rational(-1801937735, 10**9), rational(1, 10**9))
        monkeypatch.setattr(powers, "resolving_enclosure", lambda *args: target)
        records = ratio_sequence(m_ref, (2, 1), (3, 1), -1, (5,))
        expected = abs(records[0].value - target.center)
        assert records[0].abs_error == expected

    def test_values_are_exact_rationals(self, m_ref):
        (record,) = ratio_sequence(m_ref, (2, 1), (3, 1), -1, (5,))
        assert record.value == rational(-1429, 793) - 1 + 1  # already offset
        assert record.value == rational(-1429, 793)

    def test_error_decreases_after_burn_in(self, m_ref):
        records = ratio_sequence(m_ref, (2, 1), (3, 1), -1, range(3, 40))
        errs = [r.abs_error for r in records]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_zero_denominator_transients(self):
        # B-style matrix: M^1[2,1] = 0 but later powers fill in
        b = build(Polynomial((0, 0, 2)), (5, 0, 1))
        records = ratio_sequence(b, (1, 1), (2, 1), 0, (1, 2, 3))
        assert not records[0].available
        assert records[1].available and records[2].available

    @pytest.mark.parametrize("weights", WEIGHT_VECTORS)
    def test_entries_match_dense_oracle(self, ramanujan, weights, monkeypatch):
        m = build(ramanujan, weights)
        exact = Enclosure(rational(0), rational(0))  # radius 0: no re-refinement
        monkeypatch.setattr(powers, "resolving_enclosure", lambda *args: exact)
        plain = ratio_sequence(m, (2, 1), (3, 1), -1, (1, 2, 5, 9, 27))
        tower = accelerated_sequence(m, 3, 3, (2, 1), (3, 1), -1)
        a = dense.regular_representation(ramanujan, weights)
        for r in plain + tower:
            p = dense.mat_pow_entries(a, r.n)
            if p[2][0] == 0:
                assert not r.available
            else:
                assert r.value == p[1][0] / p[2][0] - 1

    def test_all_zero_denominators_rejected(self):
        b = build(Polynomial((0, 0, 2)), (5, 0, 1))
        with pytest.raises(ZeroDenominator):
            ratio_sequence(b, (1, 1), (2, 1), 0, (1,))

    def test_bad_indices(self, m_ref):
        with pytest.raises(UsageError):
            ratio_sequence(m_ref, (0, 1), (3, 1), 0, (5,))
        with pytest.raises(UsageError):
            ratio_sequence(m_ref, (2, 1), (3, 1), 0, (-2,))

    def test_rational_offset_keeps_digit_invariant(self, m_ref, monkeypatch):
        target = Enclosure(rational(-2), rational(1))
        monkeypatch.setattr(powers, "resolving_enclosure", lambda *args: target)
        records = ratio_sequence(m_ref, (2, 1), (3, 1), rational(-1, 3), (5, 20))
        for r in records:
            assert r.den_digits >= r.reduced_den_digits >= 1


class TestAccelerated:
    def test_tower_steps(self, ramanujan):
        m = build(ramanujan, (69, 99, -124))
        records = accelerated_sequence(m, 3, 2, (2, 1), (3, 1), -1)
        assert [r.n for r in records] == [3, 9]
        assert records[0].reduced_den_digits == 8
        assert sci_string(records[0].abs_error, 2) == "1.9e-9"
        assert records[1].reduced_den_digits == 24
        assert sci_string(records[1].abs_error, 2) == "2.8e-28"

    def test_stride_one_matches_plain_stepping(self, m_ref):
        plain = ratio_sequence(m_ref, (2, 1), (3, 1), -1, range(1, 6))
        accel = accelerated_sequence(m_ref, 1, 5, (2, 1), (3, 1), -1)
        assert [(r.n, r.value) for r in plain] == [(r.n, r.value) for r in accel]

    @pytest.mark.parametrize(
        "stride,steps", [(stride, steps) for stride in range(1, 5) for steps in range(1, 5)]
    )
    def test_equals_ratio_sequence_at_tower_indices(self, m_ref, stride, steps):
        # Whole records: n, value, abs_error, den_digits and reduced_den_digits.
        accel = accelerated_sequence(m_ref, stride, steps, (2, 1), (3, 1), -1)
        ns = [stride**k if stride > 1 else k for k in range(1, steps + 1)]
        plain = ratio_sequence(m_ref, (2, 1), (3, 1), -1, ns)
        assert accel == plain

    def test_bad_stride(self, m_ref):
        with pytest.raises(UsageError):
            accelerated_sequence(m_ref, 0, 3, (2, 1), (3, 1), 0)

    def test_runaway_tower_rejected(self, m_ref, monkeypatch):
        # Refused by the guard alone: no n is listed and no sequence is walked.
        def no_walk(*args):
            raise AssertionError("ratio_sequence called")

        monkeypatch.setattr(powers, "ratio_sequence", no_walk)
        for stride, steps in ((3, 20), (1, 10**9)):
            with pytest.raises(UsageError, match=f"stride = {stride} over steps = {steps}"):
                accelerated_sequence(m_ref, stride, steps, (2, 1), (3, 1), 0)

    def test_stride_one_budget_lists_no_n(self, m_ref):
        # The stride-1 walk is a range: the budget refuses it before any n is listed.
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="MAX_OUTPUT_DIGITS"):
                accelerated_sequence(m_ref, 1, 10**5, (2, 1), (3, 1), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConstantRatios:
    def test_reference_case(self, m_ref):
        for n_max in (30, 0):  # at n_max = 0 nothing is checked, so nothing holds
            families = constant_ratio_check(m_ref, n_max)
            assert len(families) == 2
            for fam in families:
                assert fam.holds == bool(n_max)
                assert fam.constant == (1 if n_max else None)  # 1/u_m with u_m = 1
                assert fam.checked == tuple(range(1, n_max + 1))
                assert fam.skipped == ()

    def test_constant_value_is_reciprocal_of_um(self):
        m = build(Polynomial((2, 3, 5)), (1, 4, 2))
        for fam in constant_ratio_check(m, 12):
            assert fam.holds
            assert fam.constant == rational(1, 5)

    def test_skips_zero_denominators(self):
        b = build(Polynomial((0, 0, 2)), (0, 0, 1))  # x = (0,0,1): sparse powers
        families = constant_ratio_check(b, 10)
        for fam in families:
            assert fam.holds
            assert set(fam.checked) | set(fam.skipped) == set(range(1, 11))

    def test_degree_two_families_coincide(self):
        m = build(Polynomial((1, 1)), (1, 1))
        first, second = constant_ratio_check(m, 10)
        assert first.indices == second.indices == (2, 1, 1, 2)
        assert second.duplicate_of_first

    def test_degree_one_rejected(self):
        m = build(Polynomial((3,)), (2,))
        with pytest.raises(UsageError):
            constant_ratio_check(m, 5)

    def test_output_budget_before_any_walk(self, m_ref, monkeypatch):
        # M^1 ... M^2000 hold about 1.3e7 digits of entries: refused by the
        # budget ratio_sequence applies, before any power is walked.
        def walk(*args):
            raise AssertionError("walked past the output budget")

        monkeypatch.setattr(powers, "_walk", walk)
        with pytest.raises(UsageError, match="MAX_OUTPUT_DIGITS"):
            constant_ratio_check(m_ref, 2000)

    @pytest.mark.parametrize("m", [2, 3])
    def test_both_families_from_one_walk(self, m_ref, monkeypatch, m):
        # One walk takes M^1 by power() and each later M^n as M^(n-1) times
        # power(1): n_max powers and n_max - 1 products, besides the
        # budget's probe squarings, for both families together.
        M = m_ref if m == 3 else build(Polynomial((-1, -1)), (0, 1))
        n_max = 200
        calls = {"multiply": 0, "power": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in calls:
            monkeypatch.setattr(powers, name, counted(name, getattr(powers, name)))
        powers._refuse_over_budget(M.element, n_max, n_max * (n_max + 1) // 2)
        probe = calls["multiply"]
        calls.update(multiply=0)
        families = constant_ratio_check(M, n_max)
        assert all(fam.holds for fam in families)
        assert calls == {"multiply": probe + n_max - 1, "power": n_max}


class TestExactTypes:
    """Entries are ints on integral input, so every ratio must be built as a
    rational: a / b of two ints would be a float."""

    def test_integral_entries_are_ints(self, m_ref):
        assert all(type(e) is int for row in mat_pow(m_ref, 9).entries for e in row)

    @pytest.mark.parametrize(
        "u,x", [((-1, 2, 1), (0, -1, 1)), ((rational(1, 2), 2, -3), (0, rational(-1, 3), 1))]
    )
    def test_nothing_is_a_float(self, u, x):
        # numbers.Rational holds int and Fraction, but not float.
        m = build(Polynomial(u), x)
        values = [e for row in mat_pow(m, 9).entries for e in row]
        for r in ratio_sequence(m, (2, 1), (3, 1), -1, (3, 8)) + accelerated_sequence(
            m, 2, 3, (2, 2), (2, 1), 0
        ):
            values += [r.value, r.abs_error]
        values += [fam.constant for fam in constant_ratio_check(m, 6)]
        assert all(isinstance(v, Rational) for v in values)


class TestDigitCount:
    @pytest.mark.parametrize("v,expect", [(999, 3), (-1000, 4), (1, 1)])
    def test_basic(self, v, expect):
        assert decimal_digit_count(v) == expect

    def test_reference_entry(self, m_ref):
        p20 = mat_pow(m_ref, 20)
        assert decimal_digit_count(p20.entries[2][0]) == 14

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decimal_digit_count(0)
