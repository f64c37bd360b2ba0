import random
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import repapprox as ra
from repapprox import regrep
from repapprox.backends import exact_decimal, rational
from repapprox.errors import UsageError
from repapprox.polynomial import Polynomial
from repapprox import powers
from repapprox.powers import constant_ratio_check, mat_pow, ratio_sequence
from repapprox.regrep import (
    Weights,
    build,
    integral_element,
    matrix_of,
    multiply,
    power,
    scaled_entries,
)
from repapprox.regrep import _SQUARE_CUTOFF_BITS as CUTOFF

import dense


def brute_power(f, n):
    return dense.mat_pow_entries(dense.companion(f), n)


def built_entries(f, x):
    """The entries of M(x, u) as the package prints them: mat_pow(build(f, x), 1)."""
    return mat_pow(build(f, x), 1).entries


class TestWeights:
    def test_validation(self):
        with pytest.raises(UsageError):
            Weights(())
        with pytest.raises(UsageError):
            Weights((0, 0, 0))
        with pytest.raises(UsageError):
            build(Polynomial((1, 2, 3)), (1, 0))


class TestBuild:
    def test_khovanskii_matrix(self):
        m = built_entries(Polynomial((0, 0, 7)), (4, 1, 1))
        assert m == ((4, 7, 7), (1, 4, 7), (1, 1, 4))

    def test_simultaneous_matrix(self):
        p, q, r = 2, 3, 5
        m = built_entries(Polynomial((p, q, r)), (9, 0, 1))
        assert m == (
            (9, r, p * r),
            (0, q + 9, p * q + r),
            (1, p, p * p + q + 9),
        )

    def test_identity_weights(self):
        f = Polynomial((4, -2, 7, 1))
        assert built_entries(f, (1, 0, 0, 0)) == dense.identity(4)

    def test_m_is_held_as_its_element(self, monkeypatch):
        # build takes x's integral element once and materializes no matrix;
        # every power, sequence and family check on M reads that element.
        def no_matrix(*args):
            raise AssertionError("build materialized a matrix")

        calls = []

        def counted(*args):
            calls.append(args)
            return integral_element(*args)

        monkeypatch.setattr(regrep, "matrix_of", no_matrix)
        for module in (regrep, powers):
            if hasattr(module, "integral_element"):
                monkeypatch.setattr(module, "integral_element", counted)
        f, x = Polynomial((rational(1, 2), 2, -3)), (0, rational(-1, 3), 1)
        M = build(f, x)
        assert M.element == integral_element(f, M.weights.x)
        mat_pow(M, 5)
        ratio_sequence(M, (2, 1), (3, 1), -1, (3, 8))
        constant_ratio_check(M, 6)
        assert len(calls) == 1

    def test_first_column_is_weights(self):
        f = Polynomial((2, -3, 1))
        x = (rational(5), rational(-1, 2), rational(7))
        m = built_entries(f, x)
        assert tuple(row[0] for row in m) == x


class TestBuildCubic:
    def test_closed_form_entries(self):
        m = dense.build_cubic(-1, 2, 1, 0, -1, 1)
        assert m == ((0, 1, -2), (-1, 2, -3), (1, -2, 4))

    def test_matches_generic_build(self):
        m = dense.build_cubic(-1, 2, 1, 0, -1, 1)
        assert m == built_entries(Polynomial((-1, 2, 1)), (0, -1, 1))

    def test_b_style_matrix(self):
        m = dense.build_cubic(0, 0, 5, 3, 0, 1)
        assert m == ((3, 5, 0), (0, 3, 5), (1, 0, 3))

    def test_identity(self):
        m = dense.build_cubic(9, 9, 9, 1, 0, 0)
        assert m == dense.identity(3)

    @given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=6, max_size=6))
    @settings(max_examples=40)
    def test_agrees_with_build_everywhere(self, vals):
        p, q, r, x, y, z = vals
        if x == y == z == 0:
            x = 1
        closed = dense.build_cubic(p, q, r, x, y, z)
        assert closed == built_entries(Polynomial((p, q, r)), (x, y, z))


class TestEntryFormula:
    def test_power_zero_is_identity(self):
        f = Polynomial((-1, 2, 1))
        for i in range(1, 4):
            for j in range(1, 4):
                assert dense.entry_multinomial(f, i, j, 0) == (1 if i == j else 0)

    def test_power_one_is_companion(self):
        f = Polynomial((2, 3, 5))
        a = dense.companion(f)
        for i in range(1, 4):
            for j in range(1, 4):
                assert dense.entry_multinomial(f, i, j, 1) == a[i - 1][j - 1]

    def test_last_column_power_one(self):
        p, q, r = 2, 3, 5
        f = Polynomial((p, q, r))
        assert dense.entry_multinomial(f, 3, 3, 1) == p
        assert dense.entry_multinomial(f, 2, 3, 1) == q
        assert dense.entry_multinomial(f, 1, 3, 1) == r

    def test_fifth_power_all_entries(self):
        f = Polynomial((-1, 2, 1))
        a5 = brute_power(f, 5)
        for i in range(1, 4):
            for j in range(1, 4):
                assert dense.entry_multinomial(f, i, j, 5) == a5[i - 1][j - 1]

    @pytest.mark.parametrize("m", [2, 4])
    def test_matches_powers_generic_degree(self, m):
        rng = random.Random(m)
        f = Polynomial([rational(rng.randint(-3, 3)) for _ in range(m)])
        for n in range(0, 2 * m):
            an = brute_power(f, n)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert dense.entry_multinomial(f, i, j, n) == an[i - 1][j - 1]

    def test_index_validation(self):
        f = Polynomial((1, 1))
        with pytest.raises(UsageError):
            dense.entry_multinomial(f, 0, 1, 1)
        with pytest.raises(UsageError):
            dense.entry_multinomial(f, 1, 1, -1)


class TestFormulaPath:
    def test_agrees_on_reference_case(self):
        f = Polynomial((-1, 2, 1))
        assert dense.entries_via_formula(f, (0, -1, 1)) == built_entries(f, (0, -1, 1))

    def test_identity(self):
        f = Polynomial((1, 2, 3, 4, 5))
        assert dense.entries_via_formula(f, (1, 0, 0, 0, 0)) == dense.identity(5)

    @given(
        st.integers(2, 4),
        st.integers(0, 2**30),
    )
    @settings(max_examples=30)
    def test_agrees_with_build_random(self, m, seed):
        rng = random.Random(seed)
        f = Polynomial([rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)])
        x = [rational(rng.randint(-4, 4)) for _ in range(m)]
        if all(c == 0 for c in x):
            x[0] = rational(1)
        assert dense.entries_via_formula(f, x) == built_entries(f, x)


class TestIntegerKernel:
    """The int kernel over L*alpha against the rational kernel of dense.py."""

    @given(dense.elements(), st.integers(0, 60))
    @example((Polynomial((rational(1, 2), -3, rational(2, 3))), (rational(1, 3), -2, 5)), 7)
    @example((Polynomial((rational(-3, 4),)), (rational(-5, 2),)), 0)
    @settings(max_examples=60, deadline=None)
    def test_scaled_power_equals_rational_power(self, element, n):
        f, x = element
        u, scale, z, d = integral_element(f, x)
        assert all(type(v) is int for v in (*u, *z, scale, d))
        entries = scaled_entries(matrix_of(u, power(u, z, n)), scale, d**n)
        assert entries == matrix_of(f.u, dense.power(f, x, n))

    @given(dense.elements(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_multiply_and_square_equal_rational_kernel(self, element, data):
        f, _ = element
        u, scale, _, _ = integral_element(f, (1,) * f.degree)
        vectors = st.lists(st.integers(-10**30, 10**30), min_size=f.degree, max_size=f.degree)
        a, b = tuple(data.draw(vectors)), tuple(data.draw(vectors))
        g = Polynomial(u)
        assert multiply(u, a, b) == dense.multiply(g, a, b)
        assert multiply(u, a, a) == dense.multiply(g, a, a)

    def test_integral_element_of_integral_input_is_itself(self):
        f = Polynomial((-1, 2, 1))
        assert integral_element(f, (rational(0), rational(-1), rational(1))) == (
            (-1, 2, 1), 1, (0, -1, 1), 1,
        )

    def test_integral_generator(self):
        # f = t^2 - t/2 - 1/3: L = 6, and b = 6a is a root of t^2 - 3t - 12.
        # g = 1/4 + a/3 = 1/4 + b/18, so d = 36 and 36 g = 9 + 2b.
        f = Polynomial((rational(1, 2), rational(1, 3)))
        assert integral_element(f, (rational(1, 4), rational(1, 3))) == ((3, 12), 6, (9, 2), 36)


@st.composite
def _square_cases(draw):
    """(u, a): a u-vector with zero and negative entries, and coordinates of
    CUTOFF/2 to 4 CUTOFF bits, some of them zero or negative."""
    m = draw(st.integers(1, 8))
    u = tuple(draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.sampled_from((CUTOFF // 2, CUTOFF, CUTOFF + 64, 2 * CUTOFF, 4 * CUTOFF)))
    signs = draw(st.lists(st.sampled_from((1, -1, 0)), min_size=m, max_size=m).filter(any))
    return u, tuple(s * rnd.getrandbits(bits - rnd.randrange(64)) for s in signs)


def _at_cutoff(m, above):
    """Coordinates of alternating sign, all of CUTOFF + 1 bits (interpolated
    square) or all of CUTOFF bits (schoolbook)."""
    return tuple(
        (-1) ** i * ((1 << CUTOFF) + i if above else (1 << CUTOFF) - 1 - i) for i in range(m)
    )


# (f, x, (L, d)): a rational f and x (L = 6 and d = 36 in integral_element), the
# Ramanujan cubic, a degree-6 f with zero and negative u_s, the golden
# ratio (m = 2, schoolbook squares only) and a degree-8 f.
_POWER_CASES = (
    (Polynomial((rational(1, 2), rational(1, 3), -2)), (rational(1, 4), rational(1, 3), -1), (6, 36)),
    (Polynomial((-1, 2, 1)), (rational(1), rational(-2), rational(1)), (1, 1)),
    (Polynomial((0, -3, 2, 0, 1, -1)), (1, 0, -2, 1, 0, 3), (1, 1)),
    (Polynomial((1, 1)), (0, 1), (1, 1)),
    (Polynomial((1, 0, -1, 2, 0, 0, 1, -1)), (2, -1, 0, 0, 1, 0, 0, 1), (1, 1)),
)


class TestPowerKernel:
    """Left-to-right powering and the interpolated square, against dense.py."""

    @given(_square_cases())
    @example(((1, 0, -1), _at_cutoff(3, above=False)))
    @example(((1, 0, -1), _at_cutoff(3, above=True)))
    @example(((0, -2, 3, 0, -1, 1, 0, 2), _at_cutoff(8, above=False)))
    @example(((0, -2, 3, 0, -1, 1, 0, 2), _at_cutoff(8, above=True)))
    @example(((-3, 0, 5, -1), (0, 1 << (4 * CUTOFF), 0, -(1 << (4 * CUTOFF)))))
    @example(((1, 1), _at_cutoff(2, above=True)))
    @settings(max_examples=100, deadline=None)
    def test_square_equals_rational_kernel(self, case):
        u, a = case
        expected = dense.multiply(Polynomial(u), a, a)
        assert multiply(u, a, a) == expected
        assert multiply(u, a, list(a)) == expected  # the general product path

    @pytest.mark.parametrize("f, x, scale_den", _POWER_CASES)
    def test_power_across_the_cutoff(self, f, x, scale_den):
        u, scale, z, d = integral_element(f, x)
        assert (scale, d) == scale_den
        k = 1
        while max(v.bit_length() for v in power(u, z, 1 << k)) <= 2 * CUTOFF:
            k += 1
        for n in (0, 1, 2, (1 << k) - 1, 1 << k, (1 << k) + 1):
            entries = scaled_entries(matrix_of(u, power(u, z, n)), scale, d**n)
            assert entries == matrix_of(f.u, dense.power(f, x, n)), n

    def test_power_multiplies_by_the_small_base(self, monkeypatch):
        # Each product that is not a square pairs the accumulator with z
        # itself, so it is big times small: never two operands above CUTOFF.
        big_pairs, squares = [], []

        def recording(u, a, b):
            big = [v for v in (a, b) if max(c.bit_length() for c in v) > CUTOFF]
            if a is b:
                squares.append(len(big))
            elif len(big) == 2:
                big_pairs.append((a, b))
            return multiply(u, a, b)

        monkeypatch.setattr(regrep, "multiply", recording)
        u, z = (1, -2, 3, 0, -1, 2), (1, -2, 0, 3, 1, -1)
        regrep.power(u, z, (1 << 13) - 1)
        assert big_pairs == []
        assert any(squares)  # the walk did reach the cutoff


@st.composite
def _power_cases(draw):
    """(u, z): a u-vector with zero and negative entries, and coordinates in
    -3..3 but for a constant one of CUTOFF/8 bits.  Every root of f is
    at most 6 in modulus, so every conjugate of the element exceeds
    2**(CUTOFF/8 - 2) and its powers cross the cutoff within a few doublings."""
    m = draw(st.integers(1, 8))
    u = tuple(draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)))
    rest = draw(st.lists(st.integers(-3, 3), min_size=m - 1, max_size=m - 1))
    big = draw(st.integers(1 << (CUTOFF // 8 - 1), (1 << CUTOFF // 8) - 1))
    return u, (draw(st.sampled_from((1, -1))) * big, *rest)


def _strings(vector):
    return [str(c) for c in vector]


def _decimals(vector):
    return tuple(Decimal(c) for c in vector)


class TestDecimalRing:
    """The same kernel over integer-valued Decimals under exact_decimal(),
    where any rounding raises Inexact, prints as the int kernel's result.
    Comparing printed strings also catches a Decimal -0."""

    @given(_square_cases())
    @example(((1, 0, -1), _at_cutoff(3, above=False)))
    @example(((1, 0, -1), _at_cutoff(3, above=True)))
    @example(((0, -2, 3, 0, -1, 1, 0, 2), _at_cutoff(8, above=True)))
    @example(((-3, 0, 5, -1), (0, 1 << (4 * CUTOFF), 0, -(1 << (4 * CUTOFF)))))
    @example(((0, 0, -3), (-5, 0, 0)))  # coordinates no product term reaches
    @settings(max_examples=60, deadline=None)
    def test_multiply_prints_as_int_kernel(self, case):
        u, a = case
        b = a[::-1]
        da, db = _decimals(a), _decimals(b)
        with exact_decimal():
            square, product = multiply(u, da, da), multiply(u, da, db)
        assert all(type(c) is Decimal for c in square + product)
        assert _strings(square) == _strings(multiply(u, a, a))
        assert _strings(product) == _strings(multiply(u, a, b))
        assert "-0" not in _strings(square) + _strings(product)

    @given(_power_cases())
    @example(((0, 0, 0, -2), (0, 1, 0, 0)))  # zero coordinates next to u_m = -2
    @example(((0, -3, 2, 0, 1, -1), (1 << 383, 0, -2, 1, 0, 3)))
    @settings(max_examples=25, deadline=None)
    def test_power_prints_as_int_kernel(self, case):
        u, z = case
        k = 1
        while max(abs(v) for v in power(u, z, 1 << k)).bit_length() <= 2 * CUTOFF:
            k += 1
        for n in (0, 1, 2, (1 << k) - 1, 1 << k, (1 << k) + 1):
            with exact_decimal():
                coords = power(u, _decimals(z), n)
                rows = matrix_of(u, coords)
            want = power(u, z, n)
            assert all(type(c) is Decimal for c in coords), n
            assert _strings(coords) == _strings(want), n
            printed = [_strings(row) for row in rows]
            assert printed == [_strings(row) for row in matrix_of(u, want)], n
            assert not any("-0" in row for row in printed), n


def _multiply_mod_f(f, x1, x2):
    """Coordinates of (sum x1_i a^i)(sum x2_i a^i) reduced modulo f.

    Independent reduction: a^m = u_1 a^(m-1) + ... + u_m, applied repeatedly
    to the raw product coefficients.
    """
    m = f.degree
    prod = [rational(0)] * (2 * m - 1)
    for i, c1 in enumerate(x1):
        for j, c2 in enumerate(x2):
            prod[i + j] += rational(c1) * rational(c2)
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = rational(0)
        for s in range(m):  # a^k = a^(k-m) * sum u_{s+1} a^(m-1-s)
            prod[k - 1 - s] += c * f.u[s]
    return tuple(prod[:m])


class TestAlgebraicStructure:
    def test_homomorphism_small_cases(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.choice((2, 3, 4))
            f = Polynomial([rng.randint(-3, 3) for _ in range(m)])
            x1 = [rng.randint(-3, 3) for _ in range(m)]
            x2 = [rng.randint(-3, 3) for _ in range(m)]
            if all(c == 0 for c in x1):
                x1[1] = 1
            if all(c == 0 for c in x2):
                x2[1] = 1
            product = dense.mat_mul(built_entries(f, x1), built_entries(f, x2))
            x12 = _multiply_mod_f(f, x1, x2)
            if all(c == 0 for c in x12):
                continue  # zero divisors can occur for reducible f
            assert product == built_entries(f, x12)

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(50):
            m = rng.choice((2, 3, 5))
            f = Polynomial([rng.randint(-3, 3) for _ in range(m)])
            x1 = [rational(rng.randint(-3, 3)) for _ in range(m)]
            x2 = [rational(rng.randint(-3, 3)) for _ in range(m)]
            if all(c == 0 for c in x1):
                x1[0] = rational(1)
            if all(c == 0 for c in x2):
                x2[0] = rational(1)
            a, b = rational(rng.randint(1, 4)), rational(rng.randint(-4, -1))
            combo = [a * c1 + b * c2 for c1, c2 in zip(x1, x2)]
            if all(c == 0 for c in combo):
                continue
            lhs = built_entries(f, combo)
            rhs = dense.mat_add(
                dense.mat_scale(a, built_entries(f, x1)),
                dense.mat_scale(b, built_entries(f, x2)),
            )
            assert lhs == rhs

    @given(dense.elements())
    @example((Polynomial((-1, 2, 1)), (rational(3), rational(-2), rational(5))))
    @settings(max_examples=40, deadline=None)
    def test_sum_of_companion_powers(self, element):
        f, x = element
        assert built_entries(f, x) == dense.regular_representation(f, x)
