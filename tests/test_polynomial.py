import pytest
from hypothesis import assume, given, settings, strategies as st

import repapprox as ra
from repapprox.backends import rational
from repapprox.errors import DomainError, UsageError
from repapprox.polynomial import (
    Polynomial, difference, homogeneous_eval, integer_multiple, parse_polynomial, product,
    pseudo_remainder, remainder_sequence, resultant, trim,
)

import dense


class TestParse:
    def test_monic_list(self):
        f = parse_polynomial("1,1,-2,-1")
        assert f.degree == 3
        assert f.u == (rational(-1), rational(2), rational(1))

    def test_u_vector(self):
        f = parse_polynomial("u:0,0,5")
        assert f.degree == 3
        assert f.monic_coefficients() == (1, 0, 0, -5)

    def test_shifted_cubic(self):
        f = parse_polynomial("c:1,-2,-1,1")
        assert f.u == (rational(2), rational(1), rational(-1))

    def test_rational_coefficients(self):
        f = parse_polynomial("c:1,-1/2,3")
        assert f.u == (rational(1, 2), rational(-3))

    @pytest.mark.parametrize("bad", ["2,1,1", "c:0,1,2", "c:1", "1,,2", "u:", "c:1,x"])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_polynomial(bad)


class TestEval:
    def setup_method(self):
        self.f = parse_polynomial("c:1,1,-2,-1")

    def test_value(self):
        assert dense.evaluate(self.f, 0) == -1
        assert dense.evaluate(self.f, rational(1, 2)) == rational(-13, 8)

    def test_first_derivative(self):
        # f' = 3t^2 + 2t - 2
        assert dense.evaluate(self.f, 1, 1) == 3

    def test_second_derivative(self):
        # f'' = 6t + 2
        assert dense.evaluate(self.f, 2, 2) == 14

    def test_central_difference_bound(self):
        # |(f(t+h) - f(t-h)) / 2h - f'(t)| <= h^2 * max|f'''| / 6; for a cubic
        # f''' is the constant 6, so the bound is exactly h^2.
        h = rational(1, 10**6)
        for t in (rational(0), rational(1), rational(-7, 3)):
            cdiff = (dense.evaluate(self.f, t + h) - dense.evaluate(self.f, t - h)) / (2 * h)
            assert abs(cdiff - dense.evaluate(self.f, t, 1)) <= h * h


class TestIntegerForms:
    def test_scaled_by_common_denominator(self):
        f = parse_polynomial("u:1/2,-1/3,3/4")  # t^3 - t^2/2 + t/3 - 3/4, L = 12
        assert f.integer_forms() == ((12, -6, 4, -9), (36, -12, 4), (72, -12))

    @given(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=8),
        st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
    )
    @settings(max_examples=100)
    def test_homogeneous_form_is_scaled_value(self, u, x):
        f = Polynomial(u)
        lf = f.integer_forms()
        scale = lf[0][0]  # L: the monic leading coefficient times L
        p, q = x.numerator, x.denominator
        for d in range(3):
            want = scale * q ** (f.degree - d) * dense.evaluate(f, x, d) if f.degree >= d else 0
            assert homogeneous_eval(lf[d], p, q) == want


_coefficient_lists = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=6
)


class TestRemainderSequence:
    """The int sequence against Euclid over Q in tests/dense.py."""

    @settings(max_examples=200, deadline=None)
    @given(_coefficient_lists, _coefficient_lists, _coefficient_lists)
    def test_gcd_degree_matches_rational_gcd(self, a, b, common):
        a, b = dense.poly_mul(a, common), dense.poly_mul(b, common)  # often a nontrivial gcd
        assume(any(a) or any(b))
        g = remainder_sequence(integer_multiple(a), integer_multiple(b))[-1]
        assert len(g) == len(dense.poly_gcd(a, b))
        for p in (a, b):  # g divides both
            assert not pseudo_remainder(trim(integer_multiple(p)), g)

    @settings(max_examples=200, deadline=None)
    @given(_coefficient_lists, _coefficient_lists, st.integers(0, 3))
    def test_pseudo_remainder_is_the_scaled_rational_remainder(self, a, b, pad):
        b = trim(integer_multiple(b))
        assume(b)
        a = (0,) * pad + integer_multiple(a)  # leading zeros count in deg a
        scale = abs(b[0]) ** max(len(a) - len(b) + 1, 0)
        rem = dense.poly_mod(tuple(map(rational, a)), tuple(map(rational, b)))
        want = dense.trim(tuple(scale * c for c in rem))
        assert (pseudo_remainder(a, b) or (0,)) == want

    def test_zero_and_constant_ends(self):
        f = (1, 0, -2)
        assert remainder_sequence(f, (0, 0)) == (f,)  # gcd(f, 0) = f
        assert remainder_sequence((), (3, 6)) == ((), (3, 6))  # gcd(0, b) = b
        assert remainder_sequence(f, (5, 1)) == (f, (5, 1), (1,))  # only the sign of -f(-1/5)


class TestResultant:
    """Bareiss elimination against the cofactor determinant of the Sylvester matrix."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    )
    def test_equals_sylvester_determinant(self, a, b):
        assume(len(a) + len(b) > 2)  # a 0 x 0 matrix has no cofactor expansion
        assert resultant(tuple(a), tuple(b)) == dense.det(dense.sylvester(a, b))

    def test_hand_values(self):
        assert resultant((1, 0, -2), (2, 0)) == -8  # Res(t^2 - 2, 2t)
        assert resultant((1, 0, -2), (1, -1)) == -1  # a(1), b monic linear
        assert resultant((0, 1, 1), (1, 2)) == -1  # Y(X + Y), X + 2Y: coprime
        assert resultant((0, 1), (0, 3)) == 0  # Y and 3Y: both vanish at (1 : 0)
        assert resultant((5,), (7,)) == 1  # degree 0 on both sides

    def test_product_and_difference_of_padded_forms(self):
        assert product((1, 1), (1, -1)) == (1, 0, -1)
        assert product((2,), (1, 0), ()) == ()  # a vanishing factor
        assert difference((1, 0, -1), (3, 4)) == (1, -3, -5)  # (3, 4) padded on the left


class TestReflect:
    def test_ramanujan(self):
        f = parse_polynomial("c:1,1,-2,-1")
        assert dense.reflect(f).monic_coefficients() == (1, 2, -1, -1)

    def test_quadratic(self):
        f = parse_polynomial("c:1,0,-2")
        assert dense.reflect(f).monic_coefficients() == (1, 0, rational(-1, 2))

    def test_palindromic_fixed_point(self):
        f = parse_polynomial("c:1,-3,1")
        assert dense.reflect(f) == f

    def test_zero_constant_term(self):
        with pytest.raises(DomainError):
            dense.reflect(parse_polynomial("u:1,0"))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_involution(self, u):
        if u[-1] == 0:
            u[-1] = 1
        f = Polynomial(u)
        assert dense.reflect(dense.reflect(f)) == f


class TestShift:
    def test_ramanujan_plus_one(self):
        f = parse_polynomial("c:1,1,-2,-1")
        assert dense.shift(f, 1).monic_coefficients() == (1, -2, -1, 1)

    def test_identity(self):
        f = parse_polynomial("c:1,4,-3")
        assert dense.shift(f, 0) == f

    def test_quadratic(self):
        f = parse_polynomial("c:1,0,-2")
        assert dense.shift(f, 3).monic_coefficients() == (1, -6, 7)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.fractions(min_value=-5, max_value=5),
    )
    @settings(max_examples=50)
    def test_shift_roundtrip(self, u, c):
        f = Polynomial(u)
        assert dense.shift(dense.shift(f, c), -c) == f

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
    )
    @settings(max_examples=50)
    def test_shift_is_evaluation_shift(self, u, c, t):
        f = Polynomial(u)
        assert dense.evaluate(dense.shift(f, c), t) == dense.evaluate(f, rational(t) - rational(c))


class TestCompanion:
    def test_cubic_layout(self):
        f = Polynomial((7, 11, 13))  # u = (p, q, r)
        assert dense.companion(f) == (
            (0, 0, 13),
            (1, 0, 11),
            (0, 1, 7),
        )

    def test_degree_one(self):
        assert dense.companion(Polynomial((5,))) == ((5,),)

    def test_quartic_last_column(self):
        f = Polynomial((1, 2, 3, 4))
        a = dense.companion(f)
        assert [row[3] for row in a] == [4, 3, 2, 1]
        assert all(a[i + 1][i] == 1 for i in range(3))

    @pytest.mark.parametrize(
        "u", [(2,), (3, -1), (-1, 2, 1), (1, 2, 3, 4), (0, 0, 5)]
    )
    def test_characteristic_polynomial(self, u):
        # det(tI - A) agrees with f at degree+1 sample points, so the monic
        # characteristic polynomial equals f exactly.
        f = Polynomial(u)
        a = dense.companion(f)
        m = f.degree
        for k in range(m + 2):
            t = rational(k, 2)
            shifted = tuple(
                tuple((t if i == j else 0) - a[i][j] for j in range(m)) for i in range(m)
            )
            assert dense.det(shifted) == dense.evaluate(f, t)


def test_shift_moves_roots():
    # the canonical (modulus-sorted) order may change under a shift, so
    # match each shifted root to its nearest original
    import mpmath as mp

    f = ra.parse_polynomial("c:1,1,-2,-1")
    g = dense.shift(f, 1)
    base = ra.all_roots(f, 128)
    moved = ra.all_roots(g, 128)
    with mp.workprec(moved.work_prec):
        for e_moved in moved:
            nearest = min(abs(e.center + 1 - e_moved.center) for e in base)
            assert nearest <= 1e-30

