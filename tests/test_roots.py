import math

import mpmath as mp
import pytest
from hypothesis import example, given, strategies as st

import repapprox as ra
from repapprox import roots
from repapprox.backends import mpf_to_rational, rational, to_mpf
from repapprox.errors import DomainError, NotSquarefree, RootSeparationError, UsageError
from repapprox.iterative import iterate_records
from repapprox import polynomial
from repapprox.polynomial import (
    Polynomial, homogeneous_eval, integer_multiple, parse_polynomial, remainder_sequence,
)
from repapprox.roots import (
    all_roots,
    count_real_roots,
    is_squarefree,
    isolate_real_roots,
    refine_real_root,
)

import dense


def vieta_checks(roots):
    """(sum of roots, product of roots) as mpc values."""
    total = mp.mpc(0)
    prod = mp.mpc(1)
    for e in roots:
        total += e.center
        prod *= e.center
    return total, prod


class TestIsolation:
    def test_ramanujan_three_roots(self, ramanujan):
        intervals = isolate_real_roots(ramanujan)
        assert len(intervals) == 3
        approx = (-1.802, -0.445, 1.247)
        for (a, b), target in zip(intervals, approx):
            assert float(a) <= target <= float(b)
            assert dense.evaluate(ramanujan, a) * dense.evaluate(ramanujan, b) < 0

    def test_no_real_roots(self):
        assert isolate_real_roots(parse_polynomial("c:1,0,1")) == ()

    def test_linear(self):
        intervals = isolate_real_roots(Polynomial((rational(1, 2),)))
        assert len(intervals) == 1
        a, b = intervals[0]
        assert a <= rational(1, 2) <= b

    def test_disjoint_closures(self):
        f = parse_polynomial("c:1,0,-5,0,4")  # (t^2-1)(t^2-4)
        intervals = isolate_real_roots(f)
        assert len(intervals) == 4
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 < a2

    def test_rejects_repeated_roots(self):
        f = parse_polynomial("c:1,-2,1")  # (t-1)^2
        assert not is_squarefree(f)
        with pytest.raises(NotSquarefree):
            isolate_real_roots(f)

    def test_count_real_roots(self, ramanujan):
        assert count_real_roots(ramanujan) == 3
        assert count_real_roots(parse_polynomial("c:1,0,1")) == 0
        chain = roots._sturm_chain(ramanujan)
        assert roots._variations(chain, rational(0)) - roots._variations(chain, rational(2)) == 1

    def test_close_root_pair_separated(self):
        # (t - 1)(t - 1025/1024)(t + 3): a root pair only 2^-10 apart
        a, b, c = rational(1), rational(1025, 1024), rational(-3)
        f = Polynomial.from_monic_coefficients(
            (rational(1), -(a + b + c), a * b + a * c + b * c, -(a * b * c))
        )
        intervals = isolate_real_roots(f)
        assert len(intervals) == 3
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2
        roots = all_roots(f, 128)
        centers = sorted(mp.re(e.center) for e in roots)
        assert abs(centers[0] + 3) < 1e-30
        assert abs(centers[1] - 1) < 1e-30
        assert abs(centers[2] - float(1025 / 1024)) < 1e-6


_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=7)


class TestLinearGcd:
    def test_decided_without_polynomial_division(self, ramanujan, monkeypatch):
        # A linear divisor leaves one homogeneous_eval at its root, and the
        # constant remainder ends the sequence as its bare sign.
        v = iterate_records("newton", ramanujan, rational(-2), 10)[-1].value  # 19352 digits
        F = ramanujan.integer_forms()[0]
        p, q = v.numerator, v.denominator
        calls = []

        def counted(coeffs, a, b):
            calls.append((coeffs, a, b))
            return homogeneous_eval(coeffs, a, b)

        monkeypatch.setattr(polynomial, "homogeneous_eval", counted)
        assert remainder_sequence((1, -5, 6), (1, -2)) == ((1, -5, 6), (1, -2))
        seq = remainder_sequence(F, (q, -p))
        assert seq[:2] == (F, (q, -p)) and seq[2] in ((1,), (-1,)) and len(seq) == 3
        assert calls == [((1, -5, 6), 2, 1), (F, p, q)]

    @given(
        st.lists(_coefficients, min_size=1, max_size=9),
        _coefficients.filter(bool),
        _coefficients,
        st.booleans(),
    )
    @example([rational(0)], rational(2), rational(1), False)  # gcd(0, b) = b
    @example([rational(3)], rational(2), rational(1), False)  # a nonzero constant
    def test_degree_matches_synthetic_division(self, a, b0, b1, divisible):
        root = -b1 / b0
        if divisible:  # a * (t - root)
            a = [c - root * prev for c, prev in zip(a + [0], [0] + a)]
        remainder = rational(0)
        for c in a:
            remainder = remainder * root + c
        expected = 1 if remainder == 0 else 0
        gcd = remainder_sequence(integer_multiple(a), integer_multiple((b0, b1)))[-1]
        assert len(gcd) - 1 == expected


def _divisors(n):
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def _has_rational_root(F):
    """The rational root test on an int form: p/q with p | F(0) and q | lc(F)."""
    if F[-1] == 0:
        return True
    return any(
        homogeneous_eval(F, sign * p, q) == 0
        for p in _divisors(F[-1]) for q in _divisors(F[0]) for sign in (1, -1)
    )


class TestCertifiedIrreducible:
    @given(st.lists(_coefficients, min_size=1, max_size=4).map(Polynomial))
    @example(parse_polynomial("c:1,1,-2,-1"))  # Ramanujan's cubic
    @example(parse_polynomial("c:1,0,-2"))
    @example(parse_polynomial("c:1,0,0,-2"))  # one real root
    @example(parse_polynomial("c:1,-1/3,-2,2/3"))  # (t - 1/3)(t^2 - 2)
    @example(parse_polynomial("c:1,-1/2,1,-1/2"))  # (t - 1/2)(t^2 + 1)
    @example(parse_polynomial("c:1,0,-1,0"))  # root 0
    @example(parse_polynomial("c:1,0,-4,0,1"))  # irreducible, but degree 4
    def test_matches_the_rational_root_test(self, f):
        expected = (
            2 <= f.degree <= 3
            and dense.is_squarefree(f)
            and not _has_rational_root(f.integer_forms()[0])
        )
        assert roots._certified_irreducible(f) == expected


class TestRefinement:
    def test_most_negative_ramanujan_root(self, ramanujan):
        interval = isolate_real_roots(ramanujan)[0]
        est = refine_real_root(ramanujan, interval, rational(1, 10**30))
        assert est.radius <= rational(1, 10**30)
        with mp.workprec(200):
            exact = 2 * mp.cos(8 * mp.pi / 7)
            center = mp.mpf(int(est.center.numerator)) / int(est.center.denominator)
            assert abs(center - exact) <= mp.mpf(10) ** -30

    def test_exact_rational_root(self):
        f = Polynomial((rational(1, 2),))
        est = refine_real_root(f, (0, 1), rational(1, 10**6))
        assert est.center == rational(1, 2)
        assert est.radius == 0

    def test_sqrt_two(self):
        f = parse_polynomial("c:1,0,-2")
        est = refine_real_root(f, (1, 2), rational(1, 10**6))
        assert est.radius <= rational(1, 10**6)
        assert abs(est.center - rational(14142135, 10**7)) < rational(1, 10**5)

    def test_certified_sign_change(self, ramanujan):
        for interval in isolate_real_roots(ramanujan):
            est = refine_real_root(ramanujan, interval, rational(1, 10**12))
            lo, hi = est.center - est.radius, est.center + est.radius
            assert dense.evaluate(ramanujan, lo) * dense.evaluate(ramanujan, hi) < 0

    def test_no_sign_change_rejected(self, ramanujan):
        with pytest.raises(DomainError):
            refine_real_root(ramanujan, (2, 3), rational(1, 100))

    def test_deep_refinement(self, ramanujan):
        interval = isolate_real_roots(ramanujan)[0]
        est = refine_real_root(ramanujan, interval, rational(1, 10**500))
        lo, hi = est.center - est.radius, est.center + est.radius
        assert est.radius <= rational(1, 10**500)
        assert dense.evaluate(ramanujan, lo) * dense.evaluate(ramanujan, hi) < 0

    def test_newton_contraction_is_quadratic(self, ramanujan, monkeypatch):
        # Bisection alone needs about 7650 halvings for 10^-2300; a linear
        # Newton contraction needs over 1500 evaluations.  Quadratic
        # convergence doubles the digits per step and needs a few dozen.
        # The refinement evaluates f only through homogeneous_eval.
        calls = []

        def counting(coeffs, p, q):
            calls.append(p)
            return homogeneous_eval(coeffs, p, q)

        monkeypatch.setattr(roots, "homogeneous_eval", counting)
        interval = isolate_real_roots(ramanujan)[0]
        calls.clear()
        est = refine_real_root(ramanujan, interval, rational(1, 10**2300))
        lo, hi = est.center - est.radius, est.center + est.radius
        assert est.radius <= rational(1, 10**2300)
        assert dense.evaluate(ramanujan, lo) * dense.evaluate(ramanujan, hi) < 0
        assert len(calls) <= 100


class TestAllRoots:
    def test_roots_of_unity_ordering(self):
        roots = all_roots(parse_polynomial("c:1,0,0,-1"), 128)
        assert [e.is_real for e in roots] == [True, False, False]
        assert abs(roots.roots[0].center - 1) < 1e-30
        assert mp.im(roots.roots[1].center) > 0 > mp.im(roots.roots[2].center)
        with mp.workprec(roots.work_prec):  # conjugates are exact, bit for bit
            assert mp.re(roots.roots[1].center) == mp.re(roots.roots[2].center)
            assert mp.im(roots.roots[1].center) + mp.im(roots.roots[2].center) == 0

    def test_ramanujan_trig_form(self, ramanujan):
        roots = all_roots(ramanujan, 256)
        with mp.workprec(300):
            expected = [2 * mp.cos(8 * mp.pi / 7), 2 * mp.cos(2 * mp.pi / 7), 2 * mp.cos(4 * mp.pi / 7)]
            for est, ref in zip(roots, expected):
                assert abs(est.center - ref) < mp.mpf(2) ** -100

    def test_modulus_ordering(self, ramanujan):
        roots = all_roots(ramanujan, 128)
        mods = [abs(e.center) for e in roots]
        assert mods == sorted(mods, reverse=True)

    def test_shifted_roots_match(self, ramanujan):
        shifted = all_roots(dense.shift(ramanujan, 1), 128)
        base = all_roots(ramanujan, 128)
        with mp.workprec(shifted.work_prec):
            for e_shift in shifted:
                assert min(abs(e.center + 1 - e_shift.center) for e in base) < 1e-30

    def test_precision_doubling_stability(self, ramanujan):
        lo = all_roots(ramanujan, 128)
        hi = all_roots(ramanujan, 256)
        for a, b in zip(lo, hi):
            assert abs(a.center - b.center) <= a.radius + b.radius

    def test_radii_meet_threshold(self, ramanujan):
        bits = 192
        roots = all_roots(ramanujan, bits)
        with mp.workprec(roots.work_prec):
            for e in roots:
                assert e.radius < mp.mpf(2) ** (-bits // 2)

    def test_disjoint_disks(self):
        roots = all_roots(parse_polynomial("c:1,0,-5,0,4"), 128)
        es = roots.roots
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert abs(es[i].center - es[j].center) > es[i].radius + es[j].radius

    def test_vieta(self, ramanujan):
        roots = all_roots(ramanujan, 128)
        total, prod = vieta_checks(roots)
        # sum = u_1 = -1, product = (-1)^(m+1) u_m = 1
        assert abs(total - (-1)) < 1e-30
        assert abs(prod - 1) < 1e-30

    def test_degree_one(self):
        roots = all_roots(Polynomial((rational(5),)), 128)
        assert roots.roots[0].center == 5
        assert roots.roots[0].radius == 0

    def test_rejects_non_squarefree(self):
        with pytest.raises(NotSquarefree):
            all_roots(parse_polynomial("c:1,-2,1"), 128)

    def test_precision_over_the_cap_refused_before_any_root_work(self, ramanujan, monkeypatch):
        # Library callers get the cap that analyze and the CLI apply: above
        # MAX_PRECISION no Aberth sweep runs, at it the roots are answered.
        def sweep(*args):
            raise AssertionError("Aberth ran for a refused precision")

        with monkeypatch.context() as patch:
            patch.setattr(roots, "_aberth_pass", sweep)
            for bits in (roots.MAX_PRECISION + 1, 2 * roots.MAX_PRECISION):
                with pytest.raises(UsageError, match=f"MAX_PRECISION = {roots.MAX_PRECISION}"):
                    all_roots(ramanujan, bits)
        answered = all_roots(parse_polynomial("c:1,0,-2"), roots.MAX_PRECISION)
        assert answered.work_prec >= roots.MAX_PRECISION and len(answered) == 2


class TestFloatStart:
    """float_start: Aberth in doubles, the start of analyze's first round."""

    def test_starts_near_each_root(self, ramanujan):
        start = roots.float_start(ramanujan)
        exact = [2 * math.cos(k * math.pi / 7) for k in (2, 4, 8)]
        assert len(start) == 3
        for z in start:
            assert min(abs(z - r) for r in exact) < 1e-14
        cold, warm = all_roots(ramanujan, 256), all_roots(ramanujan, 256, start=start)
        with mp.workprec(warm.work_prec):
            for a, b in zip(cold, warm):
                assert abs(a.center - b.center) <= a.radius + b.radius


class TestEscalation:
    """all_roots doubles its working precision until _certify accepts, and
    refuses past CEILING_FACTOR times the first."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """(working precision, accepted) of every _certify call, from a cleared cache."""
        seen = []
        certify = roots._certify

        def recording(*args):
            estimates = certify(*args)
            seen.append((mp.mp.prec, estimates is not None))
            return estimates

        monkeypatch.setattr(roots, "_certify", recording)
        roots._all_roots_cached.cache_clear()
        return seen

    @pytest.mark.parametrize(
        "e,precs",
        [
            (200, [320, 640]),  # a radius above the target at 320 bits
            # A radius above the target, then overlapping disks twice.
            (1000, [320, 640, 1280, 2560]),
        ],
    )
    def test_escalates_until_certified(self, rounds, e, precs):
        found = all_roots(dense.near_double(e), 256)
        work = precs[-1]
        assert rounds == [(p, p == work) for p in precs]
        assert found.work_prec == work
        es = found.roots
        with mp.workprec(2 * work):  # the centres' differences and both roots exactly
            exact = [mp.mpf(1), 1 + mp.mpf(2) ** -e]
            assert abs(es[0].center - es[1].center) > es[0].radius + es[1].radius
            for est in es:
                assert sum(abs(est.center - z) <= est.radius for z in exact) == 1

    def test_refused_past_the_ceiling(self, rounds):
        with pytest.raises(RootSeparationError, match="could not separate roots"):
            all_roots(dense.near_double(20000), 64)
        assert rounds == [(128 << k, False) for k in range(7)]  # 128 ... 8192 = 64 * 128

    @staticmethod
    def _certify(f, zs, bits=256):
        coeffs = f.monic_coefficients()
        with mp.workprec(bits):
            coeffs_mp = [to_mpf(c, mp) for c in coeffs]
            dcoeffs_mp = [to_mpf(c, mp) for c in polynomial.derivative(coeffs)]
            target = mp.mpf(2) ** -(bits // 4)
            return roots._certify(
                coeffs_mp, dcoeffs_mp, [mp.mpc(z) for z in zs], f.degree,
                count_real_roots(f), target,
            )

    def test_off_axis_real_candidate_refused(self):
        f = parse_polynomial("c:1,0,0,-2")  # one real root
        with mp.workprec(256):
            real = mp.cbrt(2)
            pair = [real * mp.exp(2j * mp.pi / 3), real * mp.exp(-2j * mp.pi / 3)]
            assert len(self._certify(f, [real, *pair])) == 3
            assert self._certify(f, [real + mp.mpf(10) ** -3 * 1j, *pair]) is None

    def test_odd_upper_half_plane_count_refused(self):
        f = parse_polynomial("c:1,0,0,0,1")  # no real root, two conjugate pairs
        with mp.workprec(256):
            zs = [mp.exp(1j * mp.pi * k / 4) for k in (1, 3, 5, 7)]
            assert len(self._certify(f, zs)) == 4
            assert self._certify(f, [*zs[:3], mp.conj(zs[3])]) is None


def test_refined_center_is_exact_rational(ramanujan):
    interval = isolate_real_roots(ramanujan)[1]
    est = refine_real_root(ramanujan, interval, rational(1, 10**20))
    assert est.center.denominator >= 1
    assert mpf_to_rational(mp.mpf(2)) == 2  # sanity for the conversion helper
