"""The root loops of repapprox.roots against their Fraction/mpc oracles.

Sturm chains, certified refinement, the interval enclosure of a quotient
and the Aberth sweep run on ints and raw mpmath tuples; tests/dense.py
keeps the same loops on Fraction and mpc operators.
Each test checks that both give the same result, bit for bit: equal
reduced rationals, equal raw mpc tuples, or the same exception.
"""

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repapprox import convergence, roots
from repapprox.backends import rational, to_mpf
from repapprox.errors import DomainError, NotSquarefree, UsageError
from repapprox.polynomial import Polynomial, derivative, integer_multiple, parse_polynomial

import dense

_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7).map(rational)
_integers = st.integers(-6, 6).map(rational)
_PRECISIONS = (192, 320, 640)


@st.composite
def polys(draw, max_degree=8):
    """A monic f of degree 1..max_degree, with integer or rational coefficients."""
    coeffs = draw(st.sampled_from((_integers, _rationals)))
    m = draw(st.integers(1, max_degree))
    return Polynomial(draw(st.lists(coeffs, min_size=m, max_size=m)))


def _sum(a, b):
    k = max(len(a), len(b))
    return [x + y for x, y in zip([0] * (k - len(a)) + a, [0] * (k - len(b)) + b)]


def _times(f, g):
    """The monic product f*g."""
    product = dense.poly_mul(f.monic_coefficients(), g.monic_coefficients())
    return Polynomial.from_monic_coefficients(product)


@st.composite
def with_square(draw):
    """g * h^2: never squarefree."""
    h = draw(polys(max_degree=2))
    return _times(draw(polys(max_degree=8 - 2 * h.degree)), _times(h, h))


@st.composite
def with_rational_root(draw):
    """(t - r) * g for a rational r, and r."""
    r = draw(_rationals)
    return _times(Polynomial((r,)), draw(polys(max_degree=7))), r


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, UsageError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _squarefree_with_roots(f):
    assume(dense.is_squarefree(f))
    intervals = dense.isolate_real_roots(f)
    assume(intervals)
    return intervals


class TestSturm:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(polys(), with_square()), st.none() | _rationals, st.none() | _rationals)
    @example(parse_polynomial("c:1,-2,1"), None, None)
    # Chains whose pseudo-division takes one elimination step by a negative
    # leading coefficient: its scale must be |lc|, not lc.
    @example(parse_polynomial("c:1,0,1,0"), None, None)
    @example(parse_polynomial("c:1,0,0,2,0"), None, None)
    @example(parse_polynomial("c:1,0,-5,0,4"), rational(-1), rational(2))
    def test_count_isolate_and_squarefree_match(self, f, lo, hi):
        assert roots.is_squarefree(f) == dense.is_squarefree(f)
        if not dense.is_squarefree(f):
            for fn in (roots.count_real_roots, roots.isolate_real_roots):
                with pytest.raises(NotSquarefree):
                    fn(f)
            return
        assert roots.count_real_roots(f) == dense.count_real_roots(f)
        chain, bound = roots._sturm_chain(f), roots.root_bound(f)
        lo, hi = -bound if lo is None else lo, bound if hi is None else hi
        in_range = roots._variations(chain, lo) - roots._variations(chain, hi)
        assert in_range == dense.count_real_roots(f, lo, hi)
        assert roots.isolate_real_roots(f) == dense.isolate_real_roots(f)

    def test_chain_is_built_once_per_polynomial(self):
        f = parse_polynomial("c:1,3,-7,-2,5")
        roots._sturm_chain.cache_clear()
        roots.is_squarefree(f)
        roots.count_real_roots(f)
        roots.isolate_real_roots(f)
        info = roots._sturm_chain.cache_info()
        assert (info.misses, info.hits) == (1, 4)


_eps = st.one_of(
    st.integers(1, 60).map(lambda d: rational(1, 10**d)),
    st.integers(1, 40).map(lambda k: rational(3, 7**k)),
)


class TestRefinement:
    @settings(max_examples=100, deadline=None)
    @given(polys(), _eps, st.data())
    @example(parse_polynomial("c:1,0,-2"), rational(1, 10**30), None)
    def test_isolating_and_non_dyadic_brackets_match(self, f, eps, data):
        intervals = _squarefree_with_roots(f)
        a, b = intervals[0] if data is None else data.draw(st.sampled_from(intervals))
        width = b - a
        brackets = [(a, b), (b, a), (a - width / 3, b + width / 7), (a + width / 11, b)]
        for bracket in brackets:
            assert _outcome(roots.refine_real_root, f, bracket, eps) == _outcome(
                dense.refine_real_root, f, bracket, eps
            )

    @settings(max_examples=60, deadline=None)
    @given(with_rational_root(), _eps)
    @example((_times(Polynomial((rational(1, 2),)), parse_polynomial("c:1,0,-3")), rational(1, 2)),
             rational(1, 10**6))
    def test_exact_rational_roots_match(self, f_root, eps):
        f, r = f_root
        for bracket in ((r - rational(1, 3), r + rational(2, 5)), (r, r + 1), (r - 2, r)):
            assert _outcome(roots.refine_real_root, f, bracket, eps) == _outcome(
                dense.refine_real_root, f, bracket, eps
            )

    def test_eps_must_be_positive(self, ramanujan):
        with pytest.raises(UsageError):
            roots.refine_real_root(ramanujan, (1, 2), 0)


class TestEncloseInterval:
    @settings(max_examples=60, deadline=None)
    @given(
        polys(max_degree=6),
        st.lists(_rationals, min_size=1, max_size=6),
        st.lists(_rationals, min_size=1, max_size=6),
        st.integers(1, 40),
        st.data(),
    )
    def test_matches_rational_loop(self, f, n_poly, d_poly, digits, data):
        # The first round from the Sturm bracket is the oracle's, bit for bit;
        # a second round at more digits, resumed from the returned bracket,
        # is as narrow as asked and meets the oracle's enclosure at those digits.
        bracket = data.draw(st.sampled_from(_squarefree_with_roots(f)))
        both = integer_multiple(n_poly + d_poly)  # one common scale
        n, d = both[: len(n_poly)], both[len(n_poly) :]
        assume(not convergence._shares_root(f.integer_forms()[0], d, bracket))
        enc, resumed = roots.enclose_quotient(f, n, d, roots._bracket(*bracket), digits)
        assert enc == dense.enclose_quotient(f, tuple(n_poly), tuple(d_poly), bracket, digits)
        more = data.draw(st.integers(digits + 1, 3 * digits + 10))
        deeper, _ = roots.enclose_quotient(f, n, d, resumed, more)
        oracle = dense.enclose_quotient(f, tuple(n_poly), tuple(d_poly), bracket, more)
        assert deeper.radius <= rational(1, 10**more)
        assert deeper.lo <= oracle.hi and oracle.lo <= deeper.hi


class TestConstantQuotient:
    @settings(max_examples=150, deadline=None)
    @given(
        polys(max_degree=5),
        st.lists(_rationals, min_size=1, max_size=9),
        st.lists(_rationals, min_size=1, max_size=9),
        st.none() | _rationals,
    )
    # N = 2 D + t f with deg N > deg D, for an f with L = 6.
    @example(parse_polynomial("c:1,1/2,-1/3"), [1, 0], [1, 0, 0], rational(2))
    def test_matches_rational_remainders(self, f, n_poly, d_poly, c):
        coeffs = f.monic_coefficients()
        n_poly, d_poly = [rational(v) for v in n_poly], [rational(v) for v in d_poly]
        if c is not None:  # N = c D + h f: the quotient is c
            n_poly = _sum([c * v for v in d_poly], dense.poly_mul(n_poly, coeffs))
        both = integer_multiple(n_poly + d_poly)  # one common scale
        n, d = both[: len(n_poly)], both[len(n_poly) :]
        got = convergence._constant_quotient(n, d, f.integer_forms()[0])
        assert got == dense.constant_quotient(n_poly, d_poly, coeffs)
        if c is not None and dense.poly_mod(d_poly, coeffs) != (0,):
            assert got == c


def _circle(f, prec):
    """all_roots' starting points at prec bits."""
    m = f.degree
    with mp.workprec(prec):
        radius = to_mpf(roots.root_bound(f), mp)
        return [
            radius * (1 + mp.mpf(t) / (8 * m)) * mp.exp(1j * (2 * mp.pi * t / m + mp.mpf(7) / 20))
            for t in range(m)
        ]


def _sweep_both(f, starts, prec, iterations):
    """Raw tuples from both sweeps, and both residual radii at each result."""
    out = []
    with mp.workprec(prec):
        coeffs = [to_mpf(c, mp) for c in f.monic_coefficients()]
        dcoeffs = [to_mpf(c, mp) for c in derivative(f.monic_coefficients())]
        tol = mp.mpf(2) ** (-(prec - 8))
        for sweep, radius in ((roots._aberth_pass, roots._residual_radius),
                              (dense.aberth_pass, dense.residual_radius)):
            zs = _outcome(sweep, coeffs, dcoeffs, [mp.mpc(z) for z in starts], iterations, tol)
            if isinstance(zs, tuple):  # an exception, as (type, message)
                out.append(zs)
                continue
            radii = [radius(coeffs, dcoeffs, z, f.degree) for z in zs]
            out.append(([z._mpc_ for z in zs], [r._mpf_ for r in radii]))
    return out


class TestAberth:
    @settings(max_examples=30, deadline=None)
    @given(polys(), st.sampled_from(_PRECISIONS))
    def test_sweep_from_the_circle_matches(self, f, prec):
        # Early sweeps too: a converged sweep can hide a rounding slip.
        for iterations in (1, 3, 60 + 6 * f.degree):
            ours, oracle = _sweep_both(f, _circle(f, prec), prec, iterations)
            assert ours == oracle

    @settings(max_examples=40, deadline=None)
    @given(
        polys(max_degree=5),
        st.sampled_from(_PRECISIONS),
        st.data(),
    )
    def test_sweep_from_small_gaussian_rationals_matches(self, f, prec, data):
        parts = st.fractions(-3, 3, max_denominator=4)
        starts = [
            complex(data.draw(parts), data.draw(parts)) for _ in range(f.degree)
        ]
        ours, oracle = _sweep_both(f, starts, prec, 12)
        assert ours == oracle

    @pytest.mark.parametrize("prec", _PRECISIONS)
    @pytest.mark.parametrize(
        "poly, starts, bumped",
        [
            ("c:1,0,-2", [0, 1 + 1j], 0),  # f'(0) = 0 at the first start
            ("c:1,0,-3,0", [1, 2j, -2], 0),  # later rows must see the moved z_0
            ("c:1,0,-3,0", [2j, 1, -2], 1),  # row 0 cached 1/(z_1 - z_0) before z_1 moved
        ],
    )
    def test_bumped_start_matches(self, prec, poly, starts, bumped):
        f = parse_polynomial(poly)
        assert dense.evaluate(f, rational(starts[bumped]), 1) == 0
        # One sweep shows the moved start's own bits; later sweeps converge
        # them away.
        for iterations in (1, 60 + 6 * f.degree):
            ours, oracle = _sweep_both(f, starts, prec, iterations)
            assert ours == oracle
