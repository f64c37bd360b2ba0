"""The root loops of repapprox.roots against their Fraction/mpc oracles.

Sturm chains, certified refinement, the interval enclosure of a quotient
and the Aberth sweep run on ints; tests/dense.py keeps the same loops on
Fraction and mpc operators.
Each test checks that both give the same result, bit for bit: equal
reduced rationals, equal raw mpc tuples, or the same exception.  The
sweep's rounding helpers are checked against the libmp functions the mpc
operators call.
"""

import random
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_sub, round_down, round_nearest

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
        assert roots.isolate_real_roots(f) == tuple(dense.isolate_real_roots(f))

    def test_chain_is_built_once_per_polynomial(self):
        f = parse_polynomial("c:1,3,-7,-2,5")
        roots._sturm_chain.cache_clear()
        roots.isolate_real_roots.cache_clear()
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
        assert abs(deeper.center - oracle.center) <= deeper.radius + oracle.radius


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


_ROUNDING_PRECISIONS = (53, 320, 65600)
_MODES = ((False, round_nearest), (True, round_down))


def _pair(man, exp):
    """(man, exp) as libmp normalizes it, then as _add may hold it."""
    return roots._pair(from_man_exp(man, exp))


def _rounding_matches(a, b, prec):
    """_add, _quotient and a rounded exact product against libmp, both modes."""
    A, B = from_man_exp(*a), from_man_exp(*b)
    for down, rnd in _MODES:
        for x, y, X, Y in ((a, b, A, B), (b, a, B, A)):
            assert roots._mpf(roots._add(*x, *y, prec, down)) == mpf_add(X, Y, prec, rnd)
            assert roots._mpf(roots._add(*x, -y[0], y[1], prec, down)) == mpf_sub(X, Y, prec, rnd)
            product = roots._add(x[0] * y[0], x[1] + y[1], 0, 0, prec, down)
            assert roots._mpf(product) == mpf_mul(X, Y, prec, rnd)
            if y[0]:
                assert roots._mpf(roots._quotient(*x, *y, prec, down)) == mpf_div(X, Y, prec, rnd)


@st.composite
def _operands(draw):
    """(a, b, prec): a rounding precision and two (man, exp) operands.

    Mantissas run to 2 prec + 2 bits, as exact products do, and are random or
    all ones (which rounds up into a new bit), and keep 0 to 300 trailing
    zeros, as _add's results may.  b cancels a, sits a few bits either side
    of prec + 4 below a, is 0 or is drawn on its own.
    """
    prec = draw(st.sampled_from(_ROUNDING_PRECISIONS))

    def mantissa():
        bits = draw(st.integers(1, 2 * prec + 2))
        if draw(st.booleans()):
            man = (1 << bits) - 1
        else:
            man = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << (bits - 1)
        return -man if draw(st.booleans()) else man

    def zeros(man, exp):  # the same value with 0 to 300 trailing zeros kept
        k = draw(st.sampled_from((0, 0, 1, 5, 120, 300)))
        return man << k, exp - k

    am, ae = mantissa(), draw(st.integers(-300, 300))
    kind = draw(st.sampled_from(("cancel", "gap", "zero", "free")))
    if kind == "cancel":  # a - a = 0, or a difference of a few units in a's last place
        bm, be = -am + draw(st.integers(-2, 2)), ae
    elif kind == "gap":  # the top bits prec + 4 + delta apart
        bm = mantissa()
        be = ae + abs(am).bit_length() - abs(bm).bit_length() - prec - 4 - draw(st.integers(-2, 3))
    elif kind == "zero":
        bm, be = 0, 0
    else:
        bm, be = mantissa(), draw(st.integers(-300, 300))
    a, b = _pair(am, ae), _pair(bm, be)
    return zeros(*a), zeros(*b) if b[0] else b, prec


class TestRounding:
    @settings(max_examples=200, deadline=None)
    @given(_operands())
    # 2**54 - 1 rounds up to 2**54 at 53 bits, into a new bit.
    @example((((1 << 54) - 1, 0), (1, 0), 53))
    # Exact cancellation to 0.
    @example(((3, -7), (-3, -7), 320))
    # Exponents 204 and 205 apart, top bits prec + 4 and prec + 5 apart: only
    # the second takes mpf_add's sticky shortcut.
    @example(((1 << 319 | 1, 0), (1 << 199 | 1, -204), 320))
    @example(((1 << 319 | 1, 0), (1 << 199 | 1, -205), 320))
    # A 110-bit a and b prec + 5 bits below: at exponents 101 apart mpf_add
    # takes the shortcut and returns 2**109; at 100 apart it adds exactly
    # and returns the correctly rounded 2**109 + 2**57.
    @example(((1 << 109 | (1 << 56) - 1, 0), ((1 << 152) + 1, -101), 53))
    @example(((1 << 109 | (1 << 56) - 1, 0), ((1 << 151) + 1, -100), 53))
    # The first with 300 trailing zeros on the larger: its exponent as held
    # is below the smaller's, its libmp exponent 101 above.
    @example((((1 << 109 | (1 << 56) - 1) << 300, -300), ((1 << 152) + 1, -101), 53))
    # The second with 5 trailing zeros on the smaller: 105 apart as held,
    # 100 apart for libmp, which adds exactly.
    @example(((1 << 109 | (1 << 56) - 1, 0), (((1 << 151) + 1) << 5, -105), 53))
    # A power of two, as a rounding carry leaves it, against a far operand.
    @example(((1 << 320, -100), (-3, -1000), 320))
    def test_matches_libmp(self, operands):
        _rounding_matches(*operands)

    @pytest.mark.parametrize("prec", _ROUNDING_PRECISIONS)
    def test_far_operand_is_a_sticky_bit(self, prec):
        # b lies 2**-(10**6) below a.  Shifted up, it would make an int of a
        # million bits (125 kB); each sum allocates no more than a few ints
        # of 2 prec + 8 bits at once.
        rng = random.Random(prec)
        a = _pair(rng.getrandbits(prec) | 1 << (prec - 1), 0)
        b = _pair(-(rng.getrandbits(prec) | 1), -(10**6))
        args = [(x, y, down) for x, y in ((a, b), (b, a), (a, (-b[0], b[1]))) for down, _ in _MODES]
        got, peaks = [], []
        tracemalloc.start()
        try:
            for x, y, down in args:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                got.append(roots._add(*x, *y, prec, down))
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        rnd = dict(_MODES)
        want = [mpf_add(from_man_exp(*x), from_man_exp(*y), prec, rnd[down]) for x, y, down in args]
        assert [roots._mpf(r) for r in got] == want
        assert max(peaks) < 4 * (2 * prec + 8) // 8 + 1024


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

    @settings(max_examples=12, deadline=None)
    @given(polys(max_degree=3))
    @example(parse_polynomial("c:1,0,-2"))
    @example(parse_polynomial("c:1,1,-2,-1"))
    def test_sweep_at_4160_bits_matches(self, f):
        # The working precision of analyze's later doublings: the imaginary
        # parts of real roots fall far below the real parts, and sums take
        # the sticky shortcut.
        assume(f.degree >= 2)
        for iterations in (1, 3, 60 + 6 * f.degree):
            ours, oracle = _sweep_both(f, _circle(f, 4160), 4160, iterations)
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

    @settings(max_examples=40, deadline=None)
    @given(
        polys(max_degree=6),
        st.sampled_from(_PRECISIONS),
        st.lists(_rationals, min_size=6, max_size=6),
    )
    def test_gamma_is_the_mpc_horner(self, f, prec, weights):
        # convergence._gamma_with_bound evaluates sum x_i alpha^i by the
        # sweep's Horner; at each root that is mpc Horner's value, bit for
        # bit.  (analyze refuses degree 1, whose one root is a rational.)
        assume(f.degree >= 2 and dense.is_squarefree(f))
        x = weights[: f.degree]
        with mp.workprec(prec):
            for est in roots.all_roots(f, prec // 2):
                gamma, _ = convergence._gamma_with_bound(x, est)
                oracle = dense.horner_mpc([to_mpf(c, mp) for c in reversed(x)], est.center)
                assert gamma._mpc_ == oracle._mpc_


class TestWarmStart:
    @settings(max_examples=40, deadline=None)
    @given(polys(max_degree=6), st.sampled_from((128, 256)))
    @example(parse_polynomial("c:1,0,-21"), 128)
    @example(parse_polynomial("c:1,0,0,-1"), 256)
    def test_keeps_every_certified_property(self, f, p):
        # analyze's later rounds: all_roots at 2p bits from the centres it
        # certified at p bits, against a 3p-bit mpmath oracle and a cold start.
        assume(f.degree >= 2 and dense.is_squarefree(f))
        start = tuple(est.center for est in roots.all_roots(f, p))
        warm = roots.all_roots(f, 2 * p, start=start)
        cold = roots.all_roots(f, 2 * p)
        assert len(warm) == f.degree
        assert sum(est.is_real for est in warm) == roots.count_real_roots(f)
        with mp.workprec(3 * p):
            oracle = mp.polyroots([to_mpf(c, mp) for c in f.monic_coefficients()],
                                  maxsteps=500, extraprec=3 * p)
            for est in warm:
                assert est.radius <= mp.mpf(2) ** -p
                assert sum(abs(z - est.center) <= est.radius for z in oracle) == 1
                twin = min(cold, key=lambda c: abs(c.center - est.center))
                assert abs(twin.center - est.center) <= est.radius + twin.radius
            for i, a in enumerate(warm.roots):
                for b in warm.roots[i + 1:]:
                    assert abs(a.center - b.center) > a.radius + b.radius
