from functools import lru_cache
from itertools import product

import mpmath as mp
import pytest

import repapprox as ra
from repapprox.backends import rational, to_mpf
from repapprox.convergence import (
    _limit_data,
    analyze,
    cubic_limit_matrix,
    find_certified_weights,
    limit_enclosure,
    limit_ratio,
    rate_report,
    resolving_enclosure,
)
from repapprox.errors import (
    DegenerateRatio,
    DomainError,
    DominanceUndecidable,
    UsageError,
    ZeroDenominator,
)
from repapprox.iterative import run_method
from repapprox.polynomial import parse_polynomial
from repapprox.powers import ratio_sequence
from repapprox.regrep import build
from repapprox.roots import (
    Enclosure,
    all_roots,
    isolate_real_roots,
    isolating_interval_for,
    refine_to_decimal_digits,
)

# f = (t - 3)(t - 1)(t + 1) with gamma = alpha: alpha_k = 3 is a root of the
# denominator polynomial t - 3 of B_k for den (2, 1), so B_k = 0 exactly.
ZERO_B_K = ("c:1,-3,-1,3", (0, 1, 0))

LIMIT_CASES = {
    "ramanujan": ("c:1,1,-2,-1", (0, -1, 1)),
    "quintic": ("c:1,-2,-4,6,2,-1", (0, 1, 0, 0, 0)),
}


@lru_cache(maxsize=None)
def _vandermonde(text, x, dps=150):
    """(V, V^-1, k) at `dps` digits; k is the root with the largest |gamma|."""
    f = parse_polynomial(text)
    with mp.workdps(dps):
        roots = mp.polyroots([to_mpf(c, mp) for c in f.monic_coefficients()],
                             maxsteps=400, extraprec=4 * dps)
        gam = [sum(c * r**e for e, c in enumerate(x)) for r in roots]
        k = max(range(len(roots)), key=lambda t: abs(gam[t]))
        m = len(roots)
        v = mp.matrix(m, m)
        for t, r in enumerate(roots):
            for s in range(m):
                v[t, s] = r**s
        return v, v**-1, k


def _limit_cases():
    for label, (text, x) in LIMIT_CASES.items():
        m = len(x)
        for i, j, p, q in product(range(1, m + 1), repeat=4):
            yield pytest.param(text, x, (i, j), (p, q), id=f"{label}-{i}{j}-{p}{q}")


def _nstr(x, sig):
    return mp.nstr(x, sig)


class TestAnalyze:
    @pytest.mark.parametrize(
        "x,sig,expect,root",
        [
            ((0, 0, 1), 6, "2.08815", -1.8019377),
            ((0, -1, 1), 6, "7.85086", -1.8019377),
            ((69, 99, -124), 5, "1343.4", -1.8019377),
            ((10, -2, -3), 3, "2.67", -0.4450419),
        ],
    )
    def test_published_c_values(self, ramanujan, x, sig, expect, root):
        report = analyze(ramanujan, x)
        assert report.certified
        assert _nstr(report.c_value, sig) == expect
        dominant = report.roots.roots[report.dominant_index]
        assert abs(mp.re(dominant.center) - root) < 1e-5

    def test_c_value_with_corrected_final_digit(self, ramanujan):
        # published as 3.68141; the correctly computed value is 3.6813962...
        report = analyze(ramanujan, (1, -1, 1))
        assert _nstr(report.c_value, 6) == "3.6814"
        assert abs(report.c_value - mp.mpf("3.6813962")) < 1e-6

    def test_reflected_polynomial_target(self, ramanujan):
        # dominance lands on 1/alpha_2 for the reciprocal-root polynomial
        reflected = ramanujan.reflect()
        report = analyze(reflected, (-3, 1, -1))
        assert report.certified
        assert _nstr(report.c_value, 3) == "2.67"
        dominant = report.roots.roots[report.dominant_index]
        assert abs(mp.re(dominant.center) - (-2.2469796)) < 1e-5

    def test_rational_element_fails(self, ramanujan):
        with pytest.raises(DominanceUndecidable):
            analyze(ramanujan, (1, 0, 0))

    def test_scaling_invariance(self, ramanujan):
        a = analyze(ramanujan, (0, -1, 1))
        b = analyze(ramanujan, (0, -3, 3))
        assert a.dominant_index == b.dominant_index
        assert a.certified and b.certified
        with mp.workprec(min(a.work_prec, b.work_prec)):
            assert abs(a.c_value - b.c_value) < mp.mpf(2) ** (-min(a.work_prec, b.work_prec) // 2)

    def test_complex_dominance_uncertifiable(self):
        # the largest-modulus roots of t^3 + t + 1 are a conjugate pair, so
        # gamma = alpha ties in modulus and can never be strictly dominant
        f = parse_polynomial("u:0,-1,-1")
        with pytest.raises(DominanceUndecidable):
            analyze(f, (0, 1, 0), ceiling_bits=2048)

    def test_gamma_values_match_direct_evaluation(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        with mp.workprec(report.work_prec):
            for est, g in zip(report.roots, report.gamma):
                direct = est.center**2 - est.center
                assert abs(direct - g) < mp.mpf(2) ** (-report.work_prec // 2)


class TestLimitRatio:
    def test_offset_recovery(self, ramanujan):
        # (2,1)/(3,1) converges to root - u_1; here u_1 = -1
        report = analyze(ramanujan, (0, -1, 1))
        pred = limit_ratio(ramanujan, (0, -1, 1), (2, 1), (3, 1), report)
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        with mp.workprec(pred.work_prec):
            assert abs(pred.limit - (alpha + 1)) < 1e-40
        assert not pred.degenerate

    @pytest.mark.parametrize("num,den", [((2, 2), (2, 1)), ((2, 3), (2, 2)), ((3, 3), (3, 2))])
    def test_adjacent_column_ratios_hit_root(self, ramanujan, num, den):
        report = analyze(ramanujan, (0, -1, 1))
        pred = limit_ratio(ramanujan, (0, -1, 1), num, den, report)
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        with mp.workprec(pred.work_prec):
            assert abs(pred.limit - alpha) < 1e-40

    @pytest.mark.parametrize("indices", [(3, 2, 1, 3), (3, 1, 1, 2)])
    def test_constant_families_degenerate(self, ramanujan, indices):
        report = analyze(ramanujan, (0, -1, 1))
        i, j, p, q = indices
        pred = limit_ratio(ramanujan, (0, -1, 1), (i, j), (p, q), report)
        assert pred.degenerate
        assert pred.rate_constant == 0

    def test_requires_certified_report(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        object.__setattr__(report, "certified", False)
        with pytest.raises(DomainError):
            limit_ratio(ramanujan, (0, -1, 1), (2, 1), (3, 1), report)

    def test_index_validation(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        with pytest.raises(UsageError):
            limit_ratio(ramanujan, (0, -1, 1), (4, 1), (3, 1), report)

    def test_zero_denominator_refused_exactly(self):
        text, x = ZERO_B_K
        f = parse_polynomial(text)
        report = analyze(f, x)
        with pytest.raises(ZeroDenominator, match="is indistinguishable from zero"):
            limit_ratio(f, x, (1, 1), (2, 1), report)

    def test_measured_ratio_approaches_limit(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        pred = limit_ratio(ramanujan, (0, -1, 1), (2, 1), (3, 1), report)
        m = build(ramanujan, (0, -1, 1))
        p200 = ra.mat_pow(m, 200).entries
        measured = rational(p200[1][0]) / p200[2][0]
        with mp.workprec(pred.work_prec):
            diff = abs(to_mpf(measured.numerator, mp) / to_mpf(measured.denominator, mp) - pred.limit)
            assert diff < mp.mpf(10) ** -170


class TestSpectralStructure:
    def test_diagonalization_residual(self, ramanujan):
        roots = all_roots(ramanujan, 192)
        a = ramanujan.companion()
        with mp.workprec(roots.work_prec):
            m = ramanujan.degree
            v = mp.matrix(m, m)
            for t, est in enumerate(roots):
                for s in range(m):
                    v[t, s] = est.center**s
            vinv = v**-1
            amat = mp.matrix([[to_mpf(a[i][j], mp) for j in range(m)] for i in range(m)])
            d = v * amat * vinv
            for i in range(m):
                for j in range(m):
                    expect = roots.roots[i].center if i == j else 0
                    assert abs(d[i, j] - expect) < mp.mpf(2) ** (-roots.work_prec // 2)

    def test_power_entries_match_spectral_sum(self, ramanujan):
        # M^n[i,j] = sum over roots of Vinv[i,s] V[s,j] gamma_s^n
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        matrix = build(ramanujan, x)
        roots = report.roots
        m = 3
        with mp.workprec(report.work_prec):
            v = mp.matrix(m, m)
            for t, est in enumerate(roots):
                for s in range(m):
                    v[t, s] = est.center**s
            vinv = v**-1
            for n in (1, 5, 20):
                pn = ra.mat_pow(matrix, n).entries
                for i in range(m):
                    for j in range(m):
                        total = mp.mpc(0)
                        for s in range(m):
                            total += vinv[i, s] * v[s, j] * report.gamma[s] ** n
                        exact = to_mpf(pn[i][j], mp)
                        assert abs(total - exact) < max(1, abs(exact)) * mp.mpf(2) ** (
                            -report.work_prec // 3
                        )


class TestCubicClosedForms:
    def test_self_ratio_is_one(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        for numerator in ((2, 2), (3, 3)):
            mbar = cubic_limit_matrix(ramanujan, numerator, report)
            h, k = numerator
            assert abs(mbar[h - 1][k - 1] - 1) < 1e-40

    def test_cube_of_root_over_r(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        mbar = cubic_limit_matrix(ramanujan, (3, 3), report)
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        with mp.workprec(report.work_prec):
            assert abs(mbar[0][0] - alpha**3) < 1e-40  # r = 1

    def test_remark_ratio_equals_r(self):
        f = parse_polynomial("u:1,1,4")  # r = 4, dominant real root exists
        report = analyze(f, (0, -1, 1))
        mbar = cubic_limit_matrix(f, (2, 2), report)
        with mp.workprec(report.work_prec):
            assert abs(mbar[2][0] / mbar[0][1] - 4) < 1e-30
            assert abs(mbar[2][1] / mbar[0][2] - 4) < 1e-30

    def test_agrees_with_limit_ratio_everywhere(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        for numerator in ((2, 2), (3, 3)):
            mbar = cubic_limit_matrix(ramanujan, numerator, report)
            for h in range(1, 4):
                for k in range(1, 4):
                    pred = limit_ratio(ramanujan, (0, -1, 1), numerator, (h, k), report)
                    with mp.workprec(report.work_prec):
                        assert abs(pred.limit - mbar[h - 1][k - 1]) < 1e-35

    def test_requires_cubic(self):
        f = parse_polynomial("c:1,0,-2")
        report = analyze(f, (1, 1))
        with pytest.raises(UsageError):
            cubic_limit_matrix(f, (2, 2), report)

    def test_rejects_zero_r(self):
        f = parse_polynomial("u:0,1,0")  # t^3 - t, squarefree, r = 0
        report = analyze(f, (1, 1, 1))
        with pytest.raises(DomainError):
            cubic_limit_matrix(f, (2, 2), report)


class TestRateReport:
    def test_reference_slope(self, ramanujan):
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        pred = limit_ratio(ramanujan, x, (2, 1), (3, 1), report)
        m = build(ramanujan, x)
        records = ratio_sequence(m, (2, 1), (3, 1), -1, range(20, 101, 5))
        summary = rate_report(pred, report, records)
        assert mp.nstr(summary.predicted_slope, 4) == "-0.8949"
        assert summary.relative_deviation < 0.005

    def test_degenerate_rejected(self, ramanujan):
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        pred = limit_ratio(ramanujan, x, (3, 1), (1, 2), report)
        with pytest.raises(DegenerateRatio):
            rate_report(pred, report, [])

    def test_insufficient_records(self, ramanujan):
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        pred = limit_ratio(ramanujan, x, (2, 1), (3, 1), report)
        m = build(ramanujan, x)
        records = ratio_sequence(m, (2, 1), (3, 1), -1, (10, 20))
        with pytest.raises(DomainError):
            rate_report(pred, report, records)


class TestLimitEnclosure:
    @pytest.mark.parametrize("text,x,num,den", _limit_cases())
    def test_non_root_limit(self, text, x, num, den):
        # Every entry ratio, whichever exact case encloses it (a constant, the
        # dominant root itself, or interval arithmetic on its bracket), must
        # contain the Vandermonde limit computed independently in mpmath.
        f = parse_polynomial(text)
        report = analyze(f, x)
        enc = limit_enclosure(f, x, num, den, report, digits=60)
        assert enc.radius <= rational(1, 10**60)
        v, vinv, k = _vandermonde(text, x)
        (i, j), (p, q) = num, den
        with mp.workdps(150):
            limit = vinv[i - 1, k] * v[k, j - 1] / (vinv[p - 1, k] * v[k, q - 1])
            assert abs(mp.im(limit)) < mp.mpf(10) ** -140
            miss = abs(mp.re(limit) - to_mpf(enc.center, mp)) - to_mpf(enc.radius, mp)
            assert miss <= mp.mpf(10) ** -140

    @pytest.mark.parametrize("num,den,offset", [((2, 1), (3, 1), -1), ((2, 2), (2, 1), 0)])
    def test_root_limit_is_the_refined_root(self, ramanujan, num, den, offset):
        # limit + offset = alpha_k exactly, so the enclosure is the root's own
        # refined Sturm bracket, as Tables 1-5 and 7 measure against.
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        enc = limit_enclosure(ramanujan, x, num, den, report, 60, offset)
        bracket = isolating_interval_for(ramanujan, report.roots.roots[report.dominant_index])
        assert enc == refine_to_decimal_digits(ramanujan, bracket, 60)

    def test_exact_constant_ratio(self):
        # (1,3)/(3,2) is -4 at every n here: N = -4 D modulo f.
        f = parse_polynomial("c:1,-3,-4,4")
        x = (-1, 0, 3)
        report = analyze(f, x)
        enc = limit_enclosure(f, x, (1, 3), (3, 2), report, digits=60)
        assert enc == Enclosure(rational(-4), rational(0))

    def test_zero_denominator_refused_exactly(self):
        text, x = ZERO_B_K
        f = parse_polynomial(text)
        report = analyze(f, x)
        with pytest.raises(ZeroDenominator, match="is indistinguishable from zero"):
            limit_enclosure(f, x, (1, 1), (2, 1), report, digits=60)


def _assert_resolved(enc, values):
    # Each value is the exact limit (radius 0, value at the centre) or lies
    # at least 10**20 radii from the centre, so its printed error is true.
    for v in values:
        exact = enc.radius == 0 and v == enc.center
        assert exact or abs(v - enc.center) >= enc.radius * 10**20


class TestResolvingEnclosure:
    @pytest.mark.parametrize("x", [(0, 0, 1), (1, -1, 1), (0, -1, 1), (69, 99, -124)])
    def test_table1_sequences_resolved(self, ramanujan, x):
        matrix = build(ramanujan, [rational(c) for c in x])
        values = [r.value for r in ratio_sequence(matrix, (2, 1), (3, 1), -1, range(5, 101))]
        limit = _limit_data(ramanujan, (2, 1), (3, 1), analyze(ramanujan, x))
        enc = resolving_enclosure(ramanujan, limit, values, -1)
        assert enc.radius > 0
        _assert_resolved(enc, values)

    def test_newton_run_resolved(self, ramanujan):
        values = [r.value for r in run_method("newton", ramanujan, rational(-2), 10)]
        bracket = next(
            (a, b) for a, b in isolate_real_roots(ramanujan) if a <= values[-1] <= b
        )
        t, one = (rational(1), rational(0)), (rational(1),)
        enc = resolving_enclosure(ramanujan, (t, one, bracket), values)
        assert enc.radius > 0
        _assert_resolved(enc, values)

    def test_exact_value_gives_radius_zero(self):
        # f = t(t + 2)(t - 1/3), g = t(t + 2): the ratio is 1/3 at every n.
        f = parse_polynomial("c:1,5/3,-2/3,0")
        x = (0, 2, 1)
        values = [r.value for r in ratio_sequence(build(f, x), (2, 2), (2, 1), 0, (5, 6))]
        enc = resolving_enclosure(f, _limit_data(f, (2, 2), (2, 1), analyze(f, x)), values)
        assert enc == Enclosure(rational(1, 3), rational(0))


def test_find_certified_weights(ramanujan):
    found = find_certified_weights(ramanujan, target_index=2, bound=2)
    assert found
    for xs, c in found[:3]:
        report = analyze(ramanujan, xs)
        assert report.certified
        assert report.dominant_index == 2
        assert c > 1
