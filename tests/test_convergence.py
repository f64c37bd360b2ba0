import contextlib
import io
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import repapprox as ra
from repapprox.backends import mpf_to_rational, rational, to_mpf
from repapprox import cli, convergence, roots
from repapprox.convergence import (
    _limit_data,
    analyze,
    limit_ratio,
    resolving_enclosure,
)
from repapprox.errors import (
    DominanceUndecidable,
    NotSquarefree,
    RepApproxError,
    RootSeparationError,
    UsageError,
    ZeroDenominator,
)
from repapprox.iterative import run_method
from repapprox.polynomial import Polynomial, parse_polynomial
from repapprox.powers import ratio_sequence
from repapprox.regrep import build
from repapprox.roots import (
    Enclosure,
    _bracket,
    all_roots,
    isolate_real_roots,
    refine_real_root,
)

import dense

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
        assert _nstr(report.c_value, sig) == expect
        dominant = report.roots.roots[report.dominant_index]
        assert abs(mp.re(dominant.center) - root) < 1e-5

    @pytest.mark.parametrize("bits", [roots.MAX_PRECISION + 1, 2 * roots.MAX_PRECISION])
    def test_precision_over_the_cap_refused_first(self, ramanujan, asked_precisions, bits):
        # A dominant input, certified at MAX_PRECISION itself: above it the
        # refusal names the cap instead of reporting a tie.
        with pytest.raises(UsageError, match=f"MAX_PRECISION = {roots.MAX_PRECISION}"):
            analyze(ramanujan, (0, -1, 1), bits)
        assert asked_precisions == []

    def test_c_value_with_corrected_final_digit(self, ramanujan):
        # published as 3.68141; the correctly computed value is 3.6813962...
        report = analyze(ramanujan, (1, -1, 1))
        assert _nstr(report.c_value, 6) == "3.6814"
        assert abs(report.c_value - mp.mpf("3.6813962")) < 1e-6

    def test_reflected_polynomial_target(self, ramanujan):
        # dominance lands on 1/alpha_2 for the reciprocal-root polynomial
        reflected = dense.reflect(ramanujan)
        report = analyze(reflected, (-3, 1, -1))
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
        prec = min(a.roots.work_prec, b.roots.work_prec)
        with mp.workprec(prec):
            assert abs(a.c_value - b.c_value) < mp.mpf(2) ** (-prec // 2)

    def test_complex_dominance_uncertifiable(self, monkeypatch, asked_precisions):
        # the largest-modulus roots of t^3 + t + 1 are a conjugate pair, so
        # gamma = alpha ties in modulus and can never be strictly dominant;
        # that is proven at the first precision, with no escalation
        f = parse_polynomial("u:0,-1,-1")
        monkeypatch.setattr(convergence, "MAX_PRECISION", 2048)
        with pytest.raises(DominanceUndecidable) as info:
            analyze(f, (0, 1, 0))
        message = str(info.value)
        assert "no strictly dominant gamma certifiable for x=(0,1,0)" in message
        assert "conjugate pair of non-real roots" in message
        assert "found at 256 bits" in message and "up to" not in message
        assert asked_precisions == [256]

    def test_real_and_nonreal_tie_still_escalates(self, monkeypatch, asked_precisions):
        # t^3 - 1 with gamma = alpha: the real root 1 ties |omega| = 1, which
        # the disks cannot separate, so analyze doubles to the ceiling
        f = parse_polynomial("c:1,0,0,-1")
        monkeypatch.setattr(convergence, "MAX_PRECISION", 2048)
        with pytest.raises(DominanceUndecidable, match="up to 2048 bits") as info:
            analyze(f, (0, 1, 0))
        assert "conjugate" not in str(info.value)
        assert asked_precisions == [256, 512, 1024, 2048]

    def test_each_doubling_continues_from_the_last_roots(self, monkeypatch):
        # The +- tie gamma = +-3 sqrt(21) doubles from 256 to 65536 bits.
        # Each Aberth sweep evaluates f and f' at the m = 2 points (_horner).
        # A round started from the last round's centres converges in two or
        # three sweeps, and so does the first, from float_start's roots in
        # doubles; from all_roots' circle it takes 7.
        f = parse_polynomial("c:1,0,-21")
        rounds, calls = [], []

        def sweeps(*args):
            calls.append(0)
            try:
                return aberth_pass(*args)
            finally:
                rounds[-1] += calls.pop() // (2 * f.degree)

        def counted_horner(*args):
            if calls:
                calls[-1] += 1
            return horner(*args)

        def round_of(*args, **kwargs):
            rounds.append(0)
            return all_roots(*args, **kwargs)

        aberth_pass, horner = roots._aberth_pass, roots._horner
        monkeypatch.setattr(roots, "_aberth_pass", sweeps)
        monkeypatch.setattr(roots, "_horner", counted_horner)
        monkeypatch.setattr(convergence, "all_roots", round_of)
        roots._all_roots_cached.cache_clear()
        with pytest.raises(DominanceUndecidable, match="up to 65536 bits"):
            analyze(f, (0, 3))
        assert len(rounds) == 9
        assert all(n <= 3 for n in rounds), rounds

    @pytest.mark.parametrize("e", [400, 1000, 3000])
    def test_near_tie_dominant_matches_oracle(self, e):
        # f = t^2 - t/2^e - 2, gamma = alpha: the |gamma| gap is 2^-e, and
        # the root of larger modulus is the positive one.
        f = parse_polynomial(f"c:1,-1/{2**e},-2")
        report = analyze(f, (0, 1))
        with mp.workdps(2000):
            oracle = max(mp.polyroots([1, -mp.mpf(2) ** -e, -2], maxsteps=200, extraprec=2000),
                         key=abs)
            dominant = report.roots.roots[report.dominant_index]
            assert abs(dominant.center - oracle) <= dominant.radius
            assert all(abs(est.center - oracle) > est.radius
                       for i, est in enumerate(report.roots) if i != report.dominant_index)

    @pytest.mark.parametrize("seed", range(4))
    def test_conjugate_refusals_match_oracle(self, seed):
        # Random squarefree f of degree 2..5 with small weights, against
        # 200-digit mpmath roots.  A conjugate-pair refusal must have its top
        # |gamma| on a non-real root; a top |gamma| on a real root that
        # clearly dominates must be certified, at that root, with the
        # oracle's c.  Cases whose top two moduli are within 1e-30 of each
        # other otherwise (a +- or real/non-real tie) escalate and are skipped.
        rng = random.Random(seed)
        seen = {"refused": 0, "certified": 0}
        while sum(seen.values()) < 12:
            m = rng.randint(2, 5)
            coeffs = [1] + [rng.randint(-5, 5) for _ in range(m)]
            x = tuple(rng.randint(-3, 3) for _ in range(m))
            f = Polynomial.from_monic_coefficients([rational(c) for c in coeffs])
            if coeffs[-1] == 0 or not any(x[1:]) or not roots.is_squarefree(f):
                continue
            with mp.workdps(200):
                zs = mp.polyroots(coeffs, maxsteps=500, extraprec=800)
                gam = [abs(mp.polyval(list(x[::-1]), z)) for z in zs]
                order = sorted(range(m), key=lambda t: -gam[t])
                top = zs[order[0]]
                top_real = abs(mp.im(top)) < mp.mpf(10) ** -150
                gap = (gam[order[0]] - gam[order[1]]) / gam[order[0]]
                if top_real and gap < mp.mpf(10) ** -30:
                    continue
                if not top_real and any(
                    abs(mp.im(zs[t])) < mp.mpf(10) ** -150
                    and gam[order[0]] - gam[t] < mp.mpf(10) ** -30 * gam[order[0]]
                    for t in order[1:]
                ):
                    continue
                try:
                    report = analyze(f, x)
                except DominanceUndecidable as exc:
                    assert "conjugate pair" in str(exc), (coeffs, x)
                    assert not top_real, (coeffs, x)
                    seen["refused"] += 1
                    continue
                assert top_real, (coeffs, x)
                center = report.roots.roots[report.dominant_index].center
                assert abs(center - top) < mp.mpf(10) ** -30
                c = gam[order[0]] / gam[order[1]]
                assert abs(report.c_value - c) < mp.mpf(10) ** -30 * c
                seen["certified"] += 1
        assert seen["refused"] and seen["certified"], seen

    def test_gamma_values_match_direct_evaluation(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        with mp.workprec(report.roots.work_prec):
            for est, g in zip(report.roots, report.gamma):
                direct = est.center**2 - est.center
                assert abs(direct - g) < mp.mpf(2) ** (-report.roots.work_prec // 2)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _analysis(f, x):
    """analyze's dominant and runner-up index, or its refusal."""
    try:
        report = analyze(f, x)
    except RepApproxError as exc:
        return type(exc), str(exc)
    return report.dominant_index, report.runner_up_index


class TestFloatStart:
    """analyze's first round starts Aberth from roots.float_start."""

    def test_first_round_starts_in_doubles(self, ramanujan, asked_starts):
        analyze(ramanujan, (0, 1, 0))
        assert asked_starts[0] is not None
        assert asked_starts[0] == roots.float_start(ramanujan)

    @pytest.mark.parametrize(
        "f",
        [parse_polynomial(f"c:1,-{2**1100},1"), dense.near_double(32), dense.near_double(100)],
        ids=["overflow", "axis", "cluster"],
    )
    def test_circle_where_doubles_do_not_start(self, f, asked_starts):
        report = analyze(f, (0, 1))
        assert asked_starts[0] is None
        assert (report.dominant_index, report.runner_up_index) == (0, 1)
        assert report.roots.roots[0].center.real > report.roots.roots[1].center.real > 0

    def test_non_squarefree_refused_before_float_work(self, monkeypatch):
        def no_float_work(*args):
            raise AssertionError("float sweep ran")

        monkeypatch.setattr(roots, "_horner_float", no_float_work)
        with pytest.raises(NotSquarefree, match="gcd"):
            analyze(parse_polynomial("c:1,-1,-1,1"), (0, 1, 0))  # (t - 1)^2 (t + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 8).flatmap(lambda m: st.lists(st.integers(-6, 6), min_size=m, max_size=m)),
        st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    )
    def test_answers_as_from_the_circle(self, u, weights):
        f = Polynomial(tuple(map(rational, u)))
        assume(dense.is_squarefree(f))
        x = weights[: f.degree]
        # An exact gamma = 0 prints as rounding noise whose digits depend on
        # Aberth's path, whatever the start (ROADMAP direction 5).
        assume(len(dense.poly_gcd(f.monic_coefficients(), tuple(map(rational, x[::-1])))) == 1)
        poly = "u:" + ",".join(map(str, u))
        text = ",".join(map(str, x))
        argvs = [
            ["c-ratio", "--poly", poly, "--x", text],
            ["limits", "--poly", poly, "--x", text, "--indices", f"1,1,1,2;2,1,{f.degree},1"],
        ]
        answers = [_analysis(f, x)] + [_run_cli(argv) for argv in argvs]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convergence, "float_start", lambda f: None)
            assert [_analysis(f, x)] + [_run_cli(argv) for argv in argvs] == answers


class TestLimitRatio:
    def test_offset_recovery(self, ramanujan):
        # (2,1)/(3,1) converges to root - u_1; here u_1 = -1
        report = analyze(ramanujan, (0, -1, 1))
        pred = limit_ratio(report, (2, 1), (3, 1), 40)  # digits for the 1e-40 below
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        with mp.workprec(pred.work_prec):
            assert abs(pred.limit - (alpha + 1)) < 1e-40
        assert not pred.degenerate

    @pytest.mark.parametrize("num,den", [((2, 2), (2, 1)), ((2, 3), (2, 2)), ((3, 3), (3, 2))])
    def test_adjacent_column_ratios_hit_root(self, ramanujan, num, den):
        report = analyze(ramanujan, (0, -1, 1))
        pred = limit_ratio(report, num, den, 40)  # digits for the 1e-40 below
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        with mp.workprec(pred.work_prec):
            assert abs(pred.limit - alpha) < 1e-40

    @pytest.mark.parametrize("indices", [(3, 2, 1, 3), (3, 1, 1, 2)])
    def test_constant_families_degenerate(self, ramanujan, indices):
        report = analyze(ramanujan, (0, -1, 1))
        i, j, p, q = indices
        pred = limit_ratio(report, (i, j), (p, q), 20)
        assert pred.degenerate
        assert pred.rate_constant == 0

    def test_index_validation(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        with pytest.raises(UsageError):
            limit_ratio(report, (4, 1), (3, 1), 20)

    def test_index_refusal_has_one_message(self, ramanujan):
        # limit_ratio and ratio_sequence refuse an index outside 1..m alike,
        # each before any limit data or power.
        report = analyze(ramanujan, (0, -1, 1))
        M = build(ramanujan, (0, -1, 1))
        for num, den, refused in (((4, 1), (3, 1), "numerator index (4, 1)"),
                                  ((2, 1), (3, 0), "denominator index (3, 0)")):
            for call in (lambda: limit_ratio(report, num, den, 20),
                         lambda: ratio_sequence(M, num, den, 0, (5,))):
                with pytest.raises(UsageError) as info:
                    call()
                assert str(info.value) == f"{refused} out of range 1..3"

    def test_zero_denominator_refused_exactly(self):
        text, x = ZERO_B_K
        f = parse_polynomial(text)
        report = analyze(f, x)
        with pytest.raises(ZeroDenominator, match="is indistinguishable from zero"):
            limit_ratio(report, (1, 1), (2, 1), 20)

    def test_measured_ratio_approaches_limit(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        pred = limit_ratio(report, (2, 1), (3, 1), 170)  # digits for the 10**-170 below
        m = build(ramanujan, (0, -1, 1))
        p200 = ra.mat_pow(m, 200).entries
        measured = rational(p200[1][0]) / p200[2][0]
        with mp.workprec(pred.work_prec):
            diff = abs(to_mpf(measured.numerator, mp) / to_mpf(measured.denominator, mp) - pred.limit)
            assert diff < mp.mpf(10) ** -170


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda m: st.lists(st.integers(-6, 6), min_size=m, max_size=m)),
    st.data(),
)
def test_printed_limit_is_the_capped_centre_printed(u, data):
    # Enclosed only until its ends print alike, L prints as the centre of
    # the enclosure at the cap (twice the roots' precision, in digits) does.
    f = Polynomial(tuple(map(rational, u)))
    assume(dense.is_squarefree(f))
    m = f.degree
    x = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    assume(any(x[1:]))
    num, den = (data.draw(st.tuples(st.integers(1, m), st.integers(1, m))) for _ in range(2))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convergence, "MAX_PRECISION", 1024)  # a +- tie is refused early
            report = analyze(f, x)
        pred = limit_ratio(report, num, den, 20)
    except (DominanceUndecidable, ZeroDenominator):
        assume(False)
    cap = pred.work_prec * 30103 // 100000 + 1
    enc = dense.limit_to_places(f, _limit_data(report, num, den), cap)
    with mp.workprec(pred.work_prec):
        printed = mp.nstr(pred.limit, 20)
        assert printed == mp.nstr(to_mpf(enc.center, mp), 20)
    # The bar covers the printed value's distance to the limit.
    assert abs(Fraction(printed) - enc.center) <= pred.limit_error + enc.radius


class TestRateReport:
    def test_reference_slope(self, ramanujan):
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        assert not limit_ratio(report, (2, 1), (3, 1), 20).degenerate
        m = build(ramanujan, x)
        records = ratio_sequence(m, (2, 1), (3, 1), -1, range(20, 101, 5))
        tail = records[len(records) // 2 :]  # n = 60, ..., 100
        with mp.workprec(64):
            predicted = -mp.log10(report.c_value)  # c = 7.85086
            assert mp.nstr(predicted, 4) == "-0.8949"
            slope = dense.log_error_slope(tail)
            assert abs(slope - predicted) / abs(predicted) < 0.005


class TestSpectralStructure:
    def test_diagonalization_residual(self, ramanujan):
        roots = all_roots(ramanujan, 192)
        a = dense.companion(ramanujan)
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
        with mp.workprec(report.roots.work_prec):
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
                            -report.roots.work_prec // 3
                        )


class TestCubicClosedForms:
    def test_self_ratio_is_one(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        for numerator in ((2, 2), (3, 3)):
            mbar = dense.cubic_limit_matrix(report, numerator)
            h, k = numerator
            assert abs(mbar[h - 1][k - 1] - 1) < 1e-40

    def test_cube_of_root_over_r(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        mbar = dense.cubic_limit_matrix(report, (3, 3))
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        with mp.workprec(report.roots.work_prec):
            assert abs(mbar[0][0] - alpha**3) < 1e-40  # r = 1

    def test_remark_ratio_equals_r(self):
        f = parse_polynomial("u:1,1,4")  # r = 4, dominant real root exists
        report = analyze(f, (0, -1, 1))
        mbar = dense.cubic_limit_matrix(report, (2, 2))
        with mp.workprec(report.roots.work_prec):
            assert abs(mbar[2][0] / mbar[0][1] - 4) < 1e-30
            assert abs(mbar[2][1] / mbar[0][2] - 4) < 1e-30

    def test_agrees_with_limit_ratio_everywhere(self, ramanujan):
        report = analyze(ramanujan, (0, -1, 1))
        for numerator in ((2, 2), (3, 3)):
            mbar = dense.cubic_limit_matrix(report, numerator)
            for h in range(1, 4):
                for k in range(1, 4):
                    pred = limit_ratio(report, numerator, (h, k), 35)  # for the 1e-35 below
                    with mp.workprec(report.roots.work_prec):
                        assert abs(pred.limit - mbar[h - 1][k - 1]) < 1e-35


def _assert_holds_dominant_root(f, report, bracket):
    # Checked apart from the rank that picked it: f changes sign across the
    # bracket, and the dominant root's Aberth centre lies inside it.
    a, b = bracket
    assert dense.evaluate(f, a) * dense.evaluate(f, b) < 0
    assert a < mpf_to_rational(mp.re(report.roots.roots[report.dominant_index].center)) < b


def test_second_limit_data_isolates_nothing(ramanujan, monkeypatch):
    # isolate_real_roots is cached per f, so every limit of one (f, x)
    # after the first reads the Sturm brackets back.
    report = analyze(ramanujan, (0, -1, 1))
    first = _limit_data(report, (1, 1), (1, 2))
    variations, counted = roots._variations, []
    monkeypatch.setattr(roots, "_variations", lambda *args: counted.append(args) or variations(*args))
    assert _limit_data(report, (2, 1), (1, 2))[2] == first[2]
    assert counted == []


@st.composite
def _real_rooted(draw):
    """Squarefree f of degree 2-6 with two or more rational real roots, some
    of them pairs +-a, times at most one quadratic with no real root."""
    real = set()
    for k in draw(st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True)):
        a = rational(k, draw(st.sampled_from((1, 2, 3))))
        real.update(draw(st.sampled_from(((a,), (-a,), (a, -a)))))
    real = sorted(real)
    assume(2 <= len(real) <= 6)
    coeffs = [rational(1)]
    for r in real:
        coeffs = dense.poly_mul(coeffs, [rational(1), -r])
    if len(real) <= 4 and draw(st.booleans()):
        b = draw(st.integers(-3, 3))
        coeffs = dense.poly_mul(coeffs, [1, b, draw(st.integers(b * b // 4 + 1, 9))])
    return Polynomial.from_monic_coefficients(coeffs)


@settings(max_examples=60, deadline=None)
@given(_real_rooted(), st.data())
def test_rank_bracket_holds_the_dominant_root(f, data):
    m = f.degree
    x = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    assume(any(x[1:]))
    num, den = (data.draw(st.tuples(st.integers(1, m), st.integers(1, m))) for _ in range(2))
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convergence, "MAX_PRECISION", 1024)  # a +- tie is refused early
            report = analyze(f, x)
        bracket = _limit_data(report, num, den)[2]
    except (DominanceUndecidable, ZeroDenominator):
        assume(False)
    assert bracket in isolate_real_roots(f)
    a, b = bracket
    assert dense.evaluate(f, a) * dense.evaluate(f, b) < 0
    with mp.workprec(3 * 256):
        found = mp.polyroots([to_mpf(c, mp) for c in f.monic_coefficients()],
                             maxsteps=200, extraprec=3 * 256)
        real = [mp.re(z) for z in found if abs(mp.im(z)) < mp.mpf(2) ** -200]
        top = max(real, key=lambda r: abs(sum(c * r**i for i, c in enumerate(x))))
        assert to_mpf(a, mp) < top < to_mpf(b, mp)


class TestLimitEnclosure:
    @pytest.mark.parametrize("text,x,num,den", _limit_cases())
    def test_non_root_limit(self, text, x, num, den):
        # Every entry ratio, whichever exact case encloses it (a constant, the
        # dominant root itself, or interval arithmetic on its bracket), must
        # contain the Vandermonde limit computed independently in mpmath.
        f = parse_polynomial(text)
        report = analyze(f, x)
        enc = dense.limit_to_places(f, _limit_data(report, num, den), places=60)
        assert enc.radius <= rational(1, 10**60)
        v, vinv, k = _vandermonde(text, x)
        (i, j), (p, q) = num, den
        with mp.workdps(150):
            limit = vinv[i - 1, k] * v[k, j - 1] / (vinv[p - 1, k] * v[k, q - 1])
            assert abs(mp.im(limit)) < mp.mpf(10) ** -140
            miss = abs(mp.re(limit) - to_mpf(enc.center, mp)) - to_mpf(enc.radius, mp)
            assert miss <= mp.mpf(10) ** -140

    @pytest.mark.parametrize("num,den,offset", [((2, 1), (3, 1), -1), ((2, 2), (2, 1), 0)])
    def test_root_limit_is_the_refined_root(self, ramanujan, num, den, offset, monkeypatch):
        # limit + offset = alpha_k exactly, so the enclosure is the root's own
        # refined Sturm bracket, as Tables 1-5 and 7 measure against.
        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        data = _limit_data(report, num, den)
        monkeypatch.setattr(convergence, "_FIRST_DIGITS", 60)
        enc = resolving_enclosure(ramanujan, data, (), offset)
        bracket = data[2]
        _assert_holds_dominant_root(ramanujan, report, bracket)
        assert enc == refine_real_root(ramanujan, bracket, rational(1, 10**60))
        if offset == 0:
            assert dense.limit_to_places(ramanujan, data, 60) == enc

    def test_exact_constant_ratio(self):
        # (1,3)/(3,2) is -4 at every n here: N = -4 D modulo f.
        f = parse_polynomial("c:1,-3,-4,4")
        x = (-1, 0, 3)
        report = analyze(f, x)
        enc = dense.limit_to_places(f, _limit_data(report, (1, 3), (3, 2)), places=60)
        assert enc == Enclosure(rational(-4), rational(0))

    def test_zero_denominator_refused_exactly(self):
        text, x = ZERO_B_K
        f = parse_polynomial(text)
        report = analyze(f, x)
        with pytest.raises(ZeroDenominator, match="is indistinguishable from zero"):
            dense.limit_to_places(f, _limit_data(report, (1, 1), (2, 1)), places=60)


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
        limit = _limit_data(analyze(ramanujan, x), (2, 1), (3, 1))
        enc = resolving_enclosure(ramanujan, limit, values, -1)
        assert enc.radius > 0
        _assert_resolved(enc, values)

    def test_newton_run_resolved(self, ramanujan):
        values = [r.value for r in run_method("newton", ramanujan, rational(-2), 10)]
        bracket = next(
            (a, b) for a, b in isolate_real_roots(ramanujan) if a <= values[-1] <= b
        )
        enc = resolving_enclosure(ramanujan, ((1, 0), (1,), bracket), values)  # N = t, D = 1
        assert enc.radius > 0
        _assert_resolved(enc, values)

    @pytest.mark.parametrize(
        "num,den,offset,ns",
        [((2, 1), (3, 1), -1, (5000,)), ((1, 1), (2, 1), 0, (3000, 12000))],
        ids=["alpha", "quotient"],
    )
    def test_exact_case_decided_once_and_one_bracket_refined(
        self, ramanujan, monkeypatch, num, den, offset, ns
    ):
        # (2,1)/(3,1) - 1 is alpha itself; (1,1)/(2,1) is an interval quotient.
        # One sequence decides its limit's exact case once, refines the Sturm
        # bracket once, and starts every later refinement at the bracket the
        # previous one returned.
        calls = {"_refine": [], "_constant_quotient": [], "_shares_root": [],
                 "enclose_quotient": []}

        def logged(module, name):
            fn = getattr(module, name)

            def wrapped(*args):
                result = fn(*args)
                calls[name].append((args, result))
                return result

            monkeypatch.setattr(module, name, wrapped)

        x = (0, -1, 1)
        report = analyze(ramanujan, x)
        bracket = _limit_data(report, num, den)[2]
        _assert_holds_dominant_root(ramanujan, report, bracket)
        sturm = _bracket(*bracket)
        logged(roots, "_refine")
        for name in ("_constant_quotient", "_shares_root", "enclose_quotient"):
            logged(convergence, name)
        values = [r.value for r in ratio_sequence(build(ramanujan, x), num, den, offset, ns)]
        refines = calls["_refine"]
        starts = [args[1:4] for args, _ in refines]
        assert starts[0] == sturm and starts.count(sturm) == 1
        assert starts[1:] == [result for _, result in refines[:-1]]
        assert len(calls["_constant_quotient"]) == 1
        # The first enclosure is of limit + offset in both cases: the offset
        # is folded into alpha in the first and is 0 in the second.
        first = calls["enclose_quotient"][0][1][0]
        inside = sum(abs(v - first.center) <= first.radius for v in values)
        assert len(calls["_shares_root"]) <= 2 + inside

    def test_no_exactness_test_when_the_limit_is_irrational(self, ramanujan, monkeypatch):
        # Ramanujan's cubic has no rational root, so no Newton iterate can be
        # alpha: the one gcd test is the alpha case's, although the last
        # iterates lie inside the first enclosure.
        values = [r.value for r in run_method("newton", ramanujan, rational(-2), 10)]
        bracket = next((a, b) for a, b in isolate_real_roots(ramanujan) if a <= values[-1] <= b)
        first, _ = roots.enclose_quotient(ramanujan, (1, 0), (1,), _bracket(*bracket), 30)
        assert sum(abs(v - first.center) <= first.radius for v in values) >= 3
        calls = []

        def counted(*args):
            calls.append(args)
            return shares_root(*args)

        shares_root = convergence._shares_root
        monkeypatch.setattr(convergence, "_shares_root", counted)
        enc = resolving_enclosure(ramanujan, ((1, 0), (1,), bracket), values)
        assert len(calls) == 1 and enc.radius > 0
        _assert_resolved(enc, values)

    def test_exact_root_of_a_reducible_cubic_gives_radius_zero(self):
        # f = (t - 1/3)(t^2 - 2): the value 1/3 is the root itself.
        f = parse_polynomial("c:1,-1/3,-2,2/3")
        bracket = next((a, b) for a, b in isolate_real_roots(f) if a <= rational(1, 3) <= b)
        values = [rational(3, 10), rational(1, 3)]
        enc = resolving_enclosure(f, ((1, 0), (1,), bracket), values)
        assert enc == Enclosure(rational(1, 3), rational(0))

    def test_exact_value_gives_radius_zero(self):
        # f = t(t + 2)(t - 1/3), g = t(t + 2): the ratio is 1/3 at every n.
        f = parse_polynomial("c:1,5/3,-2/3,0")
        x = (0, 2, 1)
        values = [r.value for r in ratio_sequence(build(f, x), (2, 2), (2, 1), 0, (5, 6))]
        enc = resolving_enclosure(f, _limit_data(analyze(f, x), (2, 2), (2, 1)), values)
        assert enc == Enclosure(rational(1, 3), rational(0))


def find_certified_weights(f, target_index, bound=3, precision_bits=256):
    """Search small integer weights giving certified dominance at a root index.

    Brute force over x in {-bound..bound}^m; returns (weights, c) pairs
    sorted by decreasing c.  No completeness claim: this is a convenience
    for choosing which root the powers of M will approximate.
    """
    m = f.degree
    found = []
    for xs in product(range(-bound, bound + 1), repeat=m):
        if all(c == 0 for c in xs) or all(c == 0 for c in xs[1:]):
            continue
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(convergence, "MAX_PRECISION", precision_bits * 4)
                report = analyze(f, xs, precision_bits)
        except (DominanceUndecidable, RootSeparationError):
            continue
        if report.dominant_index == target_index:
            found.append((xs, report.c_value))
    found.sort(key=lambda pair: (-pair[1], pair[0]))
    return found


def test_find_certified_weights(ramanujan):
    found = find_certified_weights(ramanujan, target_index=2, bound=2)
    assert found
    for xs, c in found[:3]:
        report = analyze(ramanujan, xs)
        assert report.dominant_index == 2
        assert c > 1
