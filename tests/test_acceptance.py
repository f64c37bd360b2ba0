"""Acceptance suite: every numbered criterion gets a test whose first
docstring line appears in the terminal summary (see conftest).

Sub-claims that the source tables print incorrectly (and the published
Halley n=6 digit count, which is our n=7 count) are additionally encoded
literally as strict-xfail tests right next to the corrected assertion, so
the defect is documented rather than silently absorbed.
"""

import random
import time

import mpmath as mp
import pytest

import repapprox as ra
from repapprox import bench, convergence
from repapprox.backends import (
    floor_log10,
    mpf_to_rational,
    rational,
    sci_parts,
    sci_string,
    to_mpf,
)
from repapprox.bench import RAMANUJAN, TABLE6_X0, parse_expected_error, reproduce_table
from repapprox.convergence import analyze, limit_ratio
from repapprox.errors import (
    DomainError,
    DominanceUndecidable,
    RootSeparationError,
    ZeroDenominator,
)
from repapprox.iterative import iterate_records, run_method, sweep_initial_conditions
from repapprox.polynomial import Polynomial, parse_polynomial
from repapprox.powers import constant_ratio_check, mat_pow, ratio_sequence
from repapprox.regrep import build
from repapprox.roots import (
    all_roots,
    is_squarefree,
    isolate_real_roots,
    refine_real_root,
)

import dense

SEED = 20240817


def _matches_printed(value_mp, printed, work_prec):
    mant, exp, sig = parse_expected_error(printed)
    with mp.workprec(work_prec):
        return sci_parts(mpf_to_rational(mp.mpf(value_mp)), sig) == (mant, exp)


@pytest.fixture(scope="module")
def certified_cases():
    """50 random squarefree polynomials with certified dominance (m <= 5)."""
    rng = random.Random(SEED)
    cases = []
    attempts = 0
    while len(cases) < 50 and attempts < 5000:
        attempts += 1
        m = rng.choice((2, 3, 4, 5))
        u = [rng.randint(-4, 4) for _ in range(m - 1)]
        u.append(rng.choice([v for v in range(-4, 5) if v]))
        f = Polynomial(u)
        if not is_squarefree(f):
            continue
        x = [rng.randint(-5, 5) for _ in range(m)]
        if all(c == 0 for c in x) or all(c == 0 for c in x[1:]):
            continue
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(convergence, "MAX_PRECISION", 2048)
                report = analyze(f, x, 192)
        except (DominanceUndecidable, RootSeparationError):
            continue
        cases.append((f, tuple(x), report))
    assert len(cases) == 50
    return cases


def test_criterion_01_table1_errors():
    """Criterion 1: all 24 published error cells reproduce, under 10 s."""
    start = time.perf_counter()
    result = reproduce_table(1)
    elapsed = time.perf_counter() - start
    assert len(result.cells) == 24
    assert all(c.status == "within-tolerance" for c in result.cells)
    reference = next(c for c in result.cells if c.cell == "(0,-1,1),n=50")
    assert reference.measured == "4.4e-45"
    assert elapsed < 10.0


def test_criterion_02_digit_tables_no_silent_mismatch():
    """Criterion 2: digit counts match exactly or are flagged, never silently."""
    t2 = reproduce_table(2)
    t5 = reproduce_table(5)
    assert len(t2.cells) == 24 and len(t5.cells) == 24
    for result in (t2, t5):
        labels = [c.cell for c in result.cells]
        assert len(labels) == len(set(labels))  # each grid cell exactly once
        for c in result.cells:
            agrees = c.measured == c.expected
            assert agrees == (c.status == "exact")  # zero silent mismatches
    assert not t2.mismatches
    assert [c.cell for c in t5.mismatches] == ["(2,2)/(2,1),n=35"]
    merged = bench.discrepancies_csv([t2, t5])
    assert merged.count("\n") == 49  # header plus all 48 comparisons


def _table5_n35(num, den):
    return ratio_sequence(build(RAMANUJAN, (0, -1, 1)), num, den, 0, (35,))[0]


def test_criterion_02_table5_n35_neighbours():
    """Criterion 2: at n=35, (2,2)/(2,1) has 24 digits and (2,3)/(2,2) the published 25."""
    flagged = _table5_n35((2, 2), (2, 1))
    assert flagged.value.denominator == 793208935815715832706916
    assert flagged.den_digits == flagged.reduced_den_digits == 24
    neighbour = _table5_n35((2, 3), (2, 2))
    assert neighbour.value.denominator == 1429313113823936258738797
    assert neighbour.reduced_den_digits == 25 == bench.TABLE5_DIGITS["(2,3)/(2,2)"][2]


@pytest.mark.xfail(
    strict=True,
    reason="source prints 25 digits for (2,2)/(2,1) at n=35; the exact reduced "
    "denominator 793208935815715832706916 has 24, reduced or not. The next row's "
    "n=35 cell, (2,3)/(2,2), prints 25 and has 25: likely a copy slip",
)
def test_criterion_02_published_table5_n35_digits():
    """Criterion 2 (literal): the published (2,2)/(2,1) n=35 digit count."""
    assert _table5_n35((2, 2), (2, 1)).reduced_den_digits == 25


def test_criterion_03_dominance_ratios(ramanujan):
    """Criterion 3: published dominance ratios c reproduce at printed digits."""
    for x, printed in (
        ((0, 0, 1), "2.08815"),
        ((0, -1, 1), "7.85086"),
        ((69, 99, -124), "1343.4"),
    ):
        report = analyze(ramanujan, x)
        assert _matches_printed(report.c_value, printed, report.roots.work_prec)
        dominant = report.roots.roots[report.dominant_index]
        assert abs(mp.re(dominant.center) + 1.8019377) < 1e-5

    report = analyze(ramanujan, (10, -2, -3))
    assert _matches_printed(report.c_value, "2.67", report.roots.work_prec)
    dominant = report.roots.roots[report.dominant_index]
    assert abs(mp.re(dominant.center) + 0.4450419) < 1e-5

    # the published 3.68141 carries a final-digit rounding error; the exact
    # value starts 3.6813962
    report = analyze(ramanujan, (1, -1, 1))
    assert _matches_printed(report.c_value, "3.68140", report.roots.work_prec)


@pytest.mark.xfail(
    strict=True,
    reason="source prints c(1,-1,1)=3.68141; the exactly computed value is "
    "3.6813962..., which rounds to 3.68140 at six digits",
)
def test_criterion_03_published_c_final_digit(ramanujan):
    """Criterion 3 (literal): c(1,-1,1) as printed, including its last digit."""
    report = analyze(ramanujan, (1, -1, 1))
    assert _matches_printed(report.c_value, "3.68141", report.roots.work_prec)


def test_criterion_04_equal_digit_rows():
    """Criterion 4: all 12 equal-digit comparison rows reproduce (n, error, digits)."""
    result = reproduce_table(3)
    assert len(result.cells) == 36
    assert not result.mismatches


def test_criterion_05_ratio_variants():
    """Criterion 5: the four entry-ratio variants reproduce at printed precision."""
    result = reproduce_table(4)
    assert len(result.cells) == 24
    flagged = result.mismatches
    # one printed cell is provably wrong: the exact value is 1.802e-5
    assert [c.cell for c in flagged] == ["(2,3)/(2,2),n=5"]
    assert flagged[0].measured == "1.8e-5"


@pytest.mark.xfail(
    strict=True,
    reason="source prints 2.0e-5 for variant (2,3)/(2,2) at n=5; two "
    "independent exact computations give 1.802e-5",
)
def test_criterion_05_published_variant_cell():
    """Criterion 5 (literal): every variant cell exactly as printed."""
    result = reproduce_table(4)
    assert not result.mismatches


def test_criterion_06_accelerated_tower():
    """Criterion 6: repeated-cubing rows all reproduce, under 30 s."""
    start = time.perf_counter()
    result = reproduce_table(7)
    elapsed = time.perf_counter() - start
    assert not result.mismatches
    final_digits = next(c for c in result.cells if c.cell == "stride=3,step=6,digits")
    final_error = next(c for c in result.cells if c.cell == "stride=3,step=6,abs_error")
    assert final_digits.measured == "1975"
    assert final_error.measured == "8.4e-2281"
    assert elapsed < 30.0


def test_criterion_07_iterative_method_properties(ramanujan):
    """Criterion 7: order-2/order-3 digit growth and the starting-point sweep."""
    newton = run_method("newton", ramanujan, rational(-2), 9)
    digits = [-floor_log10(r.abs_error) - 1 for r in newton if r.abs_error > 0]
    qualifying = [(a, b) for a, b in zip(digits, digits[1:]) if a >= 2]
    assert qualifying
    # Newton's error constant here is 1.065 > 1: doubling holds to within one
    # digit (the strict form is the xfail below)
    assert all(b >= 2 * a - 1 for a, b in qualifying)

    halley = run_method("halley", ramanujan, rational(-2), 6)
    digits = [-floor_log10(r.abs_error) - 1 for r in halley if r.abs_error > 0]
    qualifying = [(a, b) for a, b in zip(digits, digits[1:]) if a >= 2]
    assert qualifying
    assert all(b >= 3 * a for a, b in qualifying)

    den = [r.den_digits for r in newton]
    assert all(b >= 2 * a for a, b in zip(den[4:], den[5:]))
    den = [r.den_digits for r in run_method("halley", ramanujan, rational(-2), 6)]
    assert all(b >= 4 * a for a, b in zip(den[2:], den[3:]))

    expected = {
        method: [(n, d) for n, d, _ in cells] for method, cells in bench.TABLE6.items()
    }
    rows, best = sweep_initial_conditions(ramanujan, expected, TABLE6_X0)
    assert set(best) == {"newton", "halley", "noor"}
    assert best["newton"].x0 == rational(-2) and best["newton"].matches == 3
    assert best["halley"].x0 == rational(-2) and best["halley"].matches == 2
    assert len(rows) == 12  # every candidate scored for every method


@pytest.mark.xfail(
    strict=True,
    reason="exact digit-doubling fails by the constant log10(1.065) = 0.027 "
    "digits per step: the measured ratios are 1.99...",
)
def test_criterion_07_strict_doubling(ramanujan):
    """Criterion 7 (literal): correct digits at least double per Newton step."""
    newton = run_method("newton", ramanujan, rational(-2), 9)
    with mp.workprec(64):
        digits = [
            -mp.log10(to_mpf(r.abs_error, mp)) for r in newton if r.abs_error > 0
        ]
        assert all(b >= 2 * a for a, b in zip(digits, digits[1:]) if a >= 2)


@pytest.mark.xfail(
    strict=True,
    reason="source prints 28140 digits for Halley at n=6; the exact run from "
    "x0=-2 has 5628 digits there and 28140 = 5 x 5628 at n=7",
)
def test_criterion_07_published_halley_n6_digits(ramanujan):
    """Criterion 7 (literal): the published Halley n=6 denominator digit count."""
    records = iterate_records("halley", ramanujan, rational(-2), 6)
    assert records[-1].reduced_den_digits == 28140


def test_criterion_07_published_halley_n6_is_our_n7(ramanujan):
    """Criterion 7: the published Halley n=6 count is our n=7 count, 5 x our n=6."""
    records = iterate_records("halley", ramanujan, rational(-2), 7)
    by_n = {r.n: r.reduced_den_digits for r in records}
    assert by_n[6] == 5628
    assert by_n[7] == 28140 == 5 * by_n[6]


def _newton_errors(ramanujan):
    """{n: (error at 2 significant digits, reduced digits)} of Newton from x0 = -2."""
    return {r.n: (sci_string(r.abs_error, 2), r.reduced_den_digits)
            for r in run_method("newton", ramanujan, rational(-2), 5)}


def test_criterion_07_newton_n5_digits_and_errors(ramanujan):
    """Criterion 7: Newton's n=5 digit count is the published 80; its error is 1.5e-24."""
    by_n = _newton_errors(ramanujan)
    assert by_n[4] == ("1.2e-12", 27)
    assert by_n[5] == ("1.5e-24", 80)


@pytest.mark.xfail(
    strict=True,
    reason="source prints 9.2e-14 for Newton at n=5; the exact run from x0=-2 "
    "has error 1.2e-12 at n=4 and 1.5e-24 at n=5 (and the published 80 digits "
    "at n=5), so 9.2e-14 matches no step",
)
def test_criterion_07_published_newton_n5_error(ramanujan):
    """Criterion 7 (literal): the published Newton n=5 error."""
    assert _newton_errors(ramanujan)[5][0] == "9.2e-14"


def test_criterion_08_limit_bound_suite(certified_cases):
    """Criterion 8: measured ratios sit within the predicted error bound at n=60."""
    checked = 0
    for f, x, report in certified_cases:
        m = f.degree
        p60 = dense.mat_pow_entries(dense.regular_representation(f, x), 60)
        quads = [
            (i, j, p, q)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
            for p in range(1, m + 1)
            for q in range(1, m + 1)
            if (i, j) != (p, q)
        ]
        rng = random.Random(hash((tuple(f.u), x)) & 0xFFFFFFFF)
        rng.shuffle(quads)
        done = 0
        for i, j, p, q in quads:
            if done == 3:
                break
            if p60[p - 1][q - 1] == 0:
                continue
            try:
                pred = limit_ratio(report, (i, j), (p, q))
            except (ZeroDenominator, RootSeparationError, DomainError):
                continue
            if pred.degenerate:
                continue
            done += 1
            with mp.workprec(pred.work_prec):
                measured = to_mpf(p60[i - 1][j - 1], mp) / to_mpf(p60[p - 1][q - 1], mp)
                bound = 10 * pred.rate_constant * report.c_inverse**60
                assert abs(measured - pred.limit) <= bound
        assert done == 3
        checked += done
    assert checked == 150


def test_criterion_09_rate_slopes(ramanujan):
    """Criterion 9: measured log-error slopes match -log10(c) within 2%."""
    for x in ((0, 0, 1), (1, -1, 1), (0, -1, 1), (69, 99, -124)):
        report = analyze(ramanujan, x)
        assert not limit_ratio(report, (2, 1), (3, 1)).degenerate
        matrix = build(ramanujan, x)
        records = ratio_sequence(matrix, (2, 1), (3, 1), -1, range(20, 101, 5))
        assert all(r.abs_error > 0 for r in records)
        tail = records[len(records) // 2 :]  # n = 60, ..., 100
        with mp.workprec(64):
            predicted = -mp.log10(report.c_value)
            for fitted in (records, tail):
                slope = dense.log_error_slope(fitted)
                assert abs(slope - predicted) / abs(predicted) <= 0.02


def test_criterion_10_constant_ratio_families(certified_cases):
    """Criterion 10: the two designated entry ratios are exactly constant."""
    for f, x, _report in certified_cases:
        if f.degree < 2:
            continue
        matrix = build(f, x)
        for family in constant_ratio_check(matrix, 20):
            assert family.holds
            assert set(family.checked) | set(family.skipped) == set(range(1, 21))


def _built_entries(f, x):
    """The entries of M(x, u) as the package prints them: mat_pow(build(f, x), 1)."""
    return mat_pow(build(f, x), 1).entries


def test_criterion_11_construction_equivalence():
    """Criterion 11: both construction paths (and the cubic closed form) agree exactly."""
    rng = random.Random(SEED + 1)
    for _ in range(100):
        m = rng.choice((1, 2, 3, 4, 5))
        f = Polynomial([rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)])
        x = [rational(rng.randint(-4, 4)) for _ in range(m)]
        if all(c == 0 for c in x):
            x[0] = rational(1)
        built = _built_entries(f, x)
        assert built == dense.entries_via_formula(f, x)
        if m == 3:
            closed = dense.build_cubic(*f.u, *x)
            assert built == closed
        assert tuple(row[0] for row in built) == tuple(x)

    for _ in range(50):
        m = rng.choice((2, 3, 4))
        f = Polynomial([rng.randint(-3, 3) for _ in range(m)])
        x1 = [rng.randint(-3, 3) for _ in range(m)]
        x2 = [rng.randint(-3, 3) for _ in range(m)]
        for x in (x1, x2):
            if all(c == 0 for c in x):
                x[1] = 1
        # homomorphism: multiply the represented elements modulo f
        prod = [rational(0)] * (2 * m - 1)
        for i, c1 in enumerate(x1):
            for j, c2 in enumerate(x2):
                prod[i + j] += rational(c1) * rational(c2)
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            prod[k] = rational(0)
            for s in range(m):
                prod[k - 1 - s] += c * f.u[s]
        x12 = prod[:m]
        lhs = dense.mat_mul(_built_entries(f, x1), _built_entries(f, x2))
        if any(c != 0 for c in x12):
            assert lhs == _built_entries(f, x12)
        # linearity
        a, b = rational(rng.randint(1, 4)), rational(rng.randint(-4, -1))
        combo = [a * c1 + b * c2 for c1, c2 in zip(x1, x2)]
        if any(c != 0 for c in combo):
            expected = dense.mat_add(
                dense.mat_scale(a, _built_entries(f, x1)),
                dense.mat_scale(b, _built_entries(f, x2)),
            )
            assert _built_entries(f, combo) == expected


ORACLE_POLYS = (
    "c:1,1,-2,-1",
    "c:1,2,-1,-1",
    "c:1,-2,-1,1",
    "u:0,0,5",
    "c:1,0,-2",
    "c:1,0,-5,0,4",
    "u:0,1,-1",
    "c:1,0,0,-1,-1",
)


def test_criterion_12_oracle_soundness():
    """Criterion 12: root enclosures bracket sign changes; Vieta and V A V^-1 hold."""
    for text in ORACLE_POLYS:
        f = parse_polynomial(text)
        for interval in isolate_real_roots(f):
            est = refine_real_root(f, interval, rational(1, 10**25))
            if est.radius == 0:
                assert dense.evaluate(f, est.center) == 0
            else:
                lo, hi = est.center - est.radius, est.center + est.radius
                assert dense.evaluate(f, lo) * dense.evaluate(f, hi) < 0

        roots = all_roots(f, 192)
        m = f.degree
        with mp.workprec(roots.work_prec):
            slack = mp.fsum(e.radius for e in roots) * (m + 1) * 10 + mp.mpf(2) ** (
                -roots.work_prec // 2
            )
            total = mp.fsum(e.center for e in roots)
            assert abs(total - to_mpf(f.u[0], mp)) < slack
            prod = mp.mpc(1)
            for e in roots:
                prod *= e.center
            expected = to_mpf(f.u[-1], mp) * (-1) ** (m + 1)
            assert abs(prod - expected) < slack * max(
                1, max(abs(e.center) for e in roots) ** (m - 1)
            )
            if m > 1:
                v = mp.matrix(m, m)
                for t, est in enumerate(roots):
                    for s in range(m):
                        v[t, s] = est.center**s
                a = dense.companion(f)
                amat = mp.matrix(
                    [[to_mpf(a[i][j], mp) for j in range(m)] for i in range(m)]
                )
                d = v * amat * v**-1
                tol = mp.mpf(2) ** (-roots.work_prec // 3)
                for i in range(m):
                    for j in range(m):
                        expect = roots.roots[i].center if i == j else 0
                        assert abs(d[i, j] - expect) < tol
