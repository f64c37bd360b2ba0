"""Dominance analysis, limit ratios, and convergence rates.

Writing gamma_j for the value of the represented element at the j-th root,
the eigenvalues of M are exactly the gamma_j.  If one of them strictly
dominates in modulus (certified here against the root-oracle radii), the
ratio of any two entries of M^n converges to V^-1[i,k] V[k,j] /
(V^-1[p,k] V[k,q]), and the error shrinks like (|gamma_l| / |gamma_k|)^n
where l is the runner-up index.

Dominance is decided in mpmath at an escalating working precision.  The
limit is exact algebra: it equals N(alpha_k) / D(alpha_k) for two rational
polynomials read off f, with alpha_k the real dominant root, so it is
decided and enclosed in rational arithmetic on alpha_k's Sturm bracket.  The
closed cubic forms are kept as an independent cross-check path.
"""

from dataclasses import dataclass
from functools import cmp_to_key

import mpmath as mp

from .backends import floor_log10, format_rational, mpf_to_rational, rational, to_mpf
from .errors import (
    DegenerateRatio,
    DomainError,
    DominanceUndecidable,
    UsageError,
    ZeroDenominator,
)
from .polynomial import Polynomial, integer_multiple
from .regrep import Weights, _coerce_weights
from .roots import (
    Enclosure, RootSet, _bracket, _derivative, _eval_coeffs, _interval_horner, _poly_gcd,
    _poly_mod, _refine, all_roots, isolating_interval_for, refine_to_decimal_digits,
)


@dataclass(frozen=True)
class ConvergenceReport:
    gamma: tuple  # mpc values of the element at each root, canonical order
    gamma_radii: tuple  # rigorous moduli error bounds
    dominant_index: int
    runner_up_index: int
    c_value: object  # min over j != k of |gamma_k| / |gamma_j|
    c_inverse: object
    certified: bool
    roots: RootSet
    work_prec: int
    weights: Weights
    poly: Polynomial


@dataclass(frozen=True)
class LimitPrediction:
    indices: tuple  # (i, j, p, q)
    limit: object  # mpf: centre of the certified enclosure of N(alpha_k) / D(alpha_k)
    a_k: object
    b_k: object
    a_l: object
    b_l: object
    rate_constant: object  # |a_l b_k - a_k b_l| / |b_k|^2
    degenerate: bool
    limit_error: object  # certified bound on |limit - true limit|
    work_prec: int


@dataclass(frozen=True)
class RateSummary:
    predicted_step_factor: object  # c^-1: expected per-step error factor
    predicted_constant: object
    predicted_slope: object  # -log10(c)
    measured_slope: object
    relative_deviation: object
    n_lo: int
    n_hi: int
    points: int


def _gamma_with_bound(x, root):
    """gamma = sum x_i alpha^i with a rigorous modulus error bound."""
    alpha, r = root.center, root.radius
    acc = mp.mpc(0)
    for c in reversed(x):
        acc = acc * alpha + to_mpf(c, mp)
    # Mean-value bound: |d gamma / d alpha| <= sum i |x_i| (|alpha| + r)^(i-1).
    a_hi = abs(alpha) + r
    slope = mp.mpf(0)
    scale = mp.mpf(0)
    power = mp.mpf(1)
    for i, c in enumerate(x):
        cx = abs(to_mpf(c, mp))
        if i >= 1:
            slope += i * cx * power
        power *= a_hi
        scale += cx * power
    bound = slope * r * a_hi + scale * mp.mpf(2) ** (8 - mp.mp.prec)
    return acc, bound * (1 + mp.mpf(2) ** -16)


def analyze(f: Polynomial, x, precision_bits=256, ceiling_bits=None) -> ConvergenceReport:
    """Certify a strictly dominant gamma and report c = |gamma_k|/|gamma_l|.

    Precision doubles until the |gamma| intervals separate the maximum from
    everything else, or the ceiling is hit (DominanceUndecidable).  Exact
    ties (element is a constant: only x_0 nonzero) fail immediately.
    """
    w = _coerce_weights(f, x)
    if all(c == 0 for c in w.x[1:]):
        raise DominanceUndecidable(
            "element is rational: all gamma_j coincide, no strict dominance"
        )
    precision_bits = max(int(precision_bits), 64)
    ceiling = ceiling_bits or max(1 << 16, precision_bits * 64)
    prec = precision_bits
    while prec <= ceiling:
        roots = all_roots(f, prec)
        with mp.workprec(max(prec, roots.work_prec) + 32):
            gams, bounds = [], []
            for est in roots:
                g, b = _gamma_with_bound(w.x, est)
                gams.append(g)
                bounds.append(b)
            moduli = [abs(g) for g in gams]
            k = max(range(len(moduli)), key=lambda i: moduli[i])
            lo_k = moduli[k] - bounds[k]
            others = [i for i in range(len(moduli)) if i != k]
            if lo_k > 0 and all(moduli[j] + bounds[j] < lo_k for j in others):
                l = max(others, key=lambda i: moduli[i])
                c_inv = moduli[l] / moduli[k]
                c = mp.inf if c_inv == 0 else 1 / c_inv
                return ConvergenceReport(
                    gamma=tuple(gams),
                    gamma_radii=tuple(bounds),
                    dominant_index=k,
                    runner_up_index=l,
                    c_value=c,
                    c_inverse=c_inv,
                    certified=True,
                    roots=roots,
                    work_prec=max(prec, roots.work_prec),
                    weights=w,
                    poly=f,
                )
        prec *= 2
    raise DominanceUndecidable(
        f"no strictly dominant gamma certifiable for "
        f"x=({','.join(map(format_rational, w.x))}) up to "
        f"{ceiling} bits (tied moduli?)"
    )


def _poly_sum(*polys):
    """Sum of coefficient tuples (highest degree first), aligned from the right."""
    n = max(map(len, polys))
    return tuple(map(sum, zip(*((0,) * (n - len(p)) + tuple(p) for p in polys))))


def _root_in(h, bracket):
    """Whether h, a divisor of f, vanishes in an isolating bracket of f."""
    a, b = bracket
    return len(h) > 1 and (_eval_coeffs(h, a) < 0) != (_eval_coeffs(h, b) < 0)


def _constant_quotient(n_poly, d_poly, coeffs):
    """c with N = c*D modulo f, so that the ratio is c at every n; else None."""
    rn, rd = _poly_mod(n_poly, coeffs), _poly_mod(d_poly, coeffs)
    c = rn[0] / rd[0] if len(rn) == len(rd) else rational(0)
    return None if any(_poly_sum(rn, [-c * d for d in rd])) else c


def _limit_data(f, num, den, report):
    """(N, D, bracket): the limit is N(alpha_k) / D(alpha_k), alpha_k in bracket.

    Column k of V^-1 holds the coefficients of f(t) / ((t - alpha_k)
    f'(alpha_k)); by synthetic division its t^(i-1) coefficient is the top
    m-i+1 coefficients of f evaluated at alpha_k, over f'(alpha_k).  So
    A_k = N(alpha_k) / f'(alpha_k) with N = f[:m-i+1] * t^(j-1), B_k likewise
    with D = f[:m-p+1] * t^(q-1), and f' cancels in A_k / B_k.  A certified
    dominant alpha_k is real (a conjugate would tie it), so it has a Sturm
    bracket, and B_k = 0 exactly when gcd(f, D) changes sign across it.
    """
    if not report.certified:
        raise DomainError("limit_ratio requires a certified dominance report")
    m = f.degree
    indices = tuple(int(v) for v in (*num, *den))
    for idx in indices:
        if not (1 <= idx <= m):
            raise UsageError(f"index {idx} out of range 1..{m}")
    i, j, p, q = indices
    coeffs = f.monic_coefficients()
    zeros = (rational(0),) * m
    n_poly = coeffs[: m - i + 1] + zeros[: j - 1]
    d_poly = coeffs[: m - p + 1] + zeros[: q - 1]
    bracket = isolating_interval_for(f, report.roots.roots[report.dominant_index])
    if _root_in(_poly_gcd(coeffs, d_poly), bracket):
        raise ZeroDenominator(
            f"denominator product B_k for indices {indices} is indistinguishable from zero"
        )
    return n_poly, d_poly, bracket


def limit_ratio(f: Polynomial, x, num, den, report: ConvergenceReport) -> LimitPrediction:
    """Limit of M^n[num]/M^n[den] under certified dominance, plus rate data.

    `limit` and `limit_error` come from limit_enclosure at twice the report's
    precision, so the error bar is certified.  A = N/f' and B = D/f' at the
    dominant and runner-up roots are evaluated at the report's root centres
    and only feed the rate constant.  A ratio that is constant in n (N = c*D
    modulo f; this covers num == den and the two named families) is
    degenerate exactly; other degeneracies are decided numerically.
    """
    n_poly, d_poly, _ = _limit_data(f, num, den, report)
    indices = tuple(int(v) for v in (*num, *den))
    prec = max(report.work_prec, 192)
    work_prec = 2 * prec
    enc = limit_enclosure(f, x, num, den, report, work_prec * 30103 // 100000 + 1)
    roots = report.roots.roots
    with mp.workprec(work_prec):
        limit = to_mpf(enc.center, mp)
        slack = enc.radius + abs(mpf_to_rational(limit) - enc.center)
        limit_error = mp.fdiv(slack.numerator, slack.denominator, rounding="u")
        coeffs = f.monic_coefficients()
        exact = (n_poly, d_poly, _derivative(coeffs))
        *polys, f_prime = [[to_mpf(c, mp) for c in p] for p in exact]
        (a_k, b_k), (a_l, b_l) = (
            [mp.polyval(p, z) / mp.polyval(f_prime, z) for p in polys]
            for z in (roots[report.dominant_index].center, roots[report.runner_up_index].center)
        )
        eps = mp.mpf(2) ** (-prec // 2)
        disc = a_l * b_k - a_k * b_l
        disc_bar = eps * (1 + abs(a_l * b_k) + abs(a_k * b_l))
        exact_degenerate = _constant_quotient(n_poly, d_poly, coeffs) is not None
        degenerate = exact_degenerate or abs(disc) <= 4 * disc_bar
        rate_constant = mp.mpf(0) if exact_degenerate else abs(disc) / abs(b_k) ** 2
    return LimitPrediction(
        indices, limit, a_k, b_k, a_l, b_l, rate_constant, degenerate, limit_error, work_prec
    )


def limit_enclosure(f, x, num, den, report, digits, offset=0) -> Enclosure:
    """Certified enclosure of limit + offset with radius <= 10**-digits."""
    n_poly, d_poly, bracket = _limit_data(f, num, den, report)
    return _enclose(f, n_poly, d_poly, bracket, digits, rational(offset))


# n/d pairs with d > 0, ordered by value
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _enclose(f, n_poly, d_poly, bracket, digits, offset):
    """Enclosure of N(alpha)/D(alpha) + offset, alpha in bracket, radius <= 10**-digits.

    Three exact cases in order: N = c*D modulo f gives the constant c with
    radius 0; if alpha is a root of gcd(f, N + (offset - t) D), limit +
    offset is alpha itself and its bracket is refined; otherwise N and D are
    evaluated in rational interval arithmetic on the bracket, refined until
    the quotient is narrow enough.
    """
    coeffs = f.monic_coefficients()
    c = _constant_quotient(n_poly, d_poly, coeffs)
    if c is not None:
        return Enclosure(c + offset, rational(0))
    shifted = _poly_sum(n_poly, [offset * d for d in d_poly], [-d for d in d_poly + (0,)])
    if _root_in(_poly_gcd(coeffs, shifted), bracket):
        return refine_to_decimal_digits(f, bracket, digits)
    return _enclose_interval(f, n_poly, d_poly, bracket, digits, offset)


def _enclose_interval(f, n_poly, d_poly, bracket, digits, offset):
    """_enclose's interval case: refine until N/D on the bracket is narrow enough.

    It runs on ints: the bracket is (lo, hi, q) as in roots._refine, N and
    D are scaled by one common integer, which leaves N/D as it is, and every
    quotient below is n/d times kn/kd = q^dD / q^dN.  Each round asks the
    refinement for 2^16 times more than the last.  D must not vanish at
    the root, or no round is narrow enough.
    """
    forms = f.integer_forms()[:2]
    both = integer_multiple(n_poly + d_poly)
    n_int, d_int = both[: len(n_poly)], both[len(n_poly) :]
    lo, hi, q = _bracket(*bracket)
    tol_den = ed = 10 ** int(digits)  # the radius target is 1/tol_den
    while True:
        lo, hi, q = _refine(forms, lo, hi, q, (1, ed))
        n_lo, n_hi = _interval_horner(n_int, lo, hi, q)
        d_lo, d_hi = _interval_horner(d_int, lo, hi, q)
        if d_lo > 0 or d_hi < 0:
            e = len(d_int) - len(n_int)
            kn, kd = q ** max(e, 0), q ** max(-e, 0)
            ends = [(n, d) if d > 0 else (-n, -d) for n in (n_lo, n_hi) for d in (d_lo, d_hi)]
            (ln, ld), (hn, hd) = min(ends, key=_by_value), max(ends, key=_by_value)
            spread, den = (hn * ld - ln * hd) * kn, ld * hd * kd
            if spread * tol_den <= 2 * den:
                center = rational((ln * hd + hn * ld) * kn, 2 * den)
                return Enclosure(center + offset, rational(spread, 2 * den))
        ed <<= 16


def resolving_enclosure(f, limit, values, offset=0) -> Enclosure:
    """Certified enclosure of limit + offset that resolves every value's error.

    `limit` is (N, D, bracket) as from _limit_data: the limit is
    N(alpha)/D(alpha) for the root alpha of f in bracket.  The first round
    works at 30 digits; a value inside it that is exactly limit + offset
    (alpha is a root of gcd(f, N + (offset - v) D)) is returned with radius
    0, so its error is exactly 0.  Otherwise the digits grow until every
    value lies at least 10**20 radii from the centre, so each |value - centre|
    is its true error to about 20 significant digits.
    """
    n_poly, d_poly, bracket = limit
    offset = rational(offset)
    coeffs = f.monic_coefficients()
    digits = 30
    enc = _enclose(f, n_poly, d_poly, bracket, digits, offset)
    for v in values:
        if abs(v - enc.center) <= enc.radius:
            shifted = _poly_sum(n_poly, [(offset - v) * d for d in d_poly])
            if _root_in(_poly_gcd(coeffs, shifted), bracket):
                return Enclosure(v, rational(0))
    while True:
        margin = enc.radius * 10**20
        close = [e for e in (abs(v - enc.center) for v in values) if e < margin]
        if not close:
            return enc
        smallest = min(close)
        digits = max(2 * digits, -floor_log10(smallest) + 21 if smallest else 0)
        enc = _enclose(f, n_poly, d_poly, bracket, digits, offset)


def cubic_limit_matrix(f: Polynomial, numerator, report: ConvergenceReport):
    """Closed-form 3x3 matrix of limits lim M^n[numerator] / M^n[h,k].

    Entries involve only the dominant root and the coefficients u_1 (=p) and
    u_3 (=r); exists as the independent cross-check of limit_ratio for
    cubics.
    """
    if f.degree != 3:
        raise UsageError("cubic limit matrices require degree 3")
    if numerator not in ((2, 2), (3, 3)):
        raise UsageError("numerator entry must be (2,2) or (3,3)")
    if not report.certified:
        raise DomainError("cubic_limit_matrix requires a certified report")
    if f.u[2] == 0:
        raise DomainError("closed forms divide by r; r = 0 is not representable")
    with mp.workprec(report.work_prec):
        alpha = mp.re(report.roots.roots[report.dominant_index].center)
        p = to_mpf(f.u[0], mp)
        r = to_mpf(f.u[2], mp)
        if numerator == (2, 2):
            row2 = (alpha, mp.mpf(1), 1 / alpha)
            row3 = (alpha * (alpha - p), alpha - p, (alpha - p) / alpha)
            row1 = tuple(e * alpha / r for e in row3)
        else:
            row3 = (alpha**2, alpha, mp.mpf(1))
            row2 = tuple(e / (alpha - p) for e in row3)
            row1 = tuple(e * alpha / r for e in row3)
        return (row1, row2, row3)


def rate_report(prediction: LimitPrediction, report: ConvergenceReport, measured) -> RateSummary:
    """Compare the measured log10-error slope with the predicted -log10(c).

    Uses the tail half of the usable records (available, nonzero error) and a
    least-squares fit of log10 |error| against n.  Public API (exported from
    the package): it is how a user checks the paper's rate claim on a
    sequence, and the acceptance tests use it for exactly that.
    """
    if prediction.degenerate:
        raise DegenerateRatio(
            f"indices {prediction.indices} give a constant ratio; "
            "no geometric error rate exists"
        )
    usable = [r for r in measured if r.available and r.abs_error is not None]
    if any(r.abs_error == 0 for r in usable):
        raise DomainError("a record hit the limit exactly; no rate to fit")
    usable = [r for r in usable if r.abs_error > 0]
    if len(usable) < 5:
        raise DomainError(f"need at least 5 usable records, got {len(usable)}")
    usable.sort(key=lambda r: r.n)
    tail = usable[len(usable) // 2 :]
    with mp.workprec(64):
        xs = [mp.mpf(r.n) for r in tail]
        ys = [
            (mp.log(to_mpf(r.abs_error.numerator, mp)) - mp.log(to_mpf(r.abs_error.denominator, mp)))
            / mp.log(10)
            for r in tail
        ]
        n = len(xs)
        mean_x = mp.fsum(xs) / n
        mean_y = mp.fsum(ys) / n
        var = mp.fsum((u - mean_x) ** 2 for u in xs)
        cov = mp.fsum((u - mean_x) * (v - mean_y) for u, v in zip(xs, ys))
        slope = cov / var
    with mp.workprec(report.work_prec):
        predicted_slope = -mp.log10(report.c_value)
        deviation = abs(slope - predicted_slope) / abs(predicted_slope)
    return RateSummary(
        predicted_step_factor=report.c_inverse,
        predicted_constant=prediction.rate_constant,
        predicted_slope=predicted_slope,
        measured_slope=slope,
        relative_deviation=deviation,
        n_lo=tail[0].n,
        n_hi=tail[-1].n,
        points=len(tail),
    )

