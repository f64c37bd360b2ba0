"""Dominance analysis, limit ratios, and convergence rates.

Writing gamma_j for the value of the represented element at the j-th root,
the eigenvalues of M are exactly the gamma_j.  If one of them strictly
dominates in modulus (certified here against the root-oracle radii), the
ratio of any two entries of M^n converges, the limit is a ratio of products
of Vandermonde-matrix entries, and the error shrinks like (|gamma_l| /
|gamma_k|)^n where l is the runner-up index.

Everything numeric runs in mpmath at an escalating working precision; the
closed cubic forms are kept as an independent cross-check path.
"""

from dataclasses import dataclass
from itertools import product as iter_product

import mpmath as mp

from .backends import mpf_to_rational, rational, to_mpf
from .errors import (
    DegenerateRatio,
    DomainError,
    DominanceUndecidable,
    RootSeparationError,
    UsageError,
    ZeroDenominator,
)
from .polynomial import Polynomial
from .regrep import Weights, _coerce_weights, constant_ratio_families
from .roots import Enclosure, RootSet, all_roots


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
    limit: object  # mpc: V^-1[i,k] V[k,j] / (V^-1[p,k] V[k,q])
    a_k: object
    b_k: object
    a_l: object
    b_l: object
    rate_constant: object  # |a_l b_k - a_k b_l| / |b_k|^2
    degenerate: bool
    limit_error: object  # error bar on `limit`
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
        f"no strictly dominant gamma certifiable for x={tuple(w.x)} up to "
        f"{ceiling} bits (tied moduli?)"
    )


def _vandermonde_data(f, prec, indices, k, l):
    """(A_k, B_k, A_l, B_l, residual) at the given working precision."""
    i, j, p, q = indices
    roots = all_roots(f, prec)
    m = f.degree
    with mp.workprec(max(prec, roots.work_prec) + 16):
        v = mp.matrix(m, m)
        for t, est in enumerate(roots):
            acc = mp.mpc(1)
            for s in range(m):
                v[t, s] = acc
                acc *= est.center
        try:
            v_inv = v**-1
        except ZeroDivisionError as exc:
            raise RootSeparationError("Vandermonde matrix is numerically singular") from exc
        resid = v * v_inv
        residual = mp.mpf(0)
        for a in range(m):
            for b in range(m):
                expect = 1 if a == b else 0
                residual = max(residual, abs(resid[a, b] - expect))
        if residual > mp.mpf(2) ** (-prec // 4):
            raise RootSeparationError(
                f"Vandermonde inversion residual {mp.nstr(residual, 5)} too large "
                "(near-coincident roots)"
            )
        a_k = v_inv[i - 1, k] * v[k, j - 1]
        b_k = v_inv[p - 1, k] * v[k, q - 1]
        a_l = v_inv[i - 1, l] * v[l, j - 1]
        b_l = v_inv[p - 1, l] * v[l, q - 1]
        return a_k, b_k, a_l, b_l, residual


def limit_ratio(
    f: Polynomial, x, num, den, report: ConvergenceReport, precision_bits=None
) -> LimitPrediction:
    """Limit of M^n[num]/M^n[den] under certified dominance, plus rate data.

    Computes the Vandermonde products at two precisions; their disagreement
    supplies the error bar.  The two index families known to be exactly
    degenerate are short-circuited; other degeneracies are decided from the
    bars.
    """
    if not report.certified:
        raise DomainError("limit_ratio requires a certified dominance report")
    m = f.degree
    i, j = num
    p, q = den
    for idx in (i, j, p, q):
        if not (1 <= idx <= m):
            raise UsageError(f"index {idx} out of range 1..{m}")
    indices = (int(i), int(j), int(p), int(q))
    k, l = report.dominant_index, report.runner_up_index

    prec = max(report.work_prec, int(precision_bits or 0), 192)
    a_k1, b_k1, a_l1, b_l1, _ = _vandermonde_data(f, prec, indices, k, l)
    a_k2, b_k2, a_l2, b_l2, _ = _vandermonde_data(f, 2 * prec, indices, k, l)

    with mp.workprec(2 * prec + 16):
        eps = mp.mpf(2) ** (-prec // 2)
        bar_bk = abs(b_k1 - b_k2) + eps * (1 + abs(b_k2))
        if abs(b_k2) <= 4 * bar_bk:
            raise ZeroDenominator(
                f"denominator product B_k for indices {indices} is "
                "indistinguishable from zero"
            )
        limit1 = a_k1 / b_k1
        limit2 = a_k2 / b_k2
        limit_error = abs(limit1 - limit2) + eps * (1 + abs(limit2))

        disc1 = a_l1 * b_k1 - a_k1 * b_l1
        disc2 = a_l2 * b_k2 - a_k2 * b_l2
        disc_bar = abs(disc1 - disc2) + eps * (1 + abs(a_l2 * b_k2) + abs(a_k2 * b_l2))
        exact_degenerate = indices in constant_ratio_families(m) or (
            indices[0] == indices[2] and indices[1] == indices[3]
        )
        degenerate = exact_degenerate or abs(disc2) <= 4 * disc_bar
        rate_constant = mp.mpf(0) if exact_degenerate else abs(disc2) / abs(b_k2) ** 2

    return LimitPrediction(
        indices=indices,
        limit=limit2,
        a_k=a_k2,
        b_k=b_k2,
        a_l=a_l2,
        b_l=b_l2,
        rate_constant=rate_constant,
        degenerate=degenerate,
        limit_error=limit_error,
        work_prec=2 * prec,
    )


def limit_enclosure(f, x, num, den, report, digits, offset=0) -> Enclosure:
    """Rational enclosure of the limit value with radius <= 10**-digits.

    Used when the limit is not recognized as a plain real root; the radius
    comes from cross-precision agreement rather than a sign-change bracket.
    """
    offset = rational(offset)
    target = rational(1, 10 ** int(digits))
    prec = max(report.work_prec, int(digits * 3.33) + 64)
    for _ in range(20):
        pred = limit_ratio(f, x, num, den, report, precision_bits=prec)
        with mp.workprec(pred.work_prec):
            bar = pred.limit_error + abs(mp.im(pred.limit))
            if mpf_to_rational(bar) <= target:
                center = mpf_to_rational(mp.re(pred.limit)) + offset
                return Enclosure(center, mpf_to_rational(bar))
        prec *= 2
    raise DomainError(f"could not enclose the limit to {digits} digits")


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
    least-squares fit of log10 |error| against n.
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


def find_certified_weights(f: Polynomial, target_index, bound=3, precision_bits=256):
    """Search small integer weights giving certified dominance at a root index.

    Brute force over x in {-bound..bound}^m; returns (weights, c) pairs
    sorted by decreasing c.  No completeness claim: this is a convenience
    for choosing which root the powers of M will approximate.
    """
    m = f.degree
    found = []
    for xs in iter_product(range(-bound, bound + 1), repeat=m):
        if all(c == 0 for c in xs) or all(c == 0 for c in xs[1:]):
            continue
        try:
            report = analyze(f, xs, precision_bits, ceiling_bits=precision_bits * 4)
        except (DominanceUndecidable, RootSeparationError):
            continue
        if report.dominant_index == target_index:
            found.append((xs, report.c_value))
    found.sort(key=lambda pair: (-pair[1], pair[0]))
    return found
