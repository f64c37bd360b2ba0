"""Dominance analysis and limit ratios.

Writing gamma_j for the value of the represented element at the j-th root,
the eigenvalues of M are exactly the gamma_j.  If one of them strictly
dominates in modulus (certified here against the root-oracle radii), the
ratio of any two entries of M^n converges to V^-1[i,k] V[k,j] /
(V^-1[p,k] V[k,q]), and the error shrinks like (|gamma_l| / |gamma_k|)^n
where l is the runner-up index.

Dominance is decided in mpmath at an escalating working precision.  The
first round starts Aberth from f's roots in doubles (roots.float_start,
or all_roots' circle where doubles cannot start), and each doubling
continues from the last round's root centres.  A tie whose top |gamma| is at
a conjugate pair of non-real roots is refused at the first precision,
since the pair's gammas are conjugate; a +- tie or a real gamma tied with
a non-real one escalates to MAX_PRECISION first.  The limit is exact
algebra: it equals N(alpha_k) / D(alpha_k) for two int polynomials read
off f, with alpha_k the real dominant root.  B_k = 0, a value equal to
the limit and a limit equal to alpha_k are each decided by the integer
remainder sequence of f and one polynomial, a ratio constant in n by two
pseudo-remainders.  Each enclosure loop decides the exact cases once, then
refines one int bracket from alpha_k's Sturm bracket across all its rounds:
resolving_enclosure until every given value's error is resolved, and
limit_enclosure, limit_ratio's loop, until both ends of the enclosure
print the same digits (Ziv's rounding test: Ziv, "Fast evaluation of
elementary functions with guaranteed precision", ACM TOMS 17, 1991), so a
limit printed to 20 digits is enclosed to about 20 digits, not to twice
the roots' precision.  ``analyze`` returns only a certified report, and
``limit_ratio`` is the one limit path; the paper's closed cubic forms are
the independent reference the tests compare it against (tests/dense.py).
"""

from dataclasses import dataclass

import mpmath as mp

from .backends import (
    as_int_pair, decimal_rational, floor_log10, format_rational, rational, to_mpf,
)
from .errors import DominanceUndecidable, ZeroDenominator
from .polynomial import Polynomial, pseudo_remainder, remainder_sequence, sign_at
from .regrep import _check_index, _coerce_weights
from .roots import (
    DEFAULT_PRECISION, MAX_PRECISION, Enclosure, RootSet, _bracket, _certified_irreducible,
    _horner_mp, _make_mpc, _require_precision, all_roots, enclose_quotient, float_start,
    isolate_real_roots,
)


@dataclass(frozen=True)
class ConvergenceReport:
    gamma: tuple  # mpc values of the element at each root, canonical order
    dominant_index: int
    runner_up_index: int
    c_value: object  # min over j != k of |gamma_k| / |gamma_j|
    c_inverse: object
    roots: RootSet
    poly: Polynomial


@dataclass(frozen=True)
class LimitPrediction:
    limit: object  # mpf: centre of the certified enclosure of N(alpha_k) / D(alpha_k)
    rate_constant: object  # |a_l b_k - a_k b_l| / |b_k|^2
    degenerate: bool
    limit_error: object  # exact rational bound on |nstr(limit, digits) - true limit|
    work_prec: int


def _gamma_with_bound(x, root):
    """gamma = sum x_i alpha^i with a rigorous modulus error bound.

    gamma is Horner's rule in mpc arithmetic, run on roots' int mantissas.
    """
    alpha, r = root.center, root.radius
    cs = [to_mpf(c, mp) for c in x]
    acc = _make_mpc(_horner_mp(cs[::-1], alpha))
    # Mean-value bound: |d gamma / d alpha| <= sum i |x_i| (|alpha| + r)^(i-1).
    a_hi = abs(alpha) + r
    slope = mp.mpf(0)
    scale = mp.mpf(0)
    power = mp.mpf(1)
    for i, c in enumerate(cs):
        cx = abs(c)
        if i >= 1:
            slope += i * cx * power
        power *= a_hi
        scale += cx * power
    bound = slope * r * a_hi + scale * mp.mpf(2) ** (8 - mp.mp.prec)
    return acc, bound * (1 + mp.mpf(2) ** -16)


def analyze(f: Polynomial, x, precision_bits=DEFAULT_PRECISION) -> ConvergenceReport:
    """Certify a strictly dominant gamma and report c = |gamma_k|/|gamma_l|.

    Precision doubles from precision_bits (at least 64, and above
    MAX_PRECISION a UsageError before any root is computed) until the
    |gamma| intervals separate the maximum from everything else; no round
    asks all_roots for more than MAX_PRECISION bits, and past it the tie is
    refused (DominanceUndecidable).  Each round makes one all_roots call:
    the first from float_start(f), Aberth run in doubles (None, the circle,
    where doubles cannot start), and each later one from the centres the
    last round certified, so each takes a few sweeps, not a fresh solve.
    The start decides no result: every round certifies as from the circle.
    Exact ties (element is a constant: only x_0 nonzero) fail immediately.
    So does a conjugate-pair tie, in the round that finds it: f and x are
    rational, so gamma at conj(alpha) is the conjugate of gamma at alpha,
    and when the largest |gamma| lies on a non-real root (its lower bound
    above every real root's upper bound, or f has no real root) its
    conjugate ties it at every precision.  A +- tie, or a real gamma tied
    with a non-real one, still escalates to MAX_PRECISION before it is
    refused.
    """
    prec = max(_require_precision(precision_bits), 64)
    w = _coerce_weights(f, x)
    if all(c == 0 for c in w.x[1:]):
        raise DominanceUndecidable(
            "element is rational: all gamma_j coincide, no strict dominance"
        )
    weights = ",".join(map(format_rational, w.x))
    roots = None
    while prec <= MAX_PRECISION:
        start = float_start(f) if roots is None else tuple(est.center for est in roots)
        roots = all_roots(f, prec, start=start)
        with mp.workprec(roots.work_prec + 32):
            gams, bounds = [], []
            for est in roots:
                g, b = _gamma_with_bound(w.x, est)
                gams.append(g)
                bounds.append(b)
            moduli = [abs(g) for g in gams]
            k = max(range(len(moduli)), key=lambda i: moduli[i])
            lo_k = moduli[k] - bounds[k]
            if not roots.roots[k].is_real and all(
                moduli[j] + bounds[j] < lo_k for j, est in enumerate(roots) if est.is_real
            ):
                raise DominanceUndecidable(
                    f"no strictly dominant gamma certifiable for x=({weights}): the top "
                    f"|gamma| is at a conjugate pair of non-real roots, whose gammas tie "
                    f"in modulus (found at {prec} bits)"
                )
            others = [i for i in range(len(moduli)) if i != k]
            if lo_k > 0 and all(moduli[j] + bounds[j] < lo_k for j in others):
                l = max(others, key=lambda i: moduli[i])
                c_inv = moduli[l] / moduli[k]
                c = mp.inf if c_inv == 0 else 1 / c_inv
                return ConvergenceReport(
                    gamma=tuple(gams),
                    dominant_index=k,
                    runner_up_index=l,
                    c_value=c,
                    c_inverse=c_inv,
                    roots=roots,
                    poly=f,
                )
        prec *= 2
    raise DominanceUndecidable(
        f"no strictly dominant gamma certifiable for x=({weights}) up to "
        f"{MAX_PRECISION} bits (tied moduli?)"
    )


def _shifted(n, d, shift, slope):
    """N + (shift - slope*t) D on ints, times the denominator of the rational shift."""
    a, b = as_int_pair(shift)
    k = max(len(n), len(d) + 1)
    n, d = ((0,) * (k - len(p)) + tuple(p) for p in (n, d))
    return tuple(b * x + a * y - slope * b * z for x, y, z in zip(n, d, d[1:] + (0,)))


def _shares_root(F, g, bracket):
    """Whether g vanishes at F's root in an isolating bracket: gcd(F, g) changes sign there."""
    h = remainder_sequence(F, g)[-1]
    return len(h) > 1 and (sign_at(h, bracket[0]) < 0) != (sign_at(h, bracket[1]) < 0)


def _quotient(F, limit, offset):
    """(N, D, offset) to enclose for limit + offset, given that N/D is not constant.

    If alpha is a root of gcd(f, N + (offset - t) D), limit + offset is
    alpha itself, enclosed as N = t, D = 1 with offset 0; otherwise limit's
    own N, D and the offset.
    """
    n, d, bracket = limit
    if _shares_root(F, _shifted(n, d, offset, 1), bracket):
        return (1, 0), (1,), rational(0)
    return n, d, offset


def _constant_quotient(n, d, F):
    """c with N = c*D modulo F, so that the ratio is c at every n; else None.

    Padded to one length, N and D have pseudo-remainders of one scale.
    """
    k = max(len(n), len(d))
    rn, rd = (pseudo_remainder((0,) * (k - len(p)) + tuple(p), F) for p in (n, d))
    if not rd or len(rn) not in (0, len(rd)):
        return None
    if not rn:
        return rational(0)
    if any(x * rd[0] != y * rn[0] for x, y in zip(rn, rd)):
        return None
    return rational(rn[0], rd[0])


def _limit_data(report, num, den):
    """(N, D, bracket): the limit is N(alpha_k) / D(alpha_k), alpha_k in bracket.

    num and den are int index pairs, checked by the caller with
    regrep._check_index.  Column k of V^-1 holds the coefficients of f(t) /
    ((t - alpha_k) f'(alpha_k)); by synthetic division its t^(i-1) coefficient
    is the top m-i+1 coefficients of f evaluated at alpha_k, over f'(alpha_k).
    So A_k = N(alpha_k) / f'(alpha_k) with N = f[:m-i+1] * t^(j-1), B_k
    likewise with D = f[:m-p+1] * t^(q-1), and f' cancels in A_k / B_k.  N and
    D are read off the int form L f, so both carry the factor L, which cancels
    too.  A certified dominant alpha_k is real (a conjugate would tie it), so
    it has a Sturm bracket, and B_k = 0 exactly when gcd(f, D) changes sign
    across it.  That bracket is isolate_real_roots(f)[r], r the number of real
    centres left of alpha_k's: all_roots' m disks are disjoint and hold one
    root each, a real disk's root is real (a non-real one would bring its
    conjugate in), and real disks and Sturm brackets are equally many, so both
    run in one order.
    """
    f = report.poly
    m = f.degree
    i, j, p, q = indices = (*num, *den)
    F = f.integer_forms()[0]
    n = F[: m - i + 1] + (0,) * (j - 1)
    d = F[: m - p + 1] + (0,) * (q - 1)
    roots = report.roots.roots
    alpha = roots[report.dominant_index].center.real
    rank = sum(1 for est in roots if est.is_real and est.center.real < alpha)
    bracket = isolate_real_roots(f)[rank]
    if _shares_root(F, d, bracket):
        raise ZeroDenominator(
            f"denominator product B_k for indices {indices} is indistinguishable from zero"
        )
    return n, d, bracket


def limit_ratio(report: ConvergenceReport, num, den, digits) -> LimitPrediction:
    """Limit of M^n[num]/M^n[den] under certified dominance, plus rate data.

    `digits` is the number of significant digits the caller prints the limit
    to.  `limit` is the centre of an enclosure whose ends, rounded outward to
    mpfs, print the same mp.nstr(., digits) string as the centre
    (limit_enclosure), so every value inside prints it too, and `limit_error`
    bounds |that printed value - the limit| exactly.  A = N/f' and B = D/f'
    at the dominant and runner-up roots are evaluated at the report's root
    centres, at the report's precision (at least the 192 bits that `eps`
    assumes), and only feed the rate constant.  A ratio that is constant in
    n (N = c*D modulo f; this covers num == den and the two named families)
    is degenerate exactly, and its limit is c; other degeneracies are
    decided numerically.
    """
    f = report.poly
    num, den = _check_index(num, f.degree, "numerator"), _check_index(den, f.degree, "denominator")
    data = _limit_data(report, num, den)
    n, d, _ = data
    prec = max(report.roots.work_prec, 192)
    work_prec = 2 * prec
    F, F_prime = f.integer_forms()[:2]
    c = _constant_quotient(n, d, F)
    with mp.workprec(work_prec):
        if c is None:
            enc = limit_enclosure(f, data, digits, work_prec * 30103 // 100000 + 1)
        else:
            enc = Enclosure(c, rational(0))
        limit = to_mpf(enc.center, mp)
        printed = decimal_rational(mp.nstr(limit, digits))
    limit_error = abs(printed - enc.center) + enc.radius
    roots = report.roots.roots
    with mp.workprec(prec):
        *polys, f_prime = [[to_mpf(a, mp) for a in p] for p in (n, d, F_prime)]
        ab = []
        for est in (roots[report.dominant_index], roots[report.runner_up_index]):
            fz = mp.polyval(f_prime, est.center)
            ab.append([mp.polyval(p, est.center) / fz for p in polys])
        (a_k, b_k), (a_l, b_l) = ab
        eps = mp.mpf(2) ** (-prec // 2)
        disc = a_l * b_k - a_k * b_l
        disc_bar = eps * (1 + abs(a_l * b_k) + abs(a_k * b_l))
        degenerate = c is not None or abs(disc) <= 4 * disc_bar
        rate_constant = mp.mpf(0) if c is not None else abs(disc) / abs(b_k) ** 2
    return LimitPrediction(limit, rate_constant, degenerate, limit_error, work_prec)


def _prints_alike(values, digits):
    """Whether the mpfs all print the same mp.nstr(., digits) string."""
    return len({mp.nstr(v, digits) for v in values}) == 1


def limit_enclosure(f, limit, digits, cap) -> Enclosure:
    """Certified enclosure of a limit that is not constant, to the digits it prints.

    `limit` is (N, D, bracket) as from _limit_data, and the working
    precision is the caller's.  The first round encloses the limit to
    digits + 4 decimal places, and each later round continues refining the
    int bracket the last one returned, at twice the places, until the low
    end rounded down, the centre and the high end rounded up print the same
    `digits` significant digits.  mp.nstr is monotone, so every value
    between the ends then prints that string too.  The places stop at
    `cap`, where the centre is returned as it prints.  Whether the limit is
    alpha itself is decided once, before the rounds.
    """
    n, d, _ = _quotient(f.integer_forms()[0], limit, 0)
    ivl = _bracket(*limit[2])
    places = digits + 4
    while True:
        places = min(places, cap)
        enc, ivl = enclose_quotient(f, n, d, ivl, places)
        ends = (
            mp.fdiv(*as_int_pair(enc.center - enc.radius), rounding="f"),
            mp.fdiv(*as_int_pair(enc.center + enc.radius), rounding="c"),
        )
        if places == cap or _prints_alike((ends[0], to_mpf(enc.center, mp), ends[1]), digits):
            return enc
        places *= 2


# Decimal places of resolving_enclosure's first round.
_FIRST_DIGITS = 30


def resolving_enclosure(f, limit, values, offset=0) -> Enclosure:
    """Certified enclosure of limit + offset that resolves every value's error.

    `limit` is (N, D, bracket) as from _limit_data: the limit is
    N(alpha)/D(alpha) for the root alpha of f in bracket.  The exact cases
    are decided once: N = c*D modulo f gives c + offset with radius 0, and
    a limit + offset that is alpha is enclosed as alpha (_quotient).  Every
    round then continues refining the int bracket that
    roots.enclose_quotient returned the round before.  The first round works
    at _FIRST_DIGITS places; a value inside it that is exactly limit +
    offset (alpha is a root of gcd(f, N + (offset - v) D)) is returned with
    radius 0, so its error is exactly 0.  That test is skipped when f is certified
    irreducible: then alpha is irrational, and so is N(alpha) / D(alpha) +
    offset, since a rational value c would make f divide N - (c - offset) D,
    which the constant case rules out.  Otherwise the digits grow until
    every value lies at least 10**20 radii from the centre, so each
    |value - centre| is its true error to about 20 significant digits.
    """
    n, d, bracket = limit
    offset = rational(offset)
    F = f.integer_forms()[0]
    c = _constant_quotient(n, d, F)
    if c is not None:
        return Enclosure(c + offset, rational(0))
    n, d, offset = _quotient(F, limit, offset)
    digits = _FIRST_DIGITS
    enc, ivl = enclose_quotient(f, n, d, _bracket(*bracket), digits)
    center = enc.center + offset
    for v in () if _certified_irreducible(f) else values:
        inside = abs(v - center) <= enc.radius
        if inside and _shares_root(F, _shifted(n, d, offset - v, 0), bracket):
            return Enclosure(v, rational(0))
    while True:
        margin = enc.radius * 10**20
        close = [e for e in (abs(v - center) for v in values) if e < margin]
        if not close:
            return Enclosure(center, enc.radius)
        smallest = min(close)
        digits = max(2 * digits, -floor_log10(smallest) + 21 if smallest else 0)
        enc, ivl = enclose_quotient(f, n, d, ivl, digits)
        center = enc.center + offset
