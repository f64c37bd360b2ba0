"""Dense exact-matrix oracle for the tests (tuples of tuples of rationals).

The package computes M(x, u) and its powers as element arithmetic in
Q[t]/(f), on int coordinates over L*alpha; these textbook matrix
operations, and the same element arithmetic on rationals (``multiply``,
``power``), are the independent references the tests compare it against;
``det`` of ``sylvester`` is the reference for ``polynomial.resultant``.
``elements`` draws the random inputs that the property tests feed to both
sides.  ``companion``, ``reflect`` and
``shift`` are the polynomial transforms only the tests use.
``regular_representation`` (the sum of x_i times the i-th power of f's
companion matrix), ``build_cubic`` (the closed 3x3 form) and
``entries_via_formula`` (the multinomial entry expansion) are three
independent constructions of M's entries: the first feeds M to the dense
computations, and all three check ``powers.mat_pow(M, 1)``, the matrix the
package prints for ``regrep.build(f, x)``.  ``cubic_limit_matrix`` (the
paper's closed cubic limit forms) is the reference for
``convergence.limit_ratio`` on cubics, and ``limit_to_places`` (the first
round of ``convergence.resolving_enclosure``, at any number of places)
encloses a limit for the tests that compare against one.  ``log_error_slope`` is the
least-squares rate fit the convergence-rate tests measure sequences with.

The second half holds the polynomial algebra and the root loops as they
were written first, on ``Fraction`` and ``mpc`` operators: evaluation,
remainders and gcds over Q, Sturm chains and isolation, certified
refinement, the interval enclosure of a quotient and the Aberth sweep.
``repapprox.polynomial`` and ``repapprox.roots`` run the same algebra and
loops on ints and raw mpmath tuples, and the tests check that both give the
same bits.
"""

import math

import mpmath as mp
from hypothesis import strategies as st

from repapprox.backends import rational, to_mpf
from repapprox.convergence import _constant_quotient, _quotient
from repapprox.errors import DomainError, NotSquarefree, UsageError
from repapprox.polynomial import Polynomial, derivative
from repapprox import roots
from repapprox.roots import Enclosure, root_bound

_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def elements(draw, max_degree=8):
    """(f, x): a monic f of degree 1..max_degree and nonzero weights x."""
    m = draw(st.integers(1, max_degree))
    u = draw(st.lists(_small_rationals, min_size=m, max_size=m))
    x = draw(st.lists(_small_rationals, min_size=m, max_size=m).filter(any))
    return Polynomial(u), tuple(rational(c) for c in x)


def identity(m):
    one, zero = rational(1), rational(0)
    return tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m))


def mat_mul(a, b):
    m, inner, cols = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(m)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_pow_entries(a, n):
    """a**n by square-and-multiply; n >= 0."""
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def multiply(f: Polynomial, a, b):
    """Coordinates of a*b modulo f, on rationals (the package's int kernel runs over L*alpha).

    Schoolbook product, then a^k for k >= m is folded down from the top with
    a^m = u_1 a^(m-1) + ... + u_m.
    """
    m = f.degree
    prod = [rational(0)] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for s, u_s in enumerate(f.u):
                prod[k - 1 - s] += c * u_s
    return tuple(prod[:m])


def power(f: Polynomial, c, n):
    """Coordinates of c**n modulo f by square-and-multiply, on rationals; n >= 0."""
    result = (rational(1),) + (rational(0),) * (f.degree - 1)
    base = tuple(c)
    while n:
        if n & 1:
            result = multiply(f, result, base)
        n >>= 1
        if n:
            base = multiply(f, base, base)
    return result


def det(a):
    """Exact determinant by cofactor expansion along the first row (small m only)."""
    m = len(a)
    if m == 1:
        return a[0][0]
    total = rational(0)
    sign = 1
    for col in range(m):
        minor = tuple(row[:col] + row[col + 1 :] for row in a[1:])
        total += sign * a[0][col] * det(minor)
        sign = -sign
    return total


def sylvester(a, b):
    """Sylvester matrix of coefficient lists of declared degrees len(a) - 1 and len(b) - 1.

    Row i < deg b holds a shifted i places right; row deg b + i holds b
    shifted i places right.
    """
    da, db = len(a) - 1, len(b) - 1
    n = da + db

    def row(c, shift):
        return tuple(rational(c[j - shift]) if 0 <= j - shift < len(c) else rational(0) for j in range(n))

    return tuple(row(a, i) for i in range(db)) + tuple(row(b, i) for i in range(da))


def companion(f: Polynomial):
    """Companion matrix rows: 1s on the subdiagonal, last column u_m ... u_1."""
    m = f.degree
    zero = rational(0)
    entries = [[zero] * m for _ in range(m)]
    for i in range(1, m):
        entries[i][i - 1] = rational(1)
    for i in range(m):
        entries[i][m - 1] = f.u[m - 1 - i]
    return tuple(tuple(row) for row in entries)


def near_double(e):
    """(t - 1)(t - 1 - 2^-e): two simple roots 2^-e apart."""
    d = rational(1, 2**e)
    return Polynomial.from_monic_coefficients([1, -(2 + d), 1 + d])


def reflect(f: Polynomial):
    """Monic polynomial whose roots are the reciprocals of f's.

    Coefficients reverse and renormalize; requires a nonzero constant
    term (zero must not be a root).
    """
    if f.u[-1] == 0:
        raise DomainError("cannot reflect: constant term is zero (0 is a root)")
    rev = tuple(reversed(f.monic_coefficients()))
    lead = rev[0]
    return Polynomial.from_monic_coefficients(tuple(c / lead for c in rev))


def shift(f: Polynomial, c):
    """Monic g with g(t) = f(t - c), i.e. roots moved by +c.

    Computed by repeated synthetic division at -c (Taylor shift).
    """
    c = rational(c)
    coeffs = list(f.monic_coefficients())
    m = len(coeffs) - 1
    # After pass k, coeffs[m-k:] holds the expansion coefficients b_0..b_k
    # of f(t) = sum b_k (t + c)^k; those are the coefficients of f(t - c).
    for k in range(m):
        for i in range(1, m + 1 - k):
            coeffs[i] += -c * coeffs[i - 1]
    return Polynomial.from_monic_coefficients(coeffs)


def regular_representation(f: Polynomial, x):
    """M(x, u) as x_0 I + x_1 C + ... + x_{m-1} C^(m-1), C = companion(f)."""
    c = companion(f)
    entries, c_power = mat_scale(rational(x[0]), identity(f.degree)), identity(f.degree)
    for x_i in x[1:]:
        c_power = mat_mul(c_power, c)
        entries = mat_add(entries, mat_scale(rational(x_i), c_power))
    return entries


def build_cubic(p, q, r, x, y, z):
    """Entries of the closed-form 3x3 regular representation for f = t^3 - p t^2 - q t - r."""
    p, q, r = rational(p), rational(q), rational(r)
    x, y, z = rational(x), rational(y), rational(z)
    return (
        (x, r * z, r * y + p * r * z),
        (y, x + q * z, q * y + (p * q + r) * z),
        (z, y + p * z, x + p * y + (p * p + q) * z),
    )


def _weighted_compositions(target, s):
    """Tuples (k_1, ..., k_s) of nonnegative ints with sum of i*k_i == target."""
    if s == 0:
        if target == 0:
            yield ()
        return
    for k in range(target // s + 1):
        for head in _weighted_compositions(target - s * k, s - 1):
            yield head + (k,)


def entry_multinomial(f: Polynomial, i, j, n):
    """Entry (i, j) of the n-th companion-matrix power, 1-based indices.

    Sums over nonnegative (k_1, ..., k_m) with k_1 + 2 k_2 + ... + m k_m =
    n - i + j the terms

        (k_{m+1-i} + ... + k_m) / (k_1 + ... + k_m)
            * multinomial(k_1, ..., k_m) * u_1^{k_1} ... u_m^{k_m}.

    An empty index set (n - i + j < 0) gives 0; the all-zero solution
    (n - i + j = 0) contributes 1, which reproduces A^0 = I.
    """
    m = f.degree
    if not (1 <= i <= m and 1 <= j <= m):
        raise UsageError(f"indices ({i},{j}) out of range 1..{m}")
    if n < 0:
        raise UsageError("matrix power index n must be >= 0")
    target = n - i + j
    if target < 0:
        return rational(0)
    total = rational(0)
    for ks in _weighted_compositions(target, m):
        ktot = sum(ks)
        if ktot == 0:
            total += 1
            continue
        tail = sum(ks[m - i :])
        if tail == 0:
            continue
        coeff = math.factorial(ktot)
        for k in ks:
            coeff //= math.factorial(k)
        term = rational(tail * coeff, ktot)
        for u_s, k in zip(f.u, ks):
            if k:
                term *= u_s**k
        total += term
    return total


def entries_via_formula(f: Polynomial, x):
    """Entries of M built purely from the multinomial entry formula."""
    m = f.degree
    return tuple(
        tuple(
            sum(
                (rational(x[n]) * entry_multinomial(f, i, j, n) for n in range(m)),
                start=rational(0),
            )
            for j in range(1, m + 1)
        )
        for i in range(1, m + 1)
    )


def cubic_limit_matrix(report, numerator):
    """Closed-form 3x3 matrix of limits lim M^n[numerator] / M^n[h,k].

    For a cubic with r != 0 and numerator (2,2) or (3,3), from a report of
    convergence.analyze.  Entries involve only the dominant root and the
    coefficients u_1 (=p) and u_3 (=r).
    """
    f = report.poly
    with mp.workprec(report.roots.work_prec):
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


def limit_to_places(f, limit, places):
    """Certified enclosure of the limit (N, D, bracket), radius <= 10**-places.

    The first round of convergence.resolving_enclosure on the triple that
    convergence._limit_data returned: its exact cases, then one
    roots.enclose_quotient from the Sturm bracket.
    """
    n, d, bracket = limit
    F = f.integer_forms()[0]
    c = _constant_quotient(n, d, F)
    if c is not None:
        return Enclosure(c, rational(0))
    n, d, _ = _quotient(F, limit, 0)
    return roots.enclose_quotient(f, n, d, roots._bracket(*bracket), places)[0]


def log_error_slope(records):
    """Least-squares slope of log10 |error| against n, at 64 bits."""
    with mp.workprec(64):
        ns = [mp.mpf(r.n) for r in records]
        logs = [mp.log10(to_mpf(r.abs_error, mp)) for r in records]
        mean_n = mp.fsum(ns) / len(ns)
        mean_l = mp.fsum(logs) / len(logs)
        return mp.fsum(
            (n - mean_n) * (l - mean_l) for n, l in zip(ns, logs)
        ) / mp.fsum((n - mean_n) ** 2 for n in ns)


# ---------------------------------------------------------------------------
# Fraction / mpc oracles for the root loops.  repapprox.roots runs these on
# ints and raw mpmath tuples; the tests check the results bit for bit.
# ---------------------------------------------------------------------------


def trim(coeffs):
    """Leading zeros dropped; the zero polynomial is (0,)."""
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return tuple(coeffs[i:])


def eval_coeffs(coeffs, t):
    acc = rational(0)
    for c in coeffs:
        acc = acc * t + c
    return acc


def evaluate(f, t, order=0):
    """Exact value of f, f' or f'' (order 0, 1 or 2) at a rational t."""
    coeffs = f.monic_coefficients()
    for _ in range(order):
        coeffs = derivative(coeffs)
    return eval_coeffs(coeffs, rational(t))


def poly_mul(a, b):
    out = [rational(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod(a, b):
    """Remainder of a by b over Q (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[0]
    while len(a) - 1 >= db and any(c != 0 for c in a):
        if a[0] == 0:
            a.pop(0)
            continue
        factor = a[0] / lb
        for i in range(db + 1):
            a[i] -= factor * b[i]
        a.pop(0)
    rem = trim(tuple(a)) if a else (rational(0),)
    return rem if any(c != 0 for c in rem) else (rational(0),)


def poly_gcd(a, b):
    """gcd over Q by Euclid's algorithm; gcd(a, 0) = a."""
    a, b = trim(a), trim(b)
    while b != (rational(0),):
        if len(b) == 1:
            return b
        a, b = b, poly_mod(a, b)
    return a


def constant_quotient(n_poly, d_poly, coeffs):
    """c with N = c*D modulo f, or None; None also when f divides D."""
    rn, rd = poly_mod(n_poly, coeffs), poly_mod(d_poly, coeffs)
    if rd == (rational(0),):
        return None
    if len(rn) != len(rd):
        return rational(0) if rn == (rational(0),) else None
    c = rn[0] / rd[0]
    return None if any(x - c * y for x, y in zip(rn, rd)) else c


def sturm_chain(coeffs):
    """Classical Sturm chain over Q: f, f', then -rem normalised to |lead| 1."""
    chain = [coeffs, derivative(coeffs)]
    while len(chain[-1]) > 1:
        rem = poly_mod(chain[-2], chain[-1])
        if rem == (rational(0),):
            break
        lead = abs(rem[0])
        chain.append(tuple(-c / lead for c in rem))
    return chain


def variations(chain, t):
    signs = []
    for p in chain:
        v = eval_coeffs(p, t)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for s, s2 in zip(signs, signs[1:]) if s != s2)


def is_squarefree(f):
    coeffs = f.monic_coefficients()
    return len(poly_gcd(coeffs, derivative(coeffs))) == 1


def _require_squarefree(f):
    if not is_squarefree(f):
        raise NotSquarefree(f"gcd(f, f') is nonconstant for {f}")


def count_real_roots(f, lo=None, hi=None):
    _require_squarefree(f)
    chain = sturm_chain(f.monic_coefficients())
    bound = root_bound(f)
    lo = rational(lo) if lo is not None else -bound
    hi = rational(hi) if hi is not None else bound
    return variations(chain, lo) - variations(chain, hi)


def _nonroot_midpoint(f, a, b):
    width = b - a
    mid = (a + b) / 2
    k = 7
    while evaluate(f, mid) == 0:
        mid = (a + b) / 2 + width / k
        k *= 7
        if mid >= b:
            raise DomainError("could not find a non-root split point")
    return mid


def _halve_bracket(f, a, b):
    fa = evaluate(f, a)
    mid = (a + b) / 2
    fm = evaluate(f, mid)
    if fm == 0:
        delta = (b - a) / 8
        while evaluate(f, mid - delta) == 0 or evaluate(f, mid + delta) == 0:
            delta /= 2
        return (mid - delta, mid + delta)
    if (fa < 0) != (fm < 0):
        return (a, mid)
    return (mid, b)


def isolate_real_roots(f):
    _require_squarefree(f)
    chain = sturm_chain(f.monic_coefficients())
    bound = root_bound(f)
    lo, hi = -bound, bound
    total = variations(chain, lo) - variations(chain, hi)
    out = []
    stack = [(lo, hi, total)] if total else []
    while stack:
        a, b, count = stack.pop()
        if count == 1:
            out.append((a, b))
            continue
        mid = _nonroot_midpoint(f, a, b)
        left = variations(chain, a) - variations(chain, mid)
        if left:
            stack.append((a, mid, left))
        if count - left:
            stack.append((mid, b, count - left))
    out.sort(key=lambda iv: (iv[0], iv[1]))
    for i in range(len(out) - 1):
        while out[i][1] >= out[i + 1][0]:
            out[i] = _halve_bracket(f, *out[i])
    return out


def nearest_interval(intervals, x):
    """The interval nearest x, the earlier on a tie, by exact distances."""

    def distance(iv):
        a, b = iv
        if a <= x <= b:
            return rational(0)
        return min(abs(x - a), abs(x - b))

    return min(intervals, key=distance)


def interval_horner(coeffs, lo, hi):
    """Interval extension of a polynomial over [lo, hi] (exact rationals)."""
    alo = ahi = rational(0)
    for c in coeffs:
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def dyadic_out(lo, hi, granule):
    gn, gd = granule.numerator, granule.denominator
    k = max(0, int(gd).bit_length() - int(gn).bit_length() + 1)
    scale = 1 << k
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    return rational(int(ln) * scale // int(ld), scale), rational(
        -((-int(hn) * scale) // int(hd)), scale
    )


def refine_real_root(f, interval, eps):
    """Bisection plus interval Newton on Fractions, dyadic outward rounding: an Enclosure."""
    a, b = rational(interval[0]), rational(interval[1])
    if a > b:
        a, b = b, a
    eps = rational(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    fa, fb = evaluate(f, a), evaluate(f, b)
    if fa == 0:
        return Enclosure(a, rational(0))
    if fb == 0:
        return Enclosure(b, rational(0))
    if (fa < 0) == (fb < 0):
        raise DomainError(f"no sign change on [{a}, {b}]")
    deriv = derivative(f.monic_coefficients())

    while b - a > 2 * eps:
        width = b - a
        mid = (a + b) / 2
        fmid = evaluate(f, mid)
        if fmid == 0:
            return Enclosure(mid, rational(0))
        dlo, dhi = interval_horner(deriv, a, b)
        stepped = False
        if dlo > 0 or dhi < 0:
            c1, c2 = mid - fmid / dlo, mid - fmid / dhi
            na, nb = (c1, c2) if c1 <= c2 else (c2, c1)
            na, nb = max(na, a), min(nb, b)
            if na <= nb and nb - na <= width / 2:
                granule = (nb - na) / 16 or eps / 16
                na, nb = dyadic_out(na, nb, granule)
                na, nb = max(na, a), min(nb, b)
                fna, fnb = evaluate(f, na), evaluate(f, nb)
                if fna == 0:
                    return Enclosure(na, rational(0))
                if fnb == 0:
                    return Enclosure(nb, rational(0))
                if (fna < 0) != (fnb < 0) and nb - na <= width / 2:
                    a, b, fa, fb = na, nb, fna, fnb
                    stepped = True
        if not stepped:
            if (fa < 0) != (fmid < 0):
                b, fb = mid, fmid
            else:
                a, fa = mid, fmid

    return Enclosure((a + b) / 2, (b - a) / 2)


def enclose_quotient(f, n_poly, d_poly, bracket, digits):
    """roots.enclose_quotient on Fractions: N(alpha)/D(alpha) by interval arithmetic."""
    target = eps = rational(1, 10 ** int(digits))
    while True:
        est = refine_real_root(f, bracket, eps)
        bracket = (est.center - est.radius, est.center + est.radius)
        n_lo, n_hi = interval_horner(n_poly, *bracket)
        d_lo, d_hi = interval_horner(d_poly, *bracket)
        if d_lo > 0 or d_hi < 0:
            ends = (n_lo / d_lo, n_lo / d_hi, n_hi / d_lo, n_hi / d_hi)
            lo, hi = min(ends), max(ends)
            if hi - lo <= 2 * target:
                return Enclosure((lo + hi) / 2, (hi - lo) / 2)
        eps /= 1 << 16


def horner_mpc(coeffs, z):
    acc = mp.mpc(0)
    for c in coeffs:
        acc = acc * z + c
    return acc


def aberth_pass(coeffs_mp, dcoeffs_mp, zs, iterations, tol):
    """Aberth-Ehrlich sweeps with mpc operators."""
    m = len(zs)
    for _ in range(iterations):
        corrections = []
        for i in range(m):
            pz = horner_mpc(coeffs_mp, zs[i])
            dpz = horner_mpc(dcoeffs_mp, zs[i])
            if dpz == 0:
                zs[i] += mp.mpf(tol)
                dpz = horner_mpc(dcoeffs_mp, zs[i])
            w = pz / dpz
            s = mp.mpc(0)
            for j in range(m):
                if j != i:
                    s += 1 / (zs[i] - zs[j])
            denom = 1 - w * s
            corrections.append(w if denom == 0 else w / denom)
        moved = mp.mpf(0)
        for i in range(m):
            zs[i] -= corrections[i]
            moved = max(moved, abs(corrections[i]))
        if moved < tol:
            break
    return zs


def residual_radius(coeffs_mp, dcoeffs_mp, z, m):
    dpz = horner_mpc(dcoeffs_mp, z)
    if dpz == 0:
        return mp.inf
    az = abs(z)
    noise = mp.mpf(0)
    for c in coeffs_mp:
        noise = noise * az + abs(c)
    noise *= (m + 2) * mp.mpf(2) ** (4 - mp.mp.prec)
    return m * (abs(horner_mpc(coeffs_mp, z)) + noise) / abs(dpz)
