"""Certified root oracle.

Real roots: Sturm-sequence isolation and bisection/interval-Newton refinement
in exact rational arithmetic; the returned radius is certified by a sign
change of f across the enclosure.  All complex roots: Aberth simultaneous
iteration in mpmath with residual inclusion radii m*|f(z)/f'(z)|, guarded by
pairwise disjointness and cross-checked against the exact real-root count.

Root ordering everywhere: descending modulus, ties broken by descending real
part, then descending imaginary part.
"""

from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

import mpmath as mp

from .backends import as_int_pair, mpf_to_rational, rational, to_mpf
from .errors import DomainError, NotSquarefree, RootSeparationError, UsageError
from .polynomial import Polynomial, homogeneous_eval, integer_multiple


@dataclass(frozen=True)
class Enclosure:
    """Certified bracket center +- radius, both exact rationals."""

    center: object
    radius: object

    @property
    def lo(self):
        return self.center - self.radius

    @property
    def hi(self):
        return self.center + self.radius


@dataclass(frozen=True)
class RootEstimate:
    center: object  # exact rational (refined real root) or mpc (Aberth)
    radius: object  # exact rational or mpf
    is_real: bool
    index: int = -1  # position in the canonical ordering; -1 if standalone


@dataclass(frozen=True)
class RootSet:
    roots: tuple
    source: Polynomial
    work_prec: int = 0

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


# ---------------------------------------------------------------------------
# exact coefficient-list helpers (descending order, rational entries)
# ---------------------------------------------------------------------------


def _trim(coeffs):
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return tuple(coeffs[i:])


def _derivative(coeffs):
    deg = len(coeffs) - 1
    if deg == 0:
        return (rational(0),)
    return tuple(c * (deg - i) for i, c in enumerate(coeffs[:-1]))


def _eval_coeffs(coeffs, t):
    acc = rational(0)
    for c in coeffs:
        acc = acc * t + c
    return acc


def _poly_mod(a, b):
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
    rem = _trim(tuple(a)) if a else (rational(0),)
    return rem if any(c != 0 for c in rem) else (rational(0),)


def _poly_gcd(a, b):
    """gcd over Q; a nonzero constant is returned as soon as one appears.

    A linear b0 t + b1 divides a iff a(-b1/b0) = 0, which is decided on the
    integer homogeneous form of a at (-b1, b0), with no rational reduced: the
    gcd is then b, or else the constant 1.
    """
    a, b = _trim(a), _trim(b)
    while b != (rational(0),):
        if len(b) == 1:
            return b
        if len(b) == 2:
            (n0, d0), (n1, d1) = map(as_int_pair, b)
            root_form = homogeneous_eval(integer_multiple(a), -n1 * d0, d1 * n0)
            return b if root_form == 0 else (rational(1),)
        a, b = b, _poly_mod(a, b)
    return a


def is_squarefree(f: Polynomial) -> bool:
    coeffs = f.monic_coefficients()
    g = _poly_gcd(coeffs, _derivative(coeffs))
    return len(g) == 1


def _require_squarefree(f):
    if not is_squarefree(f):
        raise NotSquarefree(f"gcd(f, f') is nonconstant for {f}")


def root_bound(f: Polynomial):
    """Cauchy bound: every root has modulus < 1 + max |u_i|."""
    return 1 + max(abs(c) for c in f.u)


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------


def _sturm_chain(coeffs):
    chain = [coeffs, _derivative(coeffs)]
    while len(chain[-1]) > 1:
        rem = _poly_mod(chain[-2], chain[-1])
        if rem == (rational(0),):
            break  # nontrivial gcd; caller has rejected this via squarefree check
        lead = abs(rem[0])
        chain.append(tuple(-c / lead for c in rem))
    return chain


def _variations(chain, t):
    signs = []
    for p in chain:
        v = _eval_coeffs(p, t)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for s, s2 in zip(signs, signs[1:]) if s != s2)


def count_real_roots(f: Polynomial, lo=None, hi=None) -> int:
    """Exact number of distinct real roots in (lo, hi]; whole line by default."""
    _require_squarefree(f)
    coeffs = f.monic_coefficients()
    chain = _sturm_chain(coeffs)
    bound = root_bound(f)
    lo = rational(lo) if lo is not None else -bound
    hi = rational(hi) if hi is not None else bound
    return _variations(chain, lo) - _variations(chain, hi)


def _nonroot_midpoint(f, a, b):
    """A point near the middle of (a, b) where f does not vanish."""
    width = b - a
    mid = (a + b) / 2
    k = 7
    while f.eval(mid) == 0:
        mid = (a + b) / 2 + width / k
        k *= 7
        if mid >= b:  # cannot happen before running out of roots, but be safe
            raise DomainError("could not find a non-root split point")
    return mid


def isolate_real_roots(f: Polynomial):
    """Disjoint rational intervals, one simple real root in each."""
    _require_squarefree(f)
    chain = _sturm_chain(f.monic_coefficients())
    bound = root_bound(f)
    lo, hi = -bound, bound
    total = _variations(chain, lo) - _variations(chain, hi)
    out = []
    stack = [(lo, hi, total)] if total else []
    while stack:
        a, b, count = stack.pop()
        if count == 1:
            out.append((a, b))
            continue
        mid = _nonroot_midpoint(f, a, b)
        left = _variations(chain, a) - _variations(chain, mid)
        if left:
            stack.append((a, mid, left))
        if count - left:
            stack.append((mid, b, count - left))
    out.sort(key=lambda iv: (iv[0], iv[1]))
    # Adjacent intervals may share a (non-root) endpoint; shrink until the
    # closures are pairwise disjoint.
    for i in range(len(out) - 1):
        while out[i][1] >= out[i + 1][0]:
            out[i] = _halve_bracket(f, *out[i])
    return out


def _halve_bracket(f, a, b):
    fa = f.eval(a)
    mid = (a + b) / 2
    fm = f.eval(mid)
    if fm == 0:
        # Exact root hit: return a strict sub-bracket around it.
        delta = (b - a) / 8
        while f.eval(mid - delta) == 0 or f.eval(mid + delta) == 0:
            delta /= 2
        return (mid - delta, mid + delta)
    if (fa < 0) != (fm < 0):
        return (a, mid)
    return (mid, b)


# ---------------------------------------------------------------------------
# certified real refinement: bisection + interval Newton
# ---------------------------------------------------------------------------


def _interval_horner(coeffs, lo, hi):
    """Interval extension of a polynomial over [lo, hi] (exact rationals)."""
    alo = ahi = rational(0)
    for c in coeffs:
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def _dyadic_out(lo, hi, granule):
    """Round [lo, hi] outward to a dyadic grid no coarser than `granule`."""
    gn, gd = granule.numerator, granule.denominator
    k = max(0, int(gd).bit_length() - int(gn).bit_length() + 1)
    scale = 1 << k
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    return rational(int(ln) * scale // int(ld), scale), rational(
        -((-int(hn) * scale) // int(hd)), scale
    )


def refine_real_root(f: Polynomial, interval, eps) -> RootEstimate:
    """Shrink a sign-change bracket to radius <= eps (exact, certified).

    Bisection is the fallback; when the derivative's interval extension
    excludes zero the step switches to interval Newton, whose contraction is
    eventually quadratic.  Endpoints are rounded outward to dyadics so
    representation size stays proportional to the requested precision.
    """
    a, b = rational(interval[0]), rational(interval[1])
    if a > b:
        a, b = b, a
    eps = rational(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    fa, fb = f.eval(a), f.eval(b)
    if fa == 0:
        return RootEstimate(a, rational(0), True)
    if fb == 0:
        return RootEstimate(b, rational(0), True)
    if (fa < 0) == (fb < 0):
        raise DomainError(f"no sign change on [{a}, {b}]")
    deriv = _derivative(f.monic_coefficients())

    while b - a > 2 * eps:
        width = b - a
        mid = (a + b) / 2
        fmid = f.eval(mid)
        if fmid == 0:
            return RootEstimate(mid, rational(0), True)
        dlo, dhi = _interval_horner(deriv, a, b)
        stepped = False
        if dlo > 0 or dhi < 0:
            c1, c2 = mid - fmid / dlo, mid - fmid / dhi
            na, nb = (c1, c2) if c1 <= c2 else (c2, c1)
            na, nb = max(na, a), min(nb, b)
            if na <= nb and nb - na <= width / 2:
                granule = (nb - na) / 16 or eps / 16
                na, nb = _dyadic_out(na, nb, granule)
                na, nb = max(na, a), min(nb, b)
                fna, fnb = f.eval(na), f.eval(nb)
                if fna == 0:
                    return RootEstimate(na, rational(0), True)
                if fnb == 0:
                    return RootEstimate(nb, rational(0), True)
                if (fna < 0) != (fnb < 0) and nb - na <= width / 2:
                    a, b, fa, fb = na, nb, fna, fnb
                    stepped = True
        if not stepped:
            if (fa < 0) != (fmid < 0):
                b, fb = mid, fmid
            else:
                a, fa = mid, fmid

    return RootEstimate((a + b) / 2, (b - a) / 2, True)


def refine_to_decimal_digits(f: Polynomial, interval, digits) -> Enclosure:
    """Certified enclosure with radius <= 10**-digits."""
    est = refine_real_root(f, interval, rational(1, 10**digits))
    return Enclosure(est.center, est.radius)


# ---------------------------------------------------------------------------
# all complex roots: Aberth-Ehrlich with certification scaffolding
# ---------------------------------------------------------------------------


def _horner_mpc(coeffs, z):
    acc = mp.mpc(0)
    for c in coeffs:
        acc = acc * z + c
    return acc


def _aberth_pass(coeffs_mp, dcoeffs_mp, zs, iterations, tol):
    m = len(zs)
    for _ in range(iterations):
        corrections = []
        for i in range(m):
            pz = _horner_mpc(coeffs_mp, zs[i])
            dpz = _horner_mpc(dcoeffs_mp, zs[i])
            if dpz == 0:
                zs[i] += mp.mpf(tol)
                dpz = _horner_mpc(dcoeffs_mp, zs[i])
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


def _residual_radius(coeffs_mp, dcoeffs_mp, z, m):
    dpz = _horner_mpc(dcoeffs_mp, z)
    if dpz == 0:
        return mp.inf
    # |f(z)| cannot be trusted below the Horner roundoff at working precision;
    # fold that floor in so the radius never understates the uncertainty.
    az = abs(z)
    noise = mp.mpf(0)
    for c in coeffs_mp:
        noise = noise * az + abs(c)
    noise *= (m + 2) * mp.mpf(2) ** (4 - mp.mp.prec)
    return m * (abs(_horner_mpc(coeffs_mp, z)) + noise) / abs(dpz)


def _compare_estimates(a, b):
    tol = a.radius + b.radius
    for da, db in (
        (abs(a.center), abs(b.center)),
        (mp.re(a.center), mp.re(b.center)),
        (mp.im(a.center), mp.im(b.center)),
    ):
        if abs(da - db) > tol:
            return -1 if da > db else 1
    return 0


def sort_canonically(estimates):
    """Descending modulus, then descending real, then descending imaginary."""
    ordered = sorted(estimates, key=cmp_to_key(_compare_estimates))
    return tuple(
        RootEstimate(e.center, e.radius, e.is_real, index=i)
        for i, e in enumerate(ordered)
    )


def all_roots(f: Polynomial, precision_bits=256, ceiling_factor=64) -> RootSet:
    """All m roots with residual inclusion radii below 2**(-precision_bits/2).

    Working precision doubles (and the Aberth iteration restarts from the
    previous approximations) until the radii pass the threshold, the
    inclusion disks are pairwise disjoint, and the number of real candidates
    agrees with the exact Sturm count.
    """
    return _all_roots_cached(f, int(precision_bits), int(ceiling_factor))


@lru_cache(maxsize=128)
def _all_roots_cached(f, precision_bits, ceiling_factor):
    _require_squarefree(f)
    m = f.degree
    if m == 1:
        est = RootEstimate(rational(f.u[0]), rational(0), True, index=0)
        return RootSet((est,), f, work_prec=precision_bits)

    real_count = count_real_roots(f)
    work = max(precision_bits + 64, 128)
    ceiling = work * ceiling_factor
    coeffs_exact = f.monic_coefficients()
    zs = None
    while work <= ceiling:
        with mp.workprec(work):
            target = mp.mpf(2) ** (-(precision_bits // 2))
            coeffs_mp = [to_mpf(c, mp) for c in coeffs_exact]
            dcoeffs_mp = [to_mpf(c, mp) for c in _derivative(coeffs_exact)]
            if zs is None:
                radius = to_mpf(root_bound(f), mp)
                zs = [
                    radius
                    * (1 + mp.mpf(t) / (8 * m))
                    * mp.exp(1j * (2 * mp.pi * t / m + mp.mpf(7) / 20))
                    for t in range(m)
                ]
            else:
                zs = [mp.mpc(z) for z in zs]
            tol = mp.mpf(2) ** (-(work - 8))
            zs = _aberth_pass(coeffs_mp, dcoeffs_mp, zs, 60 + 6 * m, tol)
            estimates = _certify(coeffs_mp, dcoeffs_mp, zs, m, real_count, target)
            if estimates is not None:
                return RootSet(sort_canonically(estimates), f, work_prec=work)
        work *= 2
    raise RootSeparationError(
        f"could not separate roots of {f} below 2^-{precision_bits // 2} "
        f"within the precision ceiling"
    )


def _certify(coeffs_mp, dcoeffs_mp, zs, m, real_count, target):
    """Build disjoint certified estimates, or None to trigger escalation."""
    by_imag = sorted(zs, key=lambda z: abs(mp.im(z)))
    reals, complexes = by_imag[:real_count], by_imag[real_count:]
    estimates = []
    for z in reals:
        center = mp.re(z)
        r = _residual_radius(coeffs_mp, dcoeffs_mp, mp.mpc(center), m)
        if abs(mp.im(z)) > r + target:
            return None  # the "real" candidate is not actually near the axis
        estimates.append(RootEstimate(mp.mpc(center), r, True))
    pos = sorted((z for z in complexes if mp.im(z) > 0), key=lambda z: (mp.re(z), mp.im(z)))
    neg = list(z for z in complexes if mp.im(z) <= 0)
    if 2 * len(pos) != len(complexes):
        return None
    for z in pos:
        partner = min(neg, key=lambda w: abs(w - mp.conj(z)))
        neg.remove(partner)
        avg = (z + mp.conj(partner)) / 2
        for cand in (avg, mp.conj(avg)):
            r = _residual_radius(coeffs_mp, dcoeffs_mp, cand, m)
            estimates.append(RootEstimate(cand, r, False))
    if any(e.radius > target or not mp.isfinite(e.radius) for e in estimates):
        return None
    for i in range(m):
        for j in range(i + 1, m):
            sep = abs(estimates[i].center - estimates[j].center)
            if sep <= estimates[i].radius + estimates[j].radius:
                return None
    return estimates


def _to_exact(v):
    if isinstance(v, mp.mpc):
        v = mp.re(v)
    return mpf_to_rational(v) if isinstance(v, mp.mpf) else rational(v)


@lru_cache(maxsize=128)
def isolating_interval_for(f: Polynomial, estimate: RootEstimate):
    """The isolating interval (from Sturm isolation) containing a real root."""
    if not estimate.is_real:
        raise UsageError("isolating intervals exist only for real roots")
    center, slack = _to_exact(estimate.center), _to_exact(estimate.radius)
    for a, b in isolate_real_roots(f):
        if a - slack <= center <= b + slack:
            return (a, b)
    raise DomainError("no isolating interval matches the given estimate")

