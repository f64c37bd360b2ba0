"""Certified root oracle.

Real roots: Sturm-sequence isolation and bisection/interval-Newton refinement
in exact arithmetic; the returned radius is certified by a sign change of f
across the enclosure.  enclose_quotient encloses N(alpha)/D(alpha) for a
real root alpha (alpha itself is N = t, D = 1) and returns the refined int
bracket with it, so the next enclosure at more digits continues from there.
All complex roots: Aberth simultaneous iteration in mpmath with residual
inclusion radii m*|f(z)/f'(z)|, guarded by pairwise disjointness and
cross-checked against the exact real-root count.  It starts from a circle,
from given approximations, or from float_start's roots in doubles.

The three hot loops avoid per-operation objects.  The Sturm chain is one
cached polynomial.remainder_sequence of f and f' on ints per f, the same
integer remainder sequence that decides every exact gcd of the package,
and each f's isolating intervals are cached too; refinement holds ints
over a common denominator and reduces nothing but the Newton granule; the
Aberth sweep holds int mantissas and exponents and rounds each sum and
quotient as libmp's mpf_add and mpf_div round it, where the mpc operators
round, and its stop test compares abs(mpc) with the tolerance exactly, in
ints.  Their results are bit-identical to the Fraction and mpc versions of
the same loops, which tests/dense.py keeps as oracles.

Root ordering everywhere: descending modulus, ties broken by descending real
part, then descending imaginary part.
"""

import cmath
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from math import gcd, lcm, pi

import mpmath as mp
from mpmath.libmp import fzero, mpc_abs, round_nearest

from .backends import as_int_pair, rational, to_mpf
from .errors import DomainError, NotSquarefree, RootSeparationError, UsageError
from .polynomial import (
    Polynomial, derivative, homogeneous_eval, primitive, remainder_sequence, sign_at,
)

# Working-precision budgets in bits: the default asked of all_roots and
# analyze, and the largest that either accepts (also the largest
# --precision the CLI accepts).  all_roots' Aberth working
# precision stops at CEILING_FACTOR times its start.
DEFAULT_PRECISION = 256
MAX_PRECISION = 1 << 16
CEILING_FACTOR = 64


@dataclass(frozen=True)
class Enclosure:
    """Certified bracket center +- radius, both exact rationals."""

    center: object
    radius: object


@dataclass(frozen=True)
class RootEstimate:
    """Aberth's disk, or a linear f's exact root; its index is its place in RootSet.roots."""

    center: object  # mpc, or the linear root's rational
    radius: object  # mpf, or 0
    is_real: bool


@dataclass(frozen=True)
class RootSet:
    roots: tuple
    work_prec: int

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


@lru_cache(maxsize=128)
def _sturm_chain(f):
    """f's Sturm chain on ints, each entry a positive multiple of the classical one.

    The classical chain is f, f', then minus the remainder of the two
    entries before, over Q; polynomial.remainder_sequence builds it from
    primitive multiples of f and f'.  So each entry has its classical
    counterpart's sign at every point, and sign variations count real roots
    as usual.  The chain ends at gcd(f, f') up to scale: in a constant
    exactly when f is squarefree.
    """
    forms = f.integer_forms()
    return remainder_sequence(primitive(forms[0]), primitive(forms[1]))


def is_squarefree(f: Polynomial) -> bool:
    return len(_sturm_chain(f)[-1]) == 1


def _size(f):
    """f's degree and its largest coefficient part in bits, for messages."""
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in f.u)
    return f"f of degree {f.degree} with coefficient parts up to {bits} bits"


def _require_squarefree(f):
    if not is_squarefree(f):
        raise NotSquarefree(f"gcd(f, f') is nonconstant for {_size(f)}")


def _require_precision(bits):
    """bits as an int; above MAX_PRECISION a UsageError, before any root work."""
    bits = int(bits)
    if bits > MAX_PRECISION:
        raise UsageError(f"precision_bits must be <= MAX_PRECISION = {MAX_PRECISION}, got {bits}")
    return bits


def root_bound(f: Polynomial):
    """Cauchy bound: every root has modulus < 1 + max |u_i|."""
    return 1 + max(abs(c) for c in f.u)


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------


def _variations(chain, t):
    signs = [s for s in (sign_at(p, t) for p in chain) if s]
    return sum(1 for s, s2 in zip(signs, signs[1:]) if s != s2)


def count_real_roots(f: Polynomial) -> int:
    """Exact number of distinct real roots."""
    _require_squarefree(f)
    chain = _sturm_chain(f)
    bound = root_bound(f)
    return _variations(chain, -bound) - _variations(chain, bound)


def _nonroot_midpoint(form, a, b):
    """A point near the middle of (a, b) where the int form does not vanish."""
    width = b - a
    mid = (a + b) / 2
    k = 7
    while sign_at(form, mid) == 0:
        mid = (a + b) / 2 + width / k
        k *= 7
        if mid >= b:  # cannot happen before running out of roots, but be safe
            raise DomainError("could not find a non-root split point")
    return mid


@lru_cache(maxsize=128)
def isolate_real_roots(f: Polynomial):
    """Disjoint rational intervals, one simple real root in each, as a sorted tuple."""
    _require_squarefree(f)
    chain = _sturm_chain(f)
    form = chain[0]
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
        mid = _nonroot_midpoint(form, a, b)
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
            out[i] = _halve_bracket(form, *out[i])
    return tuple(out)


def _halve_bracket(form, a, b):
    mid = (a + b) / 2
    sm = sign_at(form, mid)
    if sm == 0:
        # Exact root hit: return a strict sub-bracket around it.
        delta = (b - a) / 8
        while sign_at(form, mid - delta) == 0 or sign_at(form, mid + delta) == 0:
            delta /= 2
        return (mid - delta, mid + delta)
    if (sign_at(form, a) < 0) != (sm < 0):
        return (a, mid)
    return (mid, b)


# ---------------------------------------------------------------------------
# certified real refinement: bisection + interval Newton, on ints
# ---------------------------------------------------------------------------
#
# A bracket is (lo, hi, q): the interval [lo/q, hi/q] with ints lo <= hi and
# q > 0, not reduced.  These are the steps of the rational algorithm kept in
# tests/dense.py, value for value; signs come from homogeneous_eval on the
# int form of f, and the only reduction is the Newton granule's.


def _bracket(a, b):
    """Rationals a <= b as a bracket over their least common denominator."""
    (an, ad), (bn, bd) = as_int_pair(a), as_int_pair(b)
    q = lcm(ad, bd)
    return an * (q // ad), bn * (q // bd), q


def _interval_horner(coeffs, lo, hi, q):
    """Interval extension of an int polynomial over [lo/q, hi/q], times q^deg.

    Returns ints (vlo, vhi): the rational interval Horner's bounds, each
    multiplied by q^deg, so min and max pick the same products.
    """
    alo = ahi = coeffs[0]
    qk = 1
    for c in coeffs[1:]:
        qk *= q
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        cq = c * qk
        alo, ahi = min(products) + cq, max(products) + cq
    return alo, ahi


def _twos(n):
    """The exponent of 2 in a nonzero int."""
    return (n & -n).bit_length() - 1


def _grid_bits(num, den):
    """log2 of the dyadic grid for a granule num/den > 0, given reduced."""
    return max(0, den.bit_length() - num.bit_length() + 1)


def _newton_step(forms, lo, hi, q, mid, F_mid, eps_bits):
    """One interval-Newton step from mid/(2q), or None to bisect instead.

    Returns the new bracket and whether F is negative at its low end; the
    ends are equal when one of them is an exact root.
    """
    F, dF = forms
    d_lo, d_hi = _interval_horner(dF, lo, hi, q)
    if d_lo <= 0 <= d_hi:
        return None
    # At x = mid/(2q), x - f(x)/(d/q^(m-1)) is (mid 2^(m-1) d - F_mid) /
    # (2^m q d) for each bound d: the scale of the int forms cancels.
    m = len(F) - 1
    cands = []
    for d in (d_lo, d_hi):
        num, den = ((mid * d) << (m - 1)) - F_mid, (q * d) << m
        cands.append((-num, -den) if den < 0 else (num, den))
    (na, da), (nb, db) = cands
    if na * db > nb * da:
        (na, da), (nb, db) = (nb, db), (na, da)
    if lo * da > na * q:
        na, da = lo, q
    if hi * db < nb * q:
        nb, db = hi, q
    diff, dd = nb * da - na * db, da * db
    width = hi - lo
    if diff < 0 or 2 * diff * q > width * dd:
        return None
    if diff:
        # The granule diff / (16 dd), reduced.  Powers of two (most of q) go
        # by shifts, so the gcd runs on the odd parts only.
        twos = min(_twos(diff), _twos(dd) + 4)
        g = gcd(diff >> _twos(diff), dd >> _twos(dd))
        k = _grid_bits((diff >> twos) // g, ((dd << 4) >> twos) // g)
    else:
        k = eps_bits
    # Round outward to the grid 2^-k, then clamp to [lo/q, hi/q] again.
    na, nb = (na << k) // da, -((-nb << k) // db)
    at_lo, at_hi = lo << k > na * q, hi << k < nb * q
    if at_lo and at_hi:
        return None  # the bracket itself: no narrower
    if at_lo or at_hi:  # over lcm(q, 2^k)
        shift = max(0, k - _twos(q))
        scale = q << shift
        if at_lo:
            na, nb = lo << shift, nb * (scale >> k)
        else:
            na, nb = na * (scale >> k), hi << shift
    else:
        scale = 1 << k
    F_na, F_nb = homogeneous_eval(F, na, scale), homogeneous_eval(F, nb, scale)
    if F_na == 0:
        return na, na, scale, False
    if F_nb == 0:
        return nb, nb, scale, False
    if (F_na < 0) != (F_nb < 0) and 2 * (nb - na) * q <= width * scale:
        return na, nb, scale, F_na < 0
    return None


def _refine(forms, lo, hi, q, eps):
    """Shrink the bracket (lo, hi, q) of a root of forms[0] to width <= 2 eps.

    forms is (F, F'), F an int multiple of f; eps = (en, ed) is a positive
    reduced fraction.  Bisection is the fallback; when F' on the bracket
    excludes zero the step is interval Newton, eventually quadratic, and its
    ends are rounded outward to a dyadic grid so the ints stay proportional
    to the precision.  Returns the final bracket, with lo == hi when an
    exact root was hit.
    """
    F = forms[0]
    en, ed = eps
    F_lo, F_hi = homogeneous_eval(F, lo, q), homogeneous_eval(F, hi, q)
    if F_lo == 0:
        return lo, lo, q
    if F_hi == 0:
        return hi, hi, q
    lo_neg = F_lo < 0
    if lo_neg == (F_hi < 0):
        raise DomainError(f"no sign change on [{rational(lo, q)}, {rational(hi, q)}]")
    g = gcd(en, 16)
    eps_bits = _grid_bits(en // g, (ed << 4) // g)  # the grid of eps/16

    while (hi - lo) * ed > 2 * en * q:
        mid = lo + hi  # over 2q
        F_mid = homogeneous_eval(F, mid, q << 1)
        if F_mid == 0:
            return mid, mid, q << 1
        step = _newton_step(forms, lo, hi, q, mid, F_mid, eps_bits)
        if step is None:
            if lo_neg != (F_mid < 0):
                lo, hi = lo << 1, mid
            else:
                lo, hi, lo_neg = mid, hi << 1, F_mid < 0
            q <<= 1
        else:
            lo, hi, q, lo_neg = step
            if lo == hi:
                return lo, hi, q
    return lo, hi, q


def refine_real_root(f: Polynomial, interval, eps) -> Enclosure:
    """Shrink a sign-change bracket to an Enclosure of radius <= eps (exact, certified).

    Bisection is the fallback; when the derivative's interval extension
    excludes zero the step switches to interval Newton, whose contraction is
    eventually quadratic.  Endpoints are rounded outward to dyadics so
    representation size stays proportional to the requested precision.
    The loop runs on ints (_refine); only the result is made rational.
    """
    a, b = rational(interval[0]), rational(interval[1])
    if a > b:
        a, b = b, a
    eps = rational(eps)
    if eps <= 0:
        raise UsageError("eps must be positive")
    lo, hi, q = _refine(f.integer_forms()[:2], *_bracket(a, b), as_int_pair(eps))
    return Enclosure(rational(lo + hi, q << 1), rational(hi - lo, q << 1))


# n/d pairs with d > 0, ordered by value
_by_value = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def enclose_quotient(f: Polynomial, n, d, bracket, digits):
    """(Enclosure of N(alpha)/D(alpha) with radius <= 10**-digits, refined bracket).

    alpha is f's root in the int bracket (lo, hi, q); a call at more digits
    continues from the returned one.  N and D are int tuples with one common
    scale, which leaves N/D as it is.  Each pass refines the bracket by
    _refine and evaluates N and D on it by _interval_horner; every quotient
    below is n/d times kn/kd = q^deg D / q^deg N.  Each pass asks the
    refinement for 2^16 times more than the last.  D must not vanish at the
    root, or no pass is narrow enough.  For N = t, D = 1 the first pass is
    refine_real_root's, with the same centre and radius.
    """
    forms = f.integer_forms()[:2]
    lo, hi, q = bracket
    tol_den = ed = 10 ** int(digits)  # the radius target is 1/tol_den
    while True:
        lo, hi, q = _refine(forms, lo, hi, q, (1, ed))
        n_lo, n_hi = _interval_horner(n, lo, hi, q)
        d_lo, d_hi = _interval_horner(d, lo, hi, q)
        if d_lo > 0 or d_hi < 0:
            e = len(d) - len(n)
            kn, kd = q ** max(e, 0), q ** max(-e, 0)
            ends = [(a, b) if b > 0 else (-a, -b) for a in (n_lo, n_hi) for b in (d_lo, d_hi)]
            (ln, ld), (hn, hd) = min(ends, key=_by_value), max(ends, key=_by_value)
            spread, den = (hn * ld - ln * hd) * kn, ld * hd * kd
            if spread * tol_den <= 2 * den:
                center = rational((ln * hd + hn * ld) * kn, 2 * den)
                return Enclosure(center, rational(spread, 2 * den)), (lo, hi, q)
        ed <<= 16


@lru_cache(maxsize=128)
def _certified_irreducible(f):
    """Whether f is certified irreducible over Q: degree 2 or 3, no rational root.

    A rational root p/q of the int form F has q | lc(F), so once
    refine_real_root narrows its Sturm bracket below 1/(2 lc(F)) the one
    multiple of 1/lc(F) in it is the only candidate.  Other degrees are not
    decided and give False.
    """
    if not 2 <= f.degree <= 3 or not is_squarefree(f):
        return False
    F = f.integer_forms()[0]
    lc = abs(F[0])
    for interval in isolate_real_roots(f):
        est = refine_real_root(f, interval, rational(1, 4 * lc))
        k = -((est.radius - est.center) * lc // 1)  # the least k with k/lc >= the low end
        if k <= (est.center + est.radius) * lc and homogeneous_eval(F, k, lc) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# all complex roots: Aberth-Ehrlich with certification scaffolding
# ---------------------------------------------------------------------------
#
# The sweep holds each real part as a pair (man, exp), the value man * 2**exp
# with a signed int man: an mpf tuple without its sign and bit count, and
# with its mantissa's trailing zeros kept.  It rounds where the mpc
# operators of tests/dense.py round, and to the same bits: products are
# exact, and every sum and quotient is rounded once, by _add, as libmp's
# mpf_add and mpf_div round it.


_ZERO = (0, 0)
_CZERO, _CONE = (_ZERO, _ZERO), ((1, 0), _ZERO)


def _add(am, ae, bm, be, prec, down=False):
    """a + b rounded to prec bits, as mpf_add(a, b, prec) rounds it.

    a and b are (man, exp) pairs passed as four ints; b = (0, 0) rounds a
    alone.  The sum rounds to nearest-even, or toward zero if down.  Unlike
    libmp, mantissas keep their trailing zeros (_mpf strips them), so
    libmp's exponent of a is ae + _twos(am).  Like mpf_add, when one
    operand's top bit lies more than prec + 4 bits above the other's and its
    libmp exponent more than 100 above, the smaller enters only as a sticky
    +-1 below the larger shifted up by prec + 4 bits: no int grows past the
    larger's bits plus prec + 5, however far below the smaller lies.  Any
    sticky place below the larger's last set bit rounds alike.  When the
    larger has more than prec bits this need not be the correctly rounded
    sum; it is mpf_add's.
    """
    if am and bm:
        if ae < be:
            am, ae, bm, be = bm, be, am, ae
        off = ae - be
        above = off + am.bit_length() - bm.bit_length()  # a's top bit over b's
        if above > prec + 4 and off + _twos(am) - _twos(bm) > 100:
            man, exp = (am << (prec + 4)) + (1 if bm > 0 else -1), ae - prec - 4
        elif above < -prec - 4 and _twos(bm) - _twos(am) - off > 100:
            man, exp = (bm << (prec + 4)) + (1 if am > 0 else -1), be - prec - 4
        else:
            man, exp = (am << off) + bm, be
    elif am:
        man, exp = am, ae
    elif bm:
        man, exp = bm, be
    else:
        return _ZERO
    n = man.bit_length() - prec
    if n > 0:
        if down:
            man = man >> n if man > 0 else -(-man >> n)
        else:
            # Floor shifts: t's last bit is the half bit, also for man < 0.
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
        exp += n
    elif not man:
        return _ZERO
    return man, exp


def _quotient(am, ae, bm, be, prec, down=False):
    """a / b rounded to prec bits, as mpf_div(a, b, prec) rounds it.

    The quotient is truncated to at least prec + 5 bits, and a nonzero
    remainder becomes a sticky last bit; that rounds as the exact quotient.
    """
    if not bm:
        raise ZeroDivisionError
    if not am:
        return _ZERO
    negative = (am < 0) != (bm < 0)
    am, bm = abs(am), abs(bm)
    extra = max(prec - am.bit_length() + bm.bit_length() + 5, 5)
    quot, rem = divmod(am << extra, bm)
    if rem:
        quot = (quot << 1) | 1
        extra += 1
    return _add(-quot if negative else quot, ae - be - extra, 0, 0, prec, down)


def _cadd(z, w, prec):
    """z + w as mpc_add: each part rounded once."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    return _add(am, ae, cm, ce, prec), _add(bm, be, dm, de, prec)


def _csub(z, w, prec):
    """z - w as mpc_sub: each part rounded once."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    return _add(am, ae, -cm, ce, prec), _add(bm, be, -dm, de, prec)


def _cmul(z, w, prec):
    """z * w as mpc_mul: exact products, one rounding per part."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    return (_add(am * cm, ae + ce, -bm * dm, be + de, prec),
            _add(am * dm, ae + de, bm * cm, be + ce, prec))


def _cdiv(z, w, prec):
    """z / w as mpc_div: norm and numerators toward zero at prec + 10 bits."""
    (am, ae), (bm, be) = z
    (cm, ce), (dm, de) = w
    wp = prec + 10
    norm = _add(cm * cm, 2 * ce, dm * dm, 2 * de, wp, True)
    re = _add(am * cm, ae + ce, bm * dm, be + de, wp, True)
    im = _add(bm * cm, be + ce, -am * dm, ae + de, wp, True)
    return _quotient(*re, *norm, prec), _quotient(*im, *norm, prec)


def _cinv(z, prec):
    """1 / z as mpc_mpf_div(1, z): the norm toward zero at prec + 10 bits."""
    (am, ae), (bm, be) = z
    norm = _add(am * am, 2 * ae, bm * bm, 2 * be, prec + 10, True)
    return _quotient(am, ae, *norm, prec), _quotient(-bm, be, *norm, prec)


def _horner(coeffs, z, prec):
    """acc*z + c over (man, exp) coefficients c, from acc = 0, as mpc does it.

    The product is _cmul's, inlined; adding c rounds the real part and
    leaves the imaginary part as it is (mpc_add_mpf).  The first product,
    0*z, is exactly 0 for a finite z and is skipped.
    """
    (xm, xe), (ym, ye) = z
    rm, re = _add(*coeffs[0], 0, 0, prec)
    im, ie = _ZERO
    for cm, ce in coeffs[1:]:
        pm, pe = _add(rm * xm, re + xe, -im * ym, ie + ye, prec)
        im, ie = _add(rm * ym, re + ye, im * xm, ie + xe, prec)
        rm, re = _add(pm, pe, cm, ce, prec)
    return (rm, re), (im, ie)


def _pair(x):
    """A finite mpf tuple (sign, man, exp, bc) as a (man, exp) pair."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _mpf(pair):
    """A (man, exp) pair as an mpf tuple, its mantissa odd as libmp keeps it."""
    man, exp = pair
    if not man:
        return fzero
    zeros = _twos(man)
    man = abs(man) >> zeros
    return int(pair[0] < 0), man, exp + zeros, man.bit_length()


def _make_mpc(z):
    return mp.make_mpc(tuple(map(_mpf, z)))


def _horner_mp(coeffs_mp, z):
    """acc*z + c over mpf coefficients at the mpc z, from acc = 0, at the
    context precision: the pairs of what mpc arithmetic gives."""
    return _horner([_pair(c._mpf_) for c in coeffs_mp], tuple(map(_pair, z._mpc_)), mp.mp.prec)


def _cabs(z, prec):
    """|z| as an mpf tuple, by libmp's mpc_abs as abs(mpc) computes it."""
    re, im = z
    return mpc_abs((_mpf(re), _mpf(im)), prec, round_nearest)


def _below(z, e, prec):
    """Whether abs(z), as mpc_abs rounds it to prec bits, is below 2**e.

    mpc_abs is the square root of h = re^2 + im^2, with h rounded toward
    zero to prec + 4 bits (mpf_hypot; _add rounds that sum as mpf_add does)
    and the root correctly rounded to nearest.  That is below 2^e exactly
    when h is below (2^e - 2^(e-prec-1))^2, since the midpoint rounds up to
    2^e, and on h's grid that is h <= 2^(2e) - 2^(2e-prec).  With a part
    0, mpc_abs is the other part's modulus rounded to prec bits; z's parts
    have prec bits, so the same test decides that case.
    """
    (am, ae), (bm, be) = z
    hm, he = _add(am * am, 2 * ae, bm * bm, 2 * be, prec + 4, True)
    n = hm.bit_length()
    if not hm or n + he < 2 * e:  # h < 2^(2e-1)
        return True
    if n + he > 2 * e:  # h >= 2^(2e)
        return False
    return hm << prec <= ((1 << prec) - 1) << n


def _aberth_pass(coeffs_mp, dcoeffs_mp, zs, iterations, tol):
    """Aberth-Ehrlich sweeps from the mpc starts zs; returns the new mpc list.

    1/(z_i - z_j) is computed once per pair and sweep and negated for
    (j, i), which round-to-nearest makes exact.  A start with f'(z_i) = 0
    is moved by tol, and its pairs are then computed again from the moved
    z_i.  The sweeps stop once every step is below tol, a power of two, as
    abs(mpc) would compare it (_below); nothing in a sweep goes through
    libmp.
    """
    prec = mp.mp.prec
    coeffs = [_pair(c._mpf_) for c in coeffs_mp]
    dcoeffs = [_pair(c._mpf_) for c in dcoeffs_mp]
    zs = [tuple(map(_pair, z._mpc_)) for z in zs]
    sign, man, e, _ = tol._mpf_
    if sign or man != 1:
        raise ValueError("the Aberth tolerance must be a power of two")
    bump = (1, e)
    m = len(zs)
    for _ in range(iterations):
        inv = [[None] * m for _ in range(m)]
        corrections = []
        for i in range(m):
            zi = zs[i]
            pz = _horner(coeffs, zi, prec)
            dpz = _horner(dcoeffs, zi, prec)
            bumped = dpz == _CZERO
            if bumped:
                zs[i] = zi = (_add(*zi[0], *bump, prec), zi[1])
                dpz = _horner(dcoeffs, zi, prec)
            w = _cdiv(pz, dpz, prec)
            row, s = inv[i], _CZERO
            for j in range(m):
                if j == i:
                    continue
                r = row[j]
                if r is None or bumped:
                    r = _cinv(_csub(zi, zs[j], prec), prec)
                    (rm, re), (qm, qe) = r
                    inv[j][i] = (-rm, re), (-qm, qe)
                s = _cadd(s, r, prec)
            denom = _csub(_CONE, _cmul(w, s, prec), prec)
            corrections.append(w if denom == _CZERO else _cdiv(w, denom, prec))
        for i in range(m):
            zs[i] = _csub(zs[i], corrections[i], prec)
        if all(_below(c, e, prec) for c in corrections):
            break
    return [_make_mpc(z) for z in zs]


def _residual_radius(coeffs_mp, dcoeffs_mp, z, m):
    prec = mp.mp.prec
    dpz = _horner_mp(dcoeffs_mp, z)
    if dpz == _CZERO:
        return mp.inf
    # |f(z)| cannot be trusted below the Horner roundoff at working precision;
    # fold that floor in so the radius never understates the uncertainty.
    az = abs(z)
    noise = mp.mpf(0)
    for c in coeffs_mp:
        noise = noise * az + abs(c)
    noise *= (m + 2) * mp.mpf(2) ** (4 - mp.mp.prec)
    pz = _horner_mp(coeffs_mp, z)
    return m * (mp.make_mpf(_cabs(pz, prec)) + noise) / mp.make_mpf(_cabs(dpz, prec))


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
    """The estimates as a tuple in descending modulus, then descending real,
    then descending imaginary part; a root's index is its position here."""
    return tuple(sorted(estimates, key=cmp_to_key(_compare_estimates)))


def _horner_float(coeffs, z):
    acc = 0
    for c in coeffs:
        acc = acc * z + c
    return acc


@lru_cache(maxsize=128)
def float_start(f: Polynomial):
    """f's m roots by Aberth in Python complex, a start for all_roots, or None.

    A non-squarefree f is refused first, as all_roots refuses it, so that
    refusal costs no float work.  The sweeps start from all_roots' circle
    and stop after 60 + 6m, or once no step moves a point by more than a
    few units in its last place.  The points are kept only when they are
    finite and their disks m (|f(z)| + noise) / |f'(z)|, noise being
    _residual_radius's floor at 53 bits, are pairwise disjoint: the
    doubles have told every root apart.  Otherwise, or when a coefficient
    overflows a double, the result is None and all_roots starts from its
    circle.  In a cluster that doubles do not split, the points can sit on
    an axis of symmetry of f that Aberth never leaves, as they do for
    (t - 1)(t - 1 - 2^-32).  The start changes how many sweeps all_roots
    takes, never what it certifies.
    """
    _require_squarefree(f)
    m = f.degree
    try:
        coeffs = [float(c) for c in f.monic_coefficients()]
        dcoeffs = derivative(coeffs)
        radius = float(root_bound(f))
        zs = [radius * (1 + t / (8 * m)) * cmath.exp(1j * (2 * pi * t / m + 7 / 20))
              for t in range(m)]
        for _ in range(60 + 6 * m):
            moved = False
            for i, z in enumerate(zs):
                w = _horner_float(coeffs, z) / _horner_float(dcoeffs, z)
                s = sum(1 / (z - zj) for j, zj in enumerate(zs) if j != i)
                step = w / (1 - w * s)
                zs[i] = z - step
                moved = moved or abs(step) > 2.0**-50 * abs(z)
            if not moved:
                break
        sizes = [abs(c) for c in coeffs]
        radii = []
        for z in zs:
            noise = (m + 2) * 2.0**-49 * _horner_float(sizes, abs(z))
            radii.append(m * (abs(_horner_float(coeffs, z)) + noise) / abs(_horner_float(dcoeffs, z)))
    except (ZeroDivisionError, OverflowError):  # a zero divisor, or a value past a double
        return None
    if all(map(cmath.isfinite, zs)) and all(
        abs(zs[i] - zs[j]) > radii[i] + radii[j] for i in range(m) for j in range(i)
    ):
        return tuple(zs)
    return None


def all_roots(f: Polynomial, precision_bits=DEFAULT_PRECISION, start=None) -> RootSet:
    """All m roots with residual inclusion radii below 2**(-precision_bits/2).

    Aberth starts from the m approximations in start (a tuple, such as the
    centres of an earlier all_roots call at a lower precision), or from a
    circle of radius root_bound(f) when start is None.  Working precision
    doubles, each round continuing from the last round's approximations,
    until the radii pass the threshold, the inclusion disks are pairwise
    disjoint, and the number of real candidates agrees with the exact Sturm
    count; past CEILING_FACTOR times the first working precision the roots
    are refused (RootSeparationError).  The start changes only how many
    sweeps that takes, never what is certified.  precision_bits above
    MAX_PRECISION is refused (UsageError) before any root work.
    """
    return _all_roots_cached(f, _require_precision(precision_bits), start)


@lru_cache(maxsize=128)
def _all_roots_cached(f, precision_bits, start):
    m = f.degree
    if m == 1:
        est = RootEstimate(rational(f.u[0]), rational(0), True)
        return RootSet((est,), work_prec=precision_bits)

    real_count = count_real_roots(f)  # refuses a non-squarefree f
    work = max(precision_bits + 64, 128)
    ceiling = work * CEILING_FACTOR
    coeffs_exact = f.monic_coefficients()
    zs = start
    while work <= ceiling:
        with mp.workprec(work):
            target = mp.mpf(2) ** (-(precision_bits // 2))
            coeffs_mp = [to_mpf(c, mp) for c in coeffs_exact]
            dcoeffs_mp = [to_mpf(c, mp) for c in derivative(coeffs_exact)]
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
                return RootSet(sort_canonically(estimates), work_prec=work)
        work *= 2
    raise RootSeparationError(
        f"could not separate roots of {_size(f)} below 2^-{precision_bits // 2} "
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
