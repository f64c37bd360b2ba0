"""Regular-representation matrices M(x, u) and exact arithmetic in Q[t]/(f).

M represents multiplication by g = x_0 + x_1*a + ... + x_{m-1}*a^(m-1) on the
power basis of Q[t]/(f), where a is a root of f.  So M^n is the matrix of
g^n, and column j of the matrix of any element c holds the coordinates of
a^j * c.  This module owns the one exact kernel built on that fact:
``multiply`` and ``power`` work on coordinate vectors over either of two
rings, Python ints or integer-valued Decimals under
``backends.exact_decimal()``, with the same code: they use only +, -, *,
exact // by small ints, truth tests and comparisons.  An integral power
that is to be printed is taken over Decimals from the start, so its
digits come out by str() with no int-to-decimal conversion, and libmpdec
multiplies large operands by number-theoretic transform.  ``matrix_of``
materializes a matrix from coordinates by shift-and-reduce over any ring
(ints for powers, exact Decimals for printing them).

``power`` walks the bits of n from the top: it squares the accumulator
and, on each set bit, multiplies it by the base itself, which over the
integral generator has small coordinates, so that product takes linear
time.  A square of degree m >= 3 with a coordinate of more than
``_SQUARE_CUTOFF_BITS`` (3072 bits, measured where the two methods break
even) is taken by evaluation at the 2m-1 points 0, +-1, ..., +-(m-1),
2m-1 squarings, and interpolation with exact divisions by small ints;
smaller squares, and every square for m <= 2, are schoolbook.  Either way
the result is the same exact numbers.

Rational f and x reach the int kernel through ``integral_element``
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993, section
4.2): over b = L*a, with L the lcm of the denominators of f's u-vector, b
is a root of the monic int polynomial with u-vector u_s L^s, and d*g has
int b-coordinates z for one common denominator d.  With Z the int matrix
of the b-coordinates of (d g)^n, entry (i, j) of M^n (0-based) is
Z[i][j] L^(i-j) / d^n (``scaled_entries``).

``build`` holds M as the element it represents: f, x and x's
``integral_element``, taken once.  M's entries are those of
``powers.mat_pow(M, 1)``, read off g like every other power.  The sum of
companion-matrix powers, the multinomial entry expansion and the closed
3x3 cubic form are the independent references the tests compare them
against (tests/dense.py).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .backends import as_int_pair, as_integer, rational
from .errors import UsageError
from .polynomial import Polynomial


@dataclass(frozen=True)
class Weights:
    """Coordinates (x_0, ..., x_{m-1}) of an element of Q[t]/(f)."""

    x: tuple

    def __init__(self, x):
        x = tuple(rational(c) for c in x)
        if not x:
            raise UsageError("weights must be nonempty")
        if all(c == 0 for c in x):
            raise UsageError("weights must not all be zero")
        object.__setattr__(self, "x", x)

    def __len__(self):
        return len(self.x)

    def __iter__(self):
        return iter(self.x)


@dataclass(frozen=True)
class RegRepMatrix:
    """M(x, u), held as g = sum x_i a^i: M^n is the matrix of g^n.

    element is g's (u, L, z, d) from integral_element, the form every power
    of M is taken from; M's size is poly.degree.
    """

    weights: Weights
    poly: Polynomial
    element: tuple


def _coerce_weights(f, x):
    w = x if isinstance(x, Weights) else Weights(x)
    if len(w) != f.degree:
        raise UsageError(f"expected {f.degree} weights, got {len(w)}")
    return w


def _check_index(pair, m, label):
    """The entry index pair (i, j) of an m x m matrix as ints, refused unless 1 <= i, j <= m."""
    i, j = pair
    if not (1 <= i <= m and 1 <= j <= m):
        raise UsageError(f"{label} index {pair} out of range 1..{m}")
    return (int(i), int(j))


# Measured on CPython 3.11 (2 CPUs), multiply(u, a, a) with small u and
# random int coordinates: _square_by_interpolation breaks even with the
# schoolbook square at about 3.5-4k bits for m = 3 and 2-3k bits for
# m = 4-8.  It takes 0.6-1.0x the time at 4096 bits, 0.6-0.9x at 6144 and
# 0.3-0.6x at 65536.  On the powers of perfbench's deep_powers seeds 0
# and 1, cutoffs of 2048, 3072 and 4096 bits time the same.  Over exact
# Decimals, the `power` ops of those seeds, run in process, time within 6%
# of each other at cutoffs from 1000 to 10000 bits.
_SQUARE_CUTOFF_BITS = 3072


@lru_cache(maxsize=None)
def _square_cutoff(ring):
    """2**_SQUARE_CUTOFF_BITS in ring (int or Decimal), made on its first use.

    Comparing a Decimal with an int converts the int every time: on each
    square that took about 15% of the in-process time of deep_powers' ops.
    """
    return ring(1 << _SQUARE_CUTOFF_BITS)


def multiply(u, a, b):
    """Coordinates of a*b modulo the monic int polynomial with u-vector u.

    a and b hold ints, or integer-valued Decimals under
    ``backends.exact_decimal()``: only +, -, *, exact // by small ints,
    truth tests and comparisons touch them, so the result is in their ring.
    A square (a is b) of degree m >= 3 with a coordinate of absolute value
    at least 2**_SQUARE_CUTOFF_BITS goes through _square_by_interpolation:
    2m-1 squarings of coefficient-sized numbers instead of m(m+1)/2
    products.  Every other product is schoolbook, each cross term once
    when squaring.  Then a^k for k >= m is folded down from the top with
    a^m = u_1 a^(m-1) + ... + u_m.
    """
    m = len(u)
    if a is b and m > 2 and (
        max(a) >= (cutoff := _square_cutoff(type(a[0]))) or -min(a) >= cutoff
    ):
        prod = _square_by_interpolation(a)
    else:
        prod = [a[0] - a[0]] * (2 * m - 1)  # the ring's zero, never -0
        if a is b:
            for i, ai in enumerate(a):
                if ai:
                    prod[2 * i] += ai * ai
                    twice = ai + ai
                    for j in range(i + 1, m):
                        prod[i + j] += twice * a[j]
        else:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] += ai * bj
    terms = [(s, u_s) for s, u_s in enumerate(u) if u_s]
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for s, u_s in terms:
                prod[k - 1 - s] += c * u_s
    return tuple(prod[:m])


def _square_by_interpolation(a):
    """The 2m-1 coefficients, lowest first, of a(t)^2 for a(t) = sum a_i t^i.

    Evaluation and interpolation at t = 0, +-1, ..., +-(m-1) (Toom 1963,
    Cook 1966; Knuth, *TAOCP* vol. 2, section 4.3.3).  With
    a(t) = e(t^2) + t o(t^2) and a(t)^2 = E(t^2) + t O(t^2), the squares
    p = a(k)^2 and q = a(-k)^2 give E(k^2) = (p + q)/2 and
    O(k^2) = (p - q)/(2k), and a_0^2 = E(0).  So (E(y) - a_0^2)/y and O(y)
    are each interpolated, in degree m-2, at y = 1, 4, ..., (m-1)^2.
    Only the 2m-1 squares multiply two big numbers; the rest is additions
    and exact divisions by small ints, in the ring of a.
    """
    m = len(a)
    even, odd = a[::2][::-1], a[1::2][::-1]  # e and o, top coefficient first
    c0 = a[0] * a[0]
    ys = [k * k for k in range(1, m)]
    evens, odds = [], []
    for k, y in enumerate(ys, 1):
        e, o = even[0], odd[0]
        for c in even[1:]:
            e = e * y + c
        for c in odd[1:]:
            o = o * y + c
        o *= k
        p, q = e + o, e - o
        p, q = p * p, q * q
        evens.append(((p + q) // 2 - c0) // y)
        odds.append((p - q) // (2 * k))
    prod = [c0] * (2 * m - 1)
    prod[2::2] = _interpolate(ys, evens)
    prod[1::2] = _interpolate(ys, odds)
    return prod


def _interpolate(ys, vs):
    """Coefficients, lowest first, of the polynomial of degree < len(ys) through (ys, vs).

    Newton's divided differences, then the Newton form multiplied out.  The
    nodes ys are distinct increasing ints and the polynomial has integer
    coefficients, so every division is exact, and by a positive int: the
    j-th divided difference of y^k is the complete homogeneous symmetric
    polynomial of degree k-j in the nodes.
    """
    v = list(vs)
    r = len(v)
    for j in range(1, r):
        for i in range(r - 1, j - 1, -1):
            v[i] = (v[i] - v[i - 1]) // (ys[i] - ys[i - j])
    coeffs = [v[-1]]
    for j in range(r - 2, -1, -1):  # coeffs * (y - ys[j]) + v[j]
        y = ys[j]
        coeffs = (
            [v[j] - y * coeffs[0]]
            + [coeffs[i - 1] - y * coeffs[i] for i in range(1, len(coeffs))]
            + [coeffs[-1]]
        )
    return coeffs


def power(u, c, n):
    """Coordinates of c**n, in the ring of c (see ``multiply``); n >= 0.

    Left-to-right binary powering (Knuth, *TAOCP* vol. 2, section 4.6.3):
    walk the bits of n from the top, square the accumulator, and on each
    set bit multiply it by c itself.  When c is small, as the z of
    ``integral_element`` is, every product but the squarings is big times
    small and takes time linear in the accumulator's length.
    """
    c = tuple(c)
    if not n:
        zero = c[0] - c[0]
        return (zero + 1,) + (zero,) * (len(u) - 1)
    result = c
    for bit in bin(n)[3:]:
        result = multiply(u, result, result)
        if bit == "1":
            result = multiply(u, result, c)
    return result


def matrix_of(u, c):
    """Rows of the matrix of multiplication by c; column j is coords(a^j c).

    Each column comes from the previous one by a shift (multiplication by a)
    and one reduction of the a^m term.  Only additions and products with
    the u_s occur, so c and u may come from any ring.  The top entry is
    0 + top*u_m, not top*u_m: a Decimal zero times a negative u_m is -0,
    which would print as "-0".
    """
    m = len(u)
    col = tuple(c)
    cols = [col]
    for _ in range(m - 1):
        top = col[-1]
        col = tuple((col[i - 1] if i else 0) + top * u[m - 1 - i] for i in range(m))
        cols.append(col)
    return tuple(zip(*cols))


def integral_element(f: Polynomial, x):
    """(u, L, z, d): the element g of coordinates x as ints over b = L*a.

    L is the lcm of the denominators of f's u-vector, u_s = f.u_s * L^s is
    the u-vector of b's monic int polynomial, and z holds the int
    b-coordinates of d*g, z_i = d x_i / L^i with d the least such
    common denominator.
    """
    scale = math.lcm(*(as_int_pair(c)[1] for c in f.u))
    u = tuple(as_integer(c * scale**s) for s, c in enumerate(f.u, 1))
    coords = [rational(c) / scale**i for i, c in enumerate(x)]
    den = math.lcm(*(as_int_pair(v)[1] for v in coords))
    return u, scale, tuple(as_integer(v * den) for v in coords), den


def scaled_entries(rows, scale, den):
    """M^n from the int matrix of (d g)^n over b = L*a, for den = d^n.

    Entry (i, j) is rows[i][j] L^(i-j) / d^n: the int rows themselves when
    L = d^n = 1, else reduced rationals.
    """
    if scale == den == 1:
        return rows
    return tuple(
        tuple(rational(z * scale**i, den * scale**j) for j, z in enumerate(row))
        for i, row in enumerate(rows)
    )


def constant_ratio_families(m):
    """The (i, j, p, q) whose ratio M^n[i,j] / M^n[p,q] is 1/u_m for every n."""
    return ((m, m - 1, 1, m), (m, 1, 1, 2))


def build(f: Polynomial, x) -> RegRepMatrix:
    """M(x, u): multiplication by the element with coordinates x, held as that element."""
    w = _coerce_weights(f, x)
    return RegRepMatrix(w, f, integral_element(f, w.x))
