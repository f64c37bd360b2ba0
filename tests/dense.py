"""Dense exact-matrix oracle for the tests (tuples of tuples of rationals).

The package computes M(x, u) and its powers as element arithmetic in
Q[t]/(f); these textbook matrix operations are the independent reference
the tests compare it against.  ``elements`` draws the random inputs that
the property tests feed to both sides.  ``companion``, ``reflect`` and
``shift`` are the polynomial transforms only the tests use.
"""

from hypothesis import strategies as st

from repapprox.backends import rational
from repapprox.errors import DomainError
from repapprox.polynomial import Polynomial

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
