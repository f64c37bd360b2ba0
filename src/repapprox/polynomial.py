"""Monic polynomials f(t) = t^m - u_1 t^(m-1) - u_2 t^(m-2) - ... - u_m.

The u-vector is the canonical storage (every downstream formula is written in
terms of it); the full monic coefficient list is an input/output view.  All
coefficient arithmetic is exact.

The functions below are the package's one polynomial arithmetic, on int
coefficient tuples, highest degree first (``integer_forms`` gives L f, L f',
L f'' for L the lcm of f's denominators).  ``remainder_sequence`` (Cohen,
*A Course in Computational Algebraic Number Theory*, 1993, section 3.3)
serves as Sturm chain and as every exact gcd over Q; ``resultant`` is the
Sylvester determinant by Bareiss's fraction-free elimination (Math. Comp.
22, 1968).
"""

from math import gcd, lcm

from .backends import as_int_pair, parse_rational, rational
from .errors import UsageError


class Polynomial:
    """Immutable monic polynomial in the u-coefficient convention."""

    __slots__ = ("u",)

    def __init__(self, u):
        u = tuple(rational(c) for c in u)
        if not u:
            raise UsageError("polynomial needs at least one u coefficient (degree >= 1)")
        object.__setattr__(self, "u", u)

    @property
    def degree(self):
        return len(self.u)

    @classmethod
    def from_monic_coefficients(cls, coeffs):
        """Build from the full coefficient list, highest degree first."""
        coeffs = tuple(rational(c) for c in coeffs)
        if len(coeffs) < 2:
            raise UsageError("coefficient list must cover degree >= 1")
        if coeffs[0] != 1:
            raise UsageError(f"leading coefficient must be 1, got {coeffs[0]}")
        return cls(tuple(-c for c in coeffs[1:]))

    def monic_coefficients(self):
        """Full coefficient list (1, -u_1, ..., -u_m), highest degree first."""
        return (rational(1),) + tuple(-c for c in self.u)

    def integer_forms(self):
        """(L f, L f', L f'') as int coefficient tuples, highest degree first.

        L is the lcm of the coefficients' denominators, so every form is
        integral; with homogeneous_eval they give L q^(m-d) f^(d)(p/q) for
        x = p/q without building a rational.
        """
        forms = [integer_multiple(self.monic_coefficients())]
        for _ in range(2):
            forms.append(derivative(forms[-1]))
        return tuple(forms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.u == other.u

    def __hash__(self):
        return hash(self.u)

    def __repr__(self):
        return f"Polynomial(u={self.u!r})"


def integer_multiple(coeffs):
    """The rational coefficients times the lcm of their denominators, as ints."""
    pairs = [as_int_pair(c) for c in coeffs]
    scale = lcm(*(d for _, d in pairs))
    return tuple(n * (scale // d) for n, d in pairs)


def homogeneous_eval(coeffs, p, q):
    """sum c_i p^(k-i) q^i for int coefficients c_0..c_k, highest degree first.

    This is q^k c(p/q), computed by Horner on ints: no gcd is taken, so it
    is the cheap way to read the sign of, or test for zero, a polynomial at
    a rational with a huge denominator.  The empty form is 0.
    """
    if not coeffs:
        return 0
    acc, q_i = coeffs[0], 1
    for c in coeffs[1:]:
        q_i *= q
        acc = acc * p + c * q_i
    return acc


def trim(coeffs):
    """The tuple without its leading zeros; the zero polynomial is ()."""
    for i, c in enumerate(coeffs):
        if c:
            return tuple(coeffs[i:])
    return ()


def derivative(coeffs):
    """The derivative's coefficients (int or rational); a constant's is ()."""
    deg = len(coeffs) - 1
    return tuple(c * (deg - i) for i, c in enumerate(coeffs[:-1]))


def product(*factors):
    """Coefficients of the product of int polynomials; an empty factor gives ()."""
    out = (1,)
    for b in factors:
        if not b:
            return ()
        prod = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = tuple(prod)
    return out


def difference(a, b):
    """Coefficients of a - b, the shorter operand padded with leading zeros."""
    n = max(len(a), len(b))
    a, b = (0,) * (n - len(a)) + tuple(a), (0,) * (n - len(b)) + tuple(b)
    return tuple(x - y for x, y in zip(a, b))


def resultant(a, b):
    """Res(a, b) of nonempty int coefficient tuples of declared degrees len - 1.

    Leading zeros count in the declared degree, as in ``pseudo_remainder``,
    so a and b may be binary forms: their resultant vanishes exactly when
    they share a projective root, (1 : 0) when both lead with 0.  It is the
    determinant of the Sylvester matrix, by Bareiss elimination: every
    division is exact, so entries stay minors of the matrix.
    """
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    if not n:
        return 1
    rows = [[0] * i + list(a) + [0] * (db - 1 - i) for i in range(db)]
    rows += [[0] * i + list(b) + [0] * (da - 1 - i) for i in range(da)]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (top[k] * row[j] - lead * top[j]) // prev
        prev = top[k]
    return sign * rows[-1][-1]


def sign_at(coeffs, t):
    """Sign (-1, 0 or 1) of an int polynomial at a rational t."""
    v = homogeneous_eval(coeffs, *as_int_pair(t))
    return (v > 0) - (v < 0)


def primitive(coeffs):
    """A nonzero int polynomial divided by its positive content.

    A constant becomes its sign, with no gcd taken and no division made.
    """
    if len(coeffs) == 1:
        return ((coeffs[0] > 0) - (coeffs[0] < 0),)
    g = gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def pseudo_remainder(a, b):
    """Trimmed r = |lc b|^(deg a - deg b + 1) a - q b, deg r < deg b (r = a if deg a < deg b).

    b is trimmed and nonzero.  Leading zeros of a count in deg a, so inputs
    padded to one length share one positive scale.  A linear b0 t + b1
    leaves |b0|^deg a a(-b1/b0): one homogeneous_eval, no division.
    """
    if len(a) < len(b):
        return trim(a)
    lb, sign = abs(b[0]), 1 if b[0] > 0 else -1
    if len(b) == 2:
        return trim((homogeneous_eval(a, -b[1] * sign, lb),))
    a = list(a)
    while len(a) >= len(b):
        lead = a[0] * sign
        a = [lb * x - lead * y for x, y in zip(a, b + (0,) * (len(a) - len(b)))]
        a.pop(0)
    return trim(a)


def remainder_sequence(a, b):
    """a, b, then the primitive part of minus the pseudo-remainder of the last two.

    Each entry is a positive multiple of the classical one over Q, so with
    b = a' this is a's Sturm chain.  The last entry is gcd(a, b) up to a
    constant (a itself if b = 0); a constant entry is only its sign.
    """
    seq = [trim(a)]
    b = trim(b)
    if b:
        seq.append(b)
    while len(seq) > 1 and len(seq[-1]) > 1:
        rem = pseudo_remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(primitive(tuple(-c for c in rem)))
    return tuple(seq)


def parse_polynomial(text):
    """Parse a polynomial description string.

    ``u:u1,...,um`` gives the u-vector directly; ``c:cm,...,c1,c0`` gives the
    full monic coefficient list highest degree first (leading 1 required).  A
    bare list is read as a monic coefficient list.
    """
    s = text.strip()
    if s.startswith("u:"):
        return Polynomial(parse_rational(p) for p in _split(s[2:]))
    if s.startswith("c:"):
        s = s[2:]
    return Polynomial.from_monic_coefficients([parse_rational(p) for p in _split(s)])


def _split(body):
    parts = body.split(",")
    if any(not p.strip() for p in parts):
        raise UsageError(f"malformed coefficient list: {body!r}")
    return parts
