"""Monic polynomials f(t) = t^m - u_1 t^(m-1) - u_2 t^(m-2) - ... - u_m.

The u-vector is the canonical storage (every downstream formula is written in
terms of it); the full monic coefficient list is an input/output view.  All
coefficient arithmetic is exact.
"""

from math import lcm

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

    def eval(self, t, derivative_order=0):
        """Exact value of f, f' or f'' at rational t (Horner)."""
        if derivative_order not in (0, 1, 2):
            raise UsageError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
        coeffs = self.monic_coefficients()
        for _ in range(derivative_order):
            deg = len(coeffs) - 1
            coeffs = tuple(c * (deg - i) for i, c in enumerate(coeffs[:-1]))
            if not coeffs:
                return rational(0)
        t = rational(t)
        acc = rational(0)
        for c in coeffs:
            acc = acc * t + c
        return acc

    def integer_forms(self):
        """(L f, L f', L f'') as int coefficient tuples, highest degree first.

        L is the lcm of the coefficients' denominators, so every form is
        integral; with homogeneous_eval they give L q^(m-d) f^(d)(p/q) for
        x = p/q without building a rational.
        """
        forms = [integer_multiple(self.monic_coefficients())]
        for _ in range(2):
            deg = len(forms[-1]) - 1
            forms.append(tuple(c * (deg - i) for i, c in enumerate(forms[-1][:-1])))
        return tuple(forms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.u == other.u

    def __hash__(self):
        return hash(self.u)

    def __repr__(self):
        return f"Polynomial(u={self.u!r})"

    def __str__(self):
        terms = [f"t^{self.degree}"]
        for i, c in enumerate(self.u):
            if c == 0:
                continue
            power = self.degree - 1 - i
            mag = abs(c)
            coeff = "" if (mag == 1 and power > 0) else str(mag)
            var = "" if power == 0 else ("t" if power == 1 else f"t^{power}")
            terms.append(("- " if c > 0 else "+ ") + coeff + var)
        return " ".join(terms)


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
