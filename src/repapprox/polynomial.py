"""Monic polynomials f(t) = t^m - u_1 t^(m-1) - u_2 t^(m-2) - ... - u_m.

The u-vector is the canonical storage (every downstream formula is written in
terms of it); the full monic coefficient list is an input/output view.  All
coefficient arithmetic is exact.
"""

from .backends import parse_rational, rational
from .errors import DomainError, UsageError


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

    def reflect(self):
        """Monic polynomial whose roots are the reciprocals of this one's.

        Coefficients reverse and renormalize; requires a nonzero constant
        term (zero must not be a root).
        """
        if self.u[-1] == 0:
            raise DomainError("cannot reflect: constant term is zero (0 is a root)")
        rev = tuple(reversed(self.monic_coefficients()))
        lead = rev[0]
        return Polynomial.from_monic_coefficients(tuple(c / lead for c in rev))

    def shift(self, c):
        """Monic g with g(t) = f(t - c), i.e. roots moved by +c.

        Computed by repeated synthetic division at -c (Taylor shift), which
        keeps the big-integer multiplication count low.
        """
        c = rational(c)
        coeffs = list(self.monic_coefficients())
        m = len(coeffs) - 1
        # After pass k, coeffs[m-k:] holds the expansion coefficients b_0..b_k
        # of f(t) = sum b_k (t + c)^k; those are the coefficients of f(t - c).
        for k in range(m):
            for i in range(1, m + 1 - k):
                coeffs[i] += -c * coeffs[i - 1]
        return Polynomial.from_monic_coefficients(coeffs)

    def companion(self):
        """Companion matrix rows: 1s on the subdiagonal, last column u_m ... u_1."""
        m = self.degree
        zero = rational(0)
        entries = [[zero] * m for _ in range(m)]
        for i in range(1, m):
            entries[i][i - 1] = rational(1)
        for i in range(m):
            entries[i][m - 1] = self.u[m - 1 - i]
        return tuple(tuple(row) for row in entries)

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
