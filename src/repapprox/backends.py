"""Exact-rational arithmetic backend and number formatting.

All exact arithmetic in this package goes through ``rational()``.  When gmpy2
is importable (and not disabled via ``REPAPPROX_BACKEND=python``) the backend
is GMP's ``mpq``/``mpz``, which keeps the deep matrix powers and the huge
iterative-method denominators fast; otherwise the stdlib ``fractions.Fraction``
is used.  Both types share the operator protocol, so everything downstream is
backend-agnostic.
"""

import os
import sys
from fractions import Fraction

from .errors import UsageError

# Huge integers show up legitimately (Table-6 style denominators); lift the
# int->str guard far beyond anything the package produces under its budgets.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(20_000_000)

_requested = os.environ.get("REPAPPROX_BACKEND", "auto").lower()

if _requested in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as _mpq  # type: ignore

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise UsageError("REPAPPROX_BACKEND=gmpy2 requested but gmpy2 is not installed")
        BACKEND = "fraction"
elif _requested in ("python", "fraction", "stdlib"):
    BACKEND = "fraction"
else:
    raise UsageError(f"unknown REPAPPROX_BACKEND value: {_requested!r}")


if BACKEND == "gmpy2":

    def rational(num, den=1):
        """Exact rational, reduced, positive denominator."""
        return _mpq(num, den)

else:

    def rational(num, den=1):
        """Exact rational, reduced, positive denominator."""
        return Fraction(num, den)


def as_int_pair(x):
    """(numerator, denominator) of a rational-like value as plain ints."""
    if isinstance(x, int):
        return x, 1
    return int(x.numerator), int(x.denominator)


def as_integer(x):
    """The value as a plain int; raises if it is not integral."""
    n, d = as_int_pair(x)
    if d != 1:
        raise ValueError(f"{x!r} is not an integer")
    return n


def parse_rational(text):
    """Parse 'p', '-p', or 'p/q' into an exact rational.

    This is the only accepted literal syntax (decimal points are rejected so
    that nothing silently rounds).
    """
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num_s, sep, den_s = body.partition("/")
    if not num_s.isdigit() or (sep and not den_s.isdigit()):
        raise UsageError(f"malformed rational literal: {text!r}")
    num = int(s[: len(s) - len(body)] + num_s)
    if sep:
        den = int(den_s)
        if den == 0:
            raise UsageError(f"zero denominator in rational literal: {text!r}")
        return rational(num, den)
    return rational(num)


def parse_rational_vector(text):
    """Comma-separated rational literals -> tuple of rationals."""
    items = [p for p in text.split(",")]
    if not items or any(not p.strip() for p in items):
        raise UsageError(f"malformed rational vector: {text!r}")
    return tuple(parse_rational(p) for p in items)


def format_rational(x):
    n, d = as_int_pair(x)
    return str(n) if d == 1 else f"{n}/{d}"


# log10(2) under-approximation used to seed digit counts; the loop below
# corrects the at-most-one-off estimate exactly.
_LOG10_2_NUM, _LOG10_2_DEN = 643, 2136


def decimal_digit_count(v):
    """Number of decimal digits of |v| for a nonzero integer, without str()."""
    n = abs(as_integer(v))
    if n == 0:
        raise ValueError("digit count of zero is undefined")
    digits = 1 + (n.bit_length() - 1) * _LOG10_2_NUM // _LOG10_2_DEN
    while n >= 10**digits:
        digits += 1
    return digits


def _floor_log10(num, den):
    """floor(log10(num/den)) for positive integers num, den."""
    e = decimal_digit_count(num) - decimal_digit_count(den)
    # num/den is in [10**(e-1), 10**(e+1)); one comparison settles it.
    if e >= 0:
        return e if num >= den * 10**e else e - 1
    return e if num * 10**-e >= den else e - 1


def floor_log10(value):
    """floor(log10(|value|)) of a nonzero rational-like value, exactly."""
    num, den = as_int_pair(value)
    if num == 0:
        raise ValueError("floor_log10 of zero is undefined")
    return _floor_log10(abs(num), den)


def sci_parts(value, sig):
    """(mantissa, exponent) with `sig`-digit integer mantissa, half-even.

    value == (mantissa / 10**(sig-1)) * 10**exponent after rounding.
    Exact integer arithmetic throughout; value may be any rational-like.
    Returns (0, 0) for zero.
    """
    if sig < 1:
        raise ValueError("sig must be >= 1")
    num, den = as_int_pair(value)
    if num == 0:
        return 0, 0
    n, d = abs(num), den
    e = _floor_log10(n, d)
    shift = sig - 1 - e
    if shift >= 0:
        q, r = divmod(n * 10**shift, d)
    else:
        q, r = divmod(n, d * 10**-shift)
        d = d * 10**-shift
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    if q >= 10**sig:  # rounding carried over, e.g. 9.96 -> 10.0
        q //= 10
        e += 1
    if num < 0:
        q = -q
    return q, e


def sci_string(value, sig=2):
    """Scientific-notation string like '4.4e-45' with `sig` significant digits."""
    mant, e = sci_parts(value, sig)
    if mant == 0:
        return "0"
    s = str(abs(mant))
    sign = "-" if mant < 0 else ""
    if sig == 1:
        return f"{sign}{s}e{e}"
    return f"{sign}{s[0]}.{s[1:]}e{e}"


def to_mpf(x, ctx):
    """Convert a rational-like value to an mpf in mpmath context `ctx`."""
    n, d = as_int_pair(x)
    return ctx.mpf(n) / d if d != 1 else ctx.mpf(n)


def mpf_to_rational(x):
    """Exact rational value of a finite mpmath mpf."""
    sign, man, exp, _ = x._mpf_  # mpmath's raw (sign, mantissa, exponent, bits)
    if man == 0:
        if x == 0:
            return rational(0)
        raise ValueError(f"cannot convert non-finite value {x!r}")
    v = rational(man << exp) if exp >= 0 else rational(man, 1 << -exp)
    return -v if sign else v
