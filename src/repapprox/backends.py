"""Exact-rational arithmetic backend and number formatting.

Every exact rational the package stores or returns is made by
``rational()``: polynomial and weight coefficients, matrix entries, sequence
values and errors, enclosure ends.  That is the stdlib
``fractions.Fraction``; ``BACKEND`` names it for benchmark records.  Four
loops run on plain ints instead and make a rational only of their result:
the matrix power kernel of ``regrep``, the iterative step kernels, root
refinement and the polynomial algebra of ``polynomial`` (Sturm chains,
remainders and gcds).  The step kernels reduce their result themselves and
wrap it with ``coprime_rational``, which takes no second gcd.  The power
kernel also runs, unchanged, on integer-valued Decimals under
``exact_decimal``: an integral ``M^n`` that is printed is taken that way
from the start, and its entries print by str() with no conversion at all.

CPython before 3.12 converts an int to decimal in time quadratic in its
length.  ``to_decimal`` converts in subquadratic time: it splits n at a
power-of-two bit position and recombines the halves in the C ``decimal``
module, whose multiplication is subquadratic (Brent & Zimmermann, *Modern
Computer Arithmetic*, 2010, section 1.7; the method of CPython 3.12's
``Lib/_pylong.py``).  Every other integer the package prints goes through
``decimal_str``, which equals ``str(n)`` and uses ``to_decimal`` above
``_STR_CUTOFF_BITS``.
"""

import decimal
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import UsageError

# Huge integers show up legitimately (Table-6 style denominators); lift the
# int->str guard far beyond anything the package produces under its budgets.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(20_000_000)

BACKEND = "fraction"


def rational(num, den=1):
    """Exact rational, reduced, positive denominator."""
    return Fraction(num, den)


def decimal_rational(text):
    """Exact rational value of a decimal literal such as '-2.8e-20', as mp.nstr prints."""
    return Fraction(text)


def coprime_rational(num, den):
    """num/den for ints already in lowest terms with den > 0, taking no gcd.

    For a pair reduced by other means (``iterative``'s resultant bound); the
    normalising constructor would run a full gcd again.
    """
    return Fraction(num, den, _normalize=False)


if hasattr(Fraction, "_from_coprime_ints"):  # CPython 3.12 dropped _normalize
    coprime_rational = Fraction._from_coprime_ints


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


# Measured on CPython 3.11 (2 CPUs): below 2**15 bits (about 9.9k digits)
# the split runs at 0.97-1.05x the speed of str(n), so str(n) is kept
# there; above it the split wins, 1.5x at 10k digits, 2.3x at 25k and
# 10x at 200k.  Leaves of 1024, 2048 or 4096 bits time the same.
_STR_CUTOFF_BITS = 1 << 15
_LEAF_BITS = 2048
# Every arithmetic step in _to_decimal is exact; Inexact would mean a bug.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)
# k -> Decimal(2 ** 2 ** k): one entry per split width, so at most
# log2(bits) entries for the largest integer ever printed.
_POW2 = {}


def _pow2(k):
    p = _POW2.get(k)
    if p is None:
        w = 1 << k
        if w <= _LEAF_BITS:
            p = decimal.Decimal(1 << w)
        else:
            p = _EXACT.multiply(_pow2(k - 1), _pow2(k - 1))
        _POW2[k] = p
    return p


def _to_decimal(n):
    """Decimal(n) for an int n >= 0, by recursive splitting.

    n = hi * 2**w + lo with w = 2**k the power of two nearest half of n's
    bit length, so each half holds a third to two thirds of the bits.
    """
    b = n.bit_length()
    if b <= _LEAF_BITS:
        return decimal.Decimal(n)
    k = (b // 2).bit_length() - 1  # 2**k <= b/2 < 2**(k+1)
    if 3 << k < b:  # b/2 is nearer 2**(k+1)
        k += 1
    hi = n >> (1 << k)
    lo = n - (hi << (1 << k))
    return _EXACT.add(_EXACT.multiply(_to_decimal(hi), _pow2(k)), _to_decimal(lo))


def to_decimal(n):
    """Decimal(n) for an int n, exactly and in subquadratic time.

    str() of the result is str(n), in time linear in its length.
    """
    d = _to_decimal(abs(n))
    return d.copy_negate() if n < 0 else d


def exact_decimal():
    """A context in which Decimal arithmetic on integers is exact; Inexact raises."""
    return decimal.localcontext(_EXACT)


def decimal_str(n):
    """str(n) for an int n, in subquadratic time once n is large."""
    if n.bit_length() <= _STR_CUTOFF_BITS:
        return str(n)
    return str(to_decimal(n))  # a Decimal prints in linear time


def format_rational(x):
    """'n' or 'n/d' for a rational-like value, digits by decimal_str."""
    n, d = as_int_pair(x)
    return decimal_str(n) if d == 1 else f"{decimal_str(n)}/{decimal_str(d)}"


# log10(2) lies in [_LOG10_2, _LOG10_2 + 1] / _LOG10_2_SCALE.
_LOG10_2, _LOG10_2_SCALE = 3010299956639811952137388947244930267681, 10**40


@lru_cache(maxsize=16)
def _power_of_ten(k):
    return 10**k


def decimal_digit_count(v):
    """Number of decimal digits of |v| for a nonzero integer, without str().

    2**(b-1) <= |v| < 2**b for its bit length b, so the count lies between
    the counts of the two ends; these differ only where a power of ten lies
    between them, and only then is |v| compared with it.  The last powers
    compared with are kept in a small cache.
    """
    n = abs(as_integer(v))
    if n == 0:
        raise ValueError("digit count of zero is undefined")
    bits = n.bit_length()
    digits = 1 + (bits - 1) * _LOG10_2 // _LOG10_2_SCALE
    most = 1 + bits * (_LOG10_2 + 1) // _LOG10_2_SCALE
    while digits < most and n >= _power_of_ten(digits):
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
