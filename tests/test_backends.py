import decimal
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repapprox import backends
from repapprox.backends import (
    decimal_digit_count,
    decimal_str,
    floor_log10,
    format_rational,
    mpf_to_rational,
    parse_rational,
    parse_rational_vector,
    rational,
    sci_parts,
    sci_string,
)
from repapprox.errors import UsageError


@pytest.mark.parametrize(
    "text,num,den",
    [("3", 3, 1), ("-2/5", -2, 5), ("+7/14", 1, 2), ("0", 0, 1), ("10/4", 5, 2)],
)
def test_parse_rational(text, num, den):
    v = parse_rational(text)
    assert (v.numerator, v.denominator) == (num, den)


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/0", "2/", "/3", "1//2", "- 2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(UsageError):
        parse_rational(bad)


def test_parse_vector():
    assert parse_rational_vector("1,-1/2,0") == (rational(1), rational(-1, 2), rational(0))
    with pytest.raises(UsageError):
        parse_rational_vector("1,,2")


def test_format_rational():
    assert format_rational(rational(-3, 7)) == "-3/7"
    assert format_rational(rational(4)) == "4"


def test_format_rational_both_parts_above_cutoff():
    p, q = 3**30_000, 2**40_000 + 1  # coprime: q = 2 mod 3
    assert min(p.bit_length(), q.bit_length()) > backends._STR_CUTOFF_BITS
    assert format_rational(rational(p, q)) == f"{p}/{q}"
    assert format_rational(rational(-p, q)) == f"-{p}/{q}"


def _random_int(bits, seed, negative):
    """A random int of exactly `bits` bits."""
    n = random.Random(seed).getrandbits(bits) | 1 << bits >> 1
    return -n if negative else n


CUT, LEAF = backends._STR_CUTOFF_BITS, backends._LEAF_BITS


@given(st.builds(_random_int, st.integers(0, 90_000), st.integers(0, 2**32), st.booleans()))
@settings(max_examples=60, deadline=None)
@example(0)
@example(2**LEAF - 1)
@example(2**LEAF)
@example(-(2**LEAF + 1))
@example(2**CUT - 1)
@example(-(2**CUT))
@example(2**CUT + 1)
@example(2 ** (2 * CUT) - 1)  # every split piece is all ones
@example(10**9864)  # just below 2**CUT
@example(-(10**9865))  # just above
@example(10**20_000 - 1)
def test_decimal_str_equals_str(n):
    assert decimal_str(n) == str(n)
    # the split path on its own, below the cutoff too, so that the leaf
    # boundaries are crossed at every size
    assert str(backends._to_decimal(abs(n))) == str(abs(n))


def _parse(s):
    """int(s) by halving the string: an oracle independent of str(int)."""
    if len(s) <= 2000:
        return int(s)
    k = len(s) // 2
    return _parse(s[:-k]) * 10**k + _parse(s[-k:])


# Drawn as (bits, seed, sign) so that no example is printed whole.
@given(st.integers(90_000, 3_321_929), st.integers(0, 2**32), st.booleans())  # to 10**6 digits
@settings(max_examples=4, deadline=None)
@example(3_321_929, 0, True)
def test_decimal_str_equals_str_up_to_a_million_digits(bits, seed, negative):
    # str(n) itself takes about 20 s at 10**6 digits on CPython 3.11; a
    # canonical decimal string that parses back to n is the string str(n).
    n = _random_int(bits, seed, negative)
    s = decimal_str(n)
    digits = s[1:] if negative else s
    assert digits.isdigit() and digits[0] != "0"
    parses_back = _parse(digits) == abs(n)  # no assertion repr of n: that is str(n)
    assert parses_back


@pytest.mark.parametrize("k", [9864, 9865, 123_457, 10**6])
def test_decimal_str_powers_of_ten(k):
    assert decimal_str(10**k) == "1" + "0" * k
    assert decimal_str(-(10**k)) == "-1" + "0" * k
    assert decimal_str(10**k - 1) == "9" * k


def test_power_cache_stays_logarithmic(monkeypatch):
    monkeypatch.setattr(backends, "_POW2", {})
    rng = random.Random(7)
    top = 600_000
    for bits in range(CUT + 1, top, 14_983):  # 38 different sizes
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert decimal_str(n)[-6:] == str(n % 10**6).zfill(6)
    # one entry per split width 2**k, each between LEAF/4 and the largest size
    assert all(LEAF // 4 < 1 << k < top for k in backends._POW2)
    assert len(backends._POW2) <= top.bit_length() - LEAF.bit_length() + 2


@pytest.mark.parametrize(
    "n,digits", [(999, 3), (-1000, 4), (1, 1), (10**50, 51), (10**50 - 1, 50)]
)
def test_digit_count(n, digits):
    assert decimal_digit_count(n) == digits


def test_digit_count_zero_rejected():
    with pytest.raises(ValueError):
        decimal_digit_count(0)


def test_digit_count_non_integer_rejected():
    with pytest.raises(ValueError):
        decimal_digit_count(rational(1, 2))


@given(st.integers(min_value=1, max_value=10**40))
def test_digit_count_matches_str(n):
    assert decimal_digit_count(n) == len(str(n))


def test_digit_count_next_to_powers_of_ten():
    # 10**k - 1, 10**k and 10**k + 1 share a bit length, whose range holds
    # 10**k: each count is decided by comparing with 10**k, the second time
    # with the 10**k from the cache.
    for _ in range(2):
        for k in [*range(1, 300), 1233, 4000, 28_000, 61_916]:
            for n, digits in ((10**k - 1, k), (10**k, k + 1), (10**k + 1, k + 1)):
                assert decimal_digit_count(n) == decimal_digit_count(-n) == digits
                if k < 300:
                    assert digits == len(str(n))
    assert backends._power_of_ten.cache_info().maxsize == 16


def test_log10_2_bounds():
    # The decimal module's log10(2), good to 60 digits, lies strictly between
    # the bounds, which are 10**-40 apart.
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        scaled = decimal.Decimal(2).log10() * backends._LOG10_2_SCALE
    assert backends._LOG10_2 < scaled < backends._LOG10_2 + 1


@pytest.mark.parametrize(
    "num,den,expect",
    [(1, 1, 0), (9, 1, 0), (10, 1, 1), (1, 10, -1), (1, 3, -1), (7, 2, 0), (99, 10, 0)],
)
def test_floor_log10(num, den, expect):
    assert floor_log10(rational(num, den)) == expect


@pytest.mark.parametrize(
    "num,den,sig,expect",
    [
        (44, 10**46, 2, "4.4e-45"),
        (799, 10**7, 2, "8.0e-5"),
        (1685, 10**763, 1, "2e-760"),
        (995, 100, 2, "1.0e1"),  # carry: 9.95 rounds up to 10
        (25, 1000, 1, "2e-2"),  # half-even: 2.5 -> 2
        (35, 1000, 1, "4e-2"),  # half-even: 3.5 -> 4
        (-123, 1, 2, "-1.2e2"),
        (0, 1, 3, "0"),
    ],
)
def test_sci_string(num, den, sig, expect):
    assert sci_string(rational(num, den), sig) == expect


@given(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=1, max_value=6),
)
def test_sci_parts_bounds(num, den, sig):
    mant, e = sci_parts(rational(num, den), sig)
    assert 10 ** (sig - 1) <= mant < 10**sig
    # the rounded value is within one ulp of the true one
    v = rational(num, den)
    ulp = rational(10) ** (e - sig + 1)
    assert abs(v - mant * ulp) <= ulp


def test_mpf_roundtrip():
    import mpmath as mp

    assert mpf_to_rational(mp.mpf(0)) == 0
    assert mpf_to_rational(mp.mpf(-5.25)) == rational(-21, 4)
    with pytest.raises(ValueError):
        mpf_to_rational(mp.inf)


_FALLBACK_SNIPPET = """
import repapprox as ra
from repapprox.backends import BACKEND, rational, sci_string
assert BACKEND == "fraction", BACKEND
from fractions import Fraction
assert isinstance(rational(1, 2), Fraction)
f = ra.parse_polynomial("c:1,1,-2,-1")
m = ra.build(f, (0, -1, 1))
(rec,) = ra.ratio_sequence(m, (2, 1), (3, 1), -1, (5,))
assert sci_string(rec.abs_error, 1) == "8e-5", sci_string(rec.abs_error, 1)
assert rec.den_digits == 3
print("fallback ok")
"""


def test_stdlib_fraction_fallback():
    # exercise the backend in a fresh interpreter, which imports the package
    # from wherever this process found it
    import os
    import subprocess
    import sys

    import repapprox

    src = os.path.dirname(os.path.dirname(os.path.abspath(repapprox.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _FALLBACK_SNIPPET],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback ok" in result.stdout
