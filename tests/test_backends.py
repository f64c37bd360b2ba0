import pytest
from hypothesis import given, strategies as st

from repapprox.backends import (
    decimal_digit_count,
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
    # backend choice happens at import, so exercise it in a fresh interpreter;
    # it imports the package from wherever this process found it
    import os
    import subprocess
    import sys

    import repapprox

    src = os.path.dirname(os.path.dirname(os.path.abspath(repapprox.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _FALLBACK_SNIPPET],
        env={**os.environ, "PYTHONPATH": path, "REPAPPROX_BACKEND": "python"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback ok" in result.stdout
