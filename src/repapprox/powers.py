"""Exact matrix powers and the rational approximation sequences they yield.

M^n is the matrix of g^n, so every power here is an element power in
Q[t]/(f), taken by the one kernel ``regrep.power`` over the integral
generator that ``regrep.build`` stored in M.element.  M itself is
``mat_pow(M, 1)``, and its size m is f's degree.  Entries are read from
``regrep.matrix_of`` and ``regrep.scaled_entries``: ints for integral f
and x, and a rational only where a ratio or a non-integral entry needs one.
``mat_pow`` of an integral M takes the power over exact Decimals instead,
and its rows are what gets printed; ``MatrixPower.entries`` takes it
again over ints when read.

A sequence is defined by an entry-index pair for the numerator, one for the
denominator, and an affine offset: value(n) = M^n[num] / M^n[den] + offset.
Every sequence is one walk, ``_walk``, over increasing n: each power is
the last one times the power of the gap.  ``accelerated_sequence`` is
ratio_sequence at n = stride^k; ``constant_ratio_check`` reads both of its
families from one walk over 1..n_max.
Errors are measured exactly against one certified rational enclosure of
the limit per sequence (an exact constant, a refined real root, or rational
interval arithmetic on a root's bracket), from
``convergence.resolving_enclosure``: a value proven equal to the limit gets
error 0, and every other value lies at least 10**20 radii from the centre,
so no floating-point noise enters the reported |value - limit| numbers.
``_with_errors`` attaches them, here and in ``iterative``.
"""

from dataclasses import dataclass, replace
from decimal import Decimal
from functools import cached_property

from .backends import as_int_pair, decimal_digit_count, exact_decimal, rational
from .convergence import _limit_data, analyze, resolving_enclosure
from .errors import UsageError, ZeroDenominator
from .regrep import (
    RegRepMatrix,
    _check_index,
    constant_ratio_families,
    matrix_of,
    multiply,
    power,
    scaled_entries,
)


@dataclass(frozen=True)
class MatrixPower:
    """M^n, with rows holding its entries in the form they print in.

    integral is True when L = d^n = 1 (regrep.integral_element): rows are
    then integer-valued Decimals, built by matrix_of from the m coordinates
    of g^n in exact Decimal arithmetic, so each prints by str() in linear
    time.  Otherwise rows are M^n's reduced rationals.
    """

    base: RegRepMatrix
    n: int
    rows: tuple
    integral: bool

    @cached_property
    def entries(self):
        """M^n: ints when f and x are integral, rationals otherwise.

        An integral power is taken again by the int kernel on first read;
        converting the Decimal rows back by int() is quadratic.
        """
        if not self.integral:
            return self.rows
        u, _, z, _ = self.base.element
        return matrix_of(u, power(u, z, self.n))


@dataclass(frozen=True)
class ApproximationRecord:
    """One step of an approximation sequence.

    value/abs_error are exact rationals; they are None when the denominator
    entry vanished at this n (a legal transient for sparse matrices).
    den_digits counts the decimal digits of the unreduced denominator
    (the denominator entry itself, for integer matrices);
    reduced_den_digits counts the denominator of the fully reduced value.
    """

    n: int
    value: object = None
    abs_error: object = None
    den_digits: int = None
    reduced_den_digits: int = None

    @property
    def available(self):
        return self.value is not None


# Most decimal digits, estimated, that the entries of all the powers one
# call takes may hold: about 10 MB printed.  On the golden ratio (m = 2)
# that admits `power --n` up to about 11.9 million, which printed 9.9 MB in
# 0.6-0.9 s, power taken in exact Decimal, on one core of a 2-CPU VM under
# CPython 3.11 (6.4-6.7 s when the power was taken on ints and converted).
MAX_OUTPUT_DIGITS = 10_000_000
_PROBE_BITS = 1 << 12


def _refuse_over_budget(element, n_max, n_sum):
    """UsageError if the entries of the M^n asked for would hold over MAX_OUTPUT_DIGITS digits.

    n_max is the largest n asked for and n_sum the sum of them all; element
    is M.element, (u, L, z, d) from regrep.integral_element.  Runs before
    any power is taken.  An entry of M^n has about n * r bits, with r read
    off the bit growth of the kernel's first squarings: (d g)^k for the
    first power of two k at which a coordinate reaches _PROBE_BITS bits (or
    the last k <= n_max), plus log2 d per step for the denominator d^n.
    """
    u, _, z, d = element
    c, k = z, 1
    while 2 * k <= n_max and max(v.bit_length() for v in c) < _PROBE_BITS:
        c, k = multiply(u, c, c), 2 * k
    rate = max(v.bit_length() for v in c) + k * (d.bit_length() - 1)  # bits per k steps
    digits = len(u) ** 2 * n_sum * rate * 30103 // (100000 * k)  # log10(2) = 0.30103
    if digits > MAX_OUTPUT_DIGITS:
        raise UsageError(
            f"powers up to n = {n_max} would hold about {digits} decimal digits of "
            f"entries, over the cap MAX_OUTPUT_DIGITS = {MAX_OUTPUT_DIGITS}; ask for a smaller n"
        )


def mat_pow(M: RegRepMatrix, n) -> MatrixPower:
    """M^n, refused over MAX_OUTPUT_DIGITS before any power is taken.

    For integral f and x the power and matrix_of run in exact Decimal
    arithmetic, so the rows print without any int conversion.
    """
    if n < 0:
        raise UsageError("matrix power requires n >= 0")
    _refuse_over_budget(M.element, n, n)
    u, scale, z, d = M.element
    den = d**n
    if scale == den == 1:
        with exact_decimal():
            rows = matrix_of(u, power(u, [Decimal(v) for v in z], n))
        return MatrixPower(M, n, rows, True)
    return MatrixPower(M, n, scaled_entries(matrix_of(u, power(u, z, n)), scale, den), False)


def _record_from_entries(entries, n, num, den, offset):
    e_num = entries[num[0] - 1][num[1] - 1]
    e_den = entries[den[0] - 1][den[1] - 1]
    if e_den == 0:
        return ApproximationRecord(n=n)
    value = rational(e_num, e_den) + offset
    unreduced_den = abs(as_int_pair(e_num)[1] * as_int_pair(e_den)[0]) * int(offset.denominator)
    return ApproximationRecord(
        n=n,
        value=value,
        den_digits=decimal_digit_count(unreduced_den),
        reduced_den_digits=decimal_digit_count(value.denominator),
    )


def _with_errors(records, target):
    """records with abs_error = |value - target.center| wherever a value is available."""
    return [replace(r, abs_error=abs(r.value - target.center)) if r.available else r
            for r in records]


def _walk(element, pairs, offset, ns):
    """Records, without errors, of value(n) = M^n[num]/M^n[den] + offset at the increasing ns.

    One list of records per (num, den) in pairs, all read from the same
    powers.  Powers are int coordinates of (d g)^n over L*a, with element =
    M.element, (u, L, z, d) from regrep.integral_element.  The first is
    (d g)^ns[0]; each later one is the last times (d g)^(n - last n).
    """
    u, scale, z, d = element
    walks = [[] for _ in pairs]
    last = None
    for n in ns:
        h = power(u, z, n) if last is None else multiply(u, h, power(u, z, n - last))
        entries = scaled_entries(matrix_of(u, h), scale, d**n)
        for records, (num, den) in zip(walks, pairs):
            records.append(_record_from_entries(entries, n, num, den, offset))
        last = n
    return walks


def ratio_sequence(M: RegRepMatrix, num, den, offset=0, n_list=()) -> list:
    """ApproximationRecords for value(n) = M^n[num]/M^n[den] + offset.

    Index checks, the output budget and dominance come before any power is
    taken.  Every error is exactly 0 (a value proven equal to the limit) or
    at least 10**20 radii of ``convergence.resolving_enclosure``.  A zero
    denominator entry marks its record unavailable, unless every one vanishes.
    """
    m = M.poly.degree
    num = _check_index(num, m, "numerator")
    den = _check_index(den, m, "denominator")
    offset = rational(offset)
    # An increasing range is walked as it is: no list of its n is built.
    if not (isinstance(n_list, range) and n_list.step > 0):
        n_list = sorted(set(int(n) for n in n_list))
    if not n_list:
        return []
    if n_list[0] < 0:
        raise UsageError("sequence indices must be nonnegative")
    _refuse_over_budget(M.element, n_list[-1], sum(n_list))
    limit = _limit_data(analyze(M.poly, M.weights), num, den)
    (records,) = _walk(M.element, [(num, den)], offset, n_list)
    values = [r.value for r in records if r.available]
    if not values:
        raise ZeroDenominator(f"denominator entry M^n[{den}] vanished at every requested n")
    return _with_errors(records, resolving_enclosure(M.poly, limit, values, offset))


def accelerated_sequence(M: RegRepMatrix, stride, steps, num, den, offset=0) -> list:
    """ratio_sequence at n = stride, stride^2, ..., stride^steps (1, ..., steps at stride 1).

    The largest n is capped at 10**7 before any n is listed, in at most 24
    products at stride >= 2 (2**24 > 10**7).
    """
    if stride < 1:
        raise UsageError("stride must be >= 1")
    if steps < 1:
        raise UsageError("steps must be >= 1")
    n_max, k = (steps, steps) if stride == 1 else (stride, 1)
    while k < steps and n_max <= 10_000_000:
        n_max, k = n_max * stride, k + 1
    if n_max > 10_000_000:
        raise UsageError(
            f"stride = {stride} over steps = {steps} reaches an n beyond any tractable "
            "matrix power; reduce --steps"
        )
    ns = range(1, steps + 1) if stride == 1 else [stride**k for k in range(1, steps + 1)]
    return ratio_sequence(M, num, den, offset, ns)


@dataclass(frozen=True)
class ConstantRatioFamily:
    indices: tuple  # (i, j, p, q)
    constant: object  # the common exact value, or None if never defined
    holds: bool
    checked: tuple  # n values with a defined ratio
    skipped: tuple  # n values with a zero denominator entry
    duplicate_of_first: bool = False


def constant_ratio_check(M: RegRepMatrix, n_max) -> list:
    """Verify the two index families whose entry ratios are constant in n.

    For (i,j,p,q) = (m,m-1,1,m) and (m,1,1,2) the ratio of entries of M^n is
    independent of n; zero denominators at small n are skipped and reported.
    The output budget is checked before any power is taken, and both
    families are read from one walk over M^1 ... M^n_max.
    """
    m = M.poly.degree
    if m < 2:
        raise UsageError("constant-ratio families need m >= 2")
    n_max = int(n_max)
    families = constant_ratio_families(m)
    _refuse_over_budget(M.element, n_max, n_max * (n_max + 1) // 2)
    pairs = [((i, j), (p, q)) for i, j, p, q in families]
    walks = _walk(M.element, pairs, rational(0), range(1, n_max + 1))
    results = []
    for fam_idx, ((i, j, p, q), records) in enumerate(zip(families, walks)):
        values = [r.value for r in records if r.available]
        constant = values[0] if values else None
        results.append(
            ConstantRatioFamily(
                indices=(i, j, p, q),
                constant=constant,
                holds=bool(values) and all(v == constant for v in values),
                checked=tuple(r.n for r in records if r.available),
                skipped=tuple(r.n for r in records if not r.available),
                duplicate_of_first=fam_idx == 1 and families[0] == families[1],
            )
        )
    return results
