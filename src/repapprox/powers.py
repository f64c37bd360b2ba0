"""Exact matrix powers and the rational approximation sequences they yield.

M^n is the matrix of g^n, so every power here is an element power in
Q[t]/(f) (``regrep.power``), and entries are read from ``regrep.matrix_of``.

A sequence is defined by an entry-index pair for the numerator, one for the
denominator, and an affine offset: value(n) = M^n[num] / M^n[den] + offset.
Errors are measured exactly against a certified rational enclosure of the
limit (an exact constant, a refined real root, or rational interval
arithmetic on a root's bracket), so no floating-point noise enters the
reported |value - limit| numbers.
"""

from dataclasses import dataclass

import mpmath as mp

from .backends import decimal_digit_count, floor_log10, rational
from .errors import UsageError, ZeroDenominator
from .regrep import (
    RegRepMatrix,
    constant_ratio_families,
    matrix_of,
    multiply,
    power,
)


@dataclass(frozen=True)
class MatrixPower:
    base: RegRepMatrix
    n: int
    entries: tuple


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


def mat_pow(M: RegRepMatrix, n) -> MatrixPower:
    if n < 0:
        raise UsageError("matrix power requires n >= 0")
    return MatrixPower(M, n, matrix_of(M.poly, power(M.poly, M.weights.x, n)))


def _check_index(pair, m, label):
    i, j = pair
    if not (1 <= i <= m and 1 <= j <= m):
        raise UsageError(f"{label} index {pair} out of range 1..{m}")
    return (int(i), int(j))


def _record_from_entries(entries, n, num, den, offset, target):
    e_num = entries[num[0] - 1][num[1] - 1]
    e_den = entries[den[0] - 1][den[1] - 1]
    if e_den == 0:
        return ApproximationRecord(n=n)
    value = e_num / e_den + offset
    unreduced_den = (
        abs(int(e_num.denominator) * int(e_den.numerator)) * int(offset.denominator)
    )
    err = None if target is None else abs(value - target.center)
    return ApproximationRecord(
        n=n,
        value=value,
        abs_error=err,
        den_digits=decimal_digit_count(unreduced_den),
        reduced_den_digits=decimal_digit_count(value.denominator),
    )


def error_reference(M: RegRepMatrix, num, den, offset=0, n_max=100, min_digits=30):
    """Certified enclosure of the limit of the (num, den, offset) sequence.

    The dominance analysis predicts the error decay rate, and the enclosure
    from ``convergence.limit_enclosure`` (an exact constant, a refined Sturm
    bracket of the dominant root, or rational interval arithmetic on that
    bracket) is asked for a radius at least ten decimal digits below the
    smallest error expected within n <= n_max.
    """
    from . import convergence  # deferred: convergence builds on this module's records

    f, w = M.poly, M.weights
    report = convergence.analyze(f, w)
    pred = convergence.limit_ratio(f, w, num, den, report)
    with mp.workprec(report.work_prec):
        expected = n_max * mp.log10(report.c_value)
        if pred.rate_constant > 0:
            expected -= mp.log10(pred.rate_constant)
        digits = max(min_digits, int(mp.ceil(expected)) + 10)
    return convergence.limit_enclosure(f, w, num, den, report, digits, offset)


def ratio_sequence(
    M: RegRepMatrix, num, den, offset=0, n_list=(), target=None
) -> list:
    """ApproximationRecords for value(n) = M^n[num]/M^n[den] + offset.

    `target` is a certified Enclosure of the limit; if omitted it is resolved
    automatically from the dominance analysis.  Zero denominator entries mark
    the record unavailable instead of failing the run.
    """
    m = M.size
    num = _check_index(num, m, "numerator")
    den = _check_index(den, m, "denominator")
    offset = rational(offset)
    ns = sorted(set(int(n) for n in n_list))
    if not ns:
        return []
    if ns[0] < 0:
        raise UsageError("sequence indices must be nonnegative")
    if target is None:
        target = error_reference(M, num, den, offset, n_max=ns[-1])

    f, x = M.poly, M.weights.x
    records = []
    current = power(f, x, ns[0])
    prev_n = ns[0]
    for n in ns:
        if n != prev_n:
            current = multiply(f, current, power(f, x, n - prev_n))
            prev_n = n
        records.append(
            _record_from_entries(matrix_of(f, current), n, num, den, offset, target)
        )

    records = _ensure_error_resolution(records, M, num, den, offset, ns[-1], target)
    if all(not r.available for r in records):
        raise ZeroDenominator(
            f"denominator entry M^n[{den}] vanished at every requested n"
        )
    return records


def _ensure_error_resolution(records, M, num, den, offset, n_max, target):
    """Re-refine the limit enclosure if any error is drowned by its radius."""
    if target.radius == 0:
        return records
    nonzero = [r.abs_error for r in records if r.available and r.abs_error > 0]
    if not nonzero or min(nonzero) > 10 * target.radius:
        return records
    err_digits = -floor_log10(min(nonzero)) + 20
    better = error_reference(M, num, den, offset, n_max, min_digits=err_digits)
    return [
        r
        if not r.available
        else ApproximationRecord(
            n=r.n,
            value=r.value,
            abs_error=abs(r.value - better.center),
            den_digits=r.den_digits,
            reduced_den_digits=r.reduced_den_digits,
        )
        for r in records
    ]


def accelerated_sequence(
    M: RegRepMatrix, stride, steps, num, den, offset=0, target=None
) -> list:
    """Repeated stride-th powering: records at n = stride, stride^2, ...

    Step k re-raises the previous element power to the stride-th power, so
    six steps at stride 3 reach M^729 with a handful of multiplications.
    stride 1 degenerates to plain stepping (identical to ratio_sequence over
    1..steps).
    """
    if stride < 1:
        raise UsageError("stride must be >= 1")
    if steps < 1:
        raise UsageError("steps must be >= 1")
    if stride == 1:
        return ratio_sequence(M, num, den, offset, range(1, steps + 1), target)
    m = M.size
    num = _check_index(num, m, "numerator")
    den = _check_index(den, m, "denominator")
    offset = rational(offset)
    n_max = stride**steps
    if n_max > 10_000_000:
        raise UsageError(
            f"stride**steps = {n_max} is beyond any tractable matrix power; "
            "reduce --steps"
        )
    if target is None:
        target = error_reference(M, num, den, offset, n_max=n_max)
    f = M.poly
    records = []
    current = power(f, M.weights.x, stride)
    n = stride
    for step in range(1, steps + 1):
        records.append(
            _record_from_entries(matrix_of(f, current), n, num, den, offset, target)
        )
        if step < steps:
            current = power(f, current, stride)
            n *= stride
    records = _ensure_error_resolution(records, M, num, den, offset, n_max, target)
    return records


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
    """
    m = M.size
    if m < 2:
        raise UsageError("constant-ratio families need m >= 2")
    f, x = M.poly, M.weights.x
    families = constant_ratio_families(m)
    results = []
    for fam_idx, (i, j, p, q) in enumerate(families):
        duplicate = fam_idx == 1 and families[0] == families[1]
        values, checked, skipped = [], [], []
        g_n = power(f, x, 0)
        for n in range(1, int(n_max) + 1):
            g_n = multiply(f, g_n, x)
            entries = matrix_of(f, g_n)
            d = entries[p - 1][q - 1]
            if d == 0:
                skipped.append(n)
                continue
            checked.append(n)
            values.append(entries[i - 1][j - 1] / d)
        constant = values[0] if values else None
        holds = bool(values) and all(v == constant for v in values)
        results.append(
            ConstantRatioFamily(
                indices=(i, j, p, q),
                constant=constant,
                holds=holds,
                checked=tuple(checked),
                skipped=tuple(skipped),
                duplicate_of_first=duplicate,
            )
        )
    return results
