"""Exact matrix powers and the rational approximation sequences they yield.

M^n is the matrix of g^n, so every power here is an element power in
Q[t]/(f) (``regrep.power``), and entries are read from ``regrep.matrix_of``.

A sequence is defined by an entry-index pair for the numerator, one for the
denominator, and an affine offset: value(n) = M^n[num] / M^n[den] + offset.
Errors are measured exactly against one certified rational enclosure of
the limit per sequence (an exact constant, a refined real root, or rational
interval arithmetic on a root's bracket), from
``convergence.resolving_enclosure``: a value proven equal to the limit gets
error 0, and every other value lies at least 10**20 radii from the centre,
so no floating-point noise enters the reported |value - limit| numbers.
"""

from dataclasses import dataclass, replace

from .backends import decimal_digit_count, rational
from .convergence import _limit_data, analyze, resolving_enclosure
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


def _record_from_entries(entries, n, num, den, offset):
    e_num = entries[num[0] - 1][num[1] - 1]
    e_den = entries[den[0] - 1][den[1] - 1]
    if e_den == 0:
        return ApproximationRecord(n=n)
    value = e_num / e_den + offset
    unreduced_den = (
        abs(int(e_num.denominator) * int(e_den.numerator)) * int(offset.denominator)
    )
    return ApproximationRecord(
        n=n,
        value=value,
        den_digits=decimal_digit_count(unreduced_den),
        reduced_den_digits=decimal_digit_count(value.denominator),
    )


def _with_errors(records, f, limit, offset, target):
    """records with abs_error against target, or against resolving_enclosure."""
    if target is None:
        values = [r.value for r in records if r.available]
        target = resolving_enclosure(f, limit, values, offset)
    return [
        replace(r, abs_error=abs(r.value - target.center)) if r.available else r
        for r in records
    ]


def ratio_sequence(
    M: RegRepMatrix, num, den, offset=0, n_list=(), target=None
) -> list:
    """ApproximationRecords for value(n) = M^n[num]/M^n[den] + offset.

    `target` is a certified Enclosure of the limit, used as given.  If
    omitted, ``convergence.resolving_enclosure`` encloses the limit tightly
    enough that every error is exactly 0 (a value proven equal to the limit)
    or at least 10**20 radii.  Zero denominator entries mark the record
    unavailable instead of failing the run.
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
    # Dominance and the limit are certified before any power is taken.
    f = M.poly
    limit = _limit_data(f, num, den, analyze(f, M.weights)) if target is None else None
    x = M.weights.x
    records = []
    current = power(f, x, ns[0])
    prev_n = ns[0]
    for n in ns:
        if n != prev_n:
            current = multiply(f, current, power(f, x, n - prev_n))
            prev_n = n
        records.append(_record_from_entries(matrix_of(f, current), n, num, den, offset))

    if all(not r.available for r in records):
        raise ZeroDenominator(
            f"denominator entry M^n[{den}] vanished at every requested n"
        )
    return _with_errors(records, f, limit, offset, target)


def accelerated_sequence(
    M: RegRepMatrix, stride, steps, num, den, offset=0, target=None
) -> list:
    """Repeated stride-th powering: records at n = stride, stride^2, ...

    Step k re-raises the previous element power to the stride-th power, so
    six steps at stride 3 reach M^729 with a handful of multiplications.
    stride 1 degenerates to plain stepping (identical to ratio_sequence over
    1..steps).  Errors are resolved as in ratio_sequence.
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
    # Dominance and the limit are certified before any power is taken.
    f = M.poly
    limit = _limit_data(f, num, den, analyze(f, M.weights)) if target is None else None
    records = []
    current = power(f, M.weights.x, stride)
    n = stride
    for step in range(1, steps + 1):
        records.append(_record_from_entries(matrix_of(f, current), n, num, den, offset))
        if step < steps:
            current = power(f, current, stride)
            n *= stride
    return _with_errors(records, f, limit, offset, target)


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
