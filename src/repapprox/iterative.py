"""Exact-rational Newton, Halley, and Noor iterations.

No intermediate rounding or rational reconstruction: denominators grow
exactly as the update formulas dictate, which is what makes the
digit-count-versus-accuracy comparison against matrix-power sequences
meaningful.  A growth budget stops runs whose denominators would outgrow
`max_den_digits` (the Noor corrector multiplies digit counts by roughly 21
per step on a cubic).
"""

from dataclasses import dataclass, replace

from .backends import decimal_digit_count, rational
from .convergence import resolving_enclosure
from .errors import DomainError, IterationDiverged, UsageError, ZeroDenominator
from .polynomial import Polynomial
from .powers import ApproximationRecord
from .roots import Enclosure, isolate_real_roots

METHODS = ("newton", "halley", "noor")


@dataclass(frozen=True)
class IterativeState:
    method: str
    x_n: object
    n: int
    y_n: object = None  # Noor's intermediate predictor value


def newton_step(f: Polynomial, x):
    """x - f(x)/f'(x), reduced."""
    x = rational(x)
    d = f.eval(x, 1)
    if d == 0:
        raise ZeroDenominator(f"f'({x}) = 0 in a Newton step")
    return x - f.eval(x) / d


def halley_step(f: Polynomial, x):
    """x - 2 f f' / (2 f'^2 - f f''), reduced."""
    x = rational(x)
    fx, dfx, ddfx = f.eval(x), f.eval(x, 1), f.eval(x, 2)
    denom = 2 * dfx * dfx - fx * ddfx
    if denom == 0:
        raise ZeroDenominator(f"Halley denominator vanished at {x}")
    return x - 2 * fx * dfx / denom


def noor_step(f: Polynomial, x):
    """Predictor-corrector pair (y, next x).

    y is a Newton step; the corrector subtracts the next Newton increment and
    a second-order term f(y)^2 f''(y) / (2 f'(y)^3), all evaluated at y.
    """
    y = newton_step(f, x)
    fy, dfy, ddfy = f.eval(y), f.eval(y, 1), f.eval(y, 2)
    if dfy == 0:
        raise ZeroDenominator(f"f'({y}) = 0 in a Noor corrector")
    nxt = y - fy / dfy - fy * fy * ddfy / (2 * dfy**3)
    return y, nxt


def step(f: Polynomial, state: IterativeState) -> IterativeState:
    if state.method == "newton":
        return IterativeState("newton", newton_step(f, state.x_n), state.n + 1)
    if state.method == "halley":
        return IterativeState("halley", halley_step(f, state.x_n), state.n + 1)
    if state.method == "noor":
        y, nxt = noor_step(f, state.x_n)
        return IterativeState("noor", nxt, state.n + 1, y_n=y)
    raise UsageError(f"unknown method {state.method!r}; choose from {METHODS}")


# Rough per-step denominator digit growth on a degree-m polynomial; used only
# to stop before computing an over-budget step.
def _growth_factor(method, m):
    return {"newton": m, "halley": 2 * m - 1, "noor": m * (2 * m + 1)}[method]


def _iterate(f, method, x0, steps, max_den_digits):
    state = IterativeState(method, rational(x0), 0)
    states = []
    residuals = [abs(f.eval(state.x_n))]
    grew = 0
    factor = _growth_factor(method, f.degree)
    for _ in range(steps):
        den_digits = decimal_digit_count(state.x_n.denominator)
        if den_digits * factor > max_den_digits:
            break  # next step would blow the budget; stop with what we have
        state = step(f, state)
        states.append(state)
        residuals.append(abs(f.eval(state.x_n)))
        grew = grew + 1 if residuals[-1] > residuals[-2] else 0
        if grew >= 3:
            raise IterationDiverged(
                f"{method} residual |f(x_n)| grew for 3 consecutive steps "
                f"from x0={x0}",
                records=_digit_records(states),
            )
    return states


def _digit_records(states):
    return [
        ApproximationRecord(
            n=s.n,
            value=s.x_n,
            den_digits=decimal_digit_count(s.x_n.denominator),
            reduced_den_digits=decimal_digit_count(s.x_n.denominator),
        )
        for s in states
    ]


def _resolve_target(f, values) -> Enclosure:
    """Enclosure of the real root nearest the final value, resolving every error."""
    intervals = isolate_real_roots(f)
    if not intervals:
        raise DomainError("polynomial has no real root for the iteration to approach")
    x_final = values[-1]

    def distance(iv):
        a, b = iv
        if a <= x_final <= b:
            return rational(0)
        return min(abs(x_final - a), abs(x_final - b))

    interval = min(intervals, key=distance)
    # The root is N(alpha)/D(alpha) with N = t and D = 1.
    return resolving_enclosure(f, ((rational(1), rational(0)), (rational(1),), interval), values)


def iterate_records(method, f: Polynomial, x0, steps, max_den_digits=150_000):
    """Iterate `method` from x0: one record per step, with digits but no errors.

    Runs stop early (records list shorter than `steps`) when the next step
    would exceed the denominator budget.
    """
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; choose from {METHODS}")
    if steps < 1:
        raise UsageError("steps must be >= 1")
    return _digit_records(_iterate(f, method, x0, steps, max_den_digits))


def with_errors(f: Polynomial, records, target: Enclosure = None):
    """records with abs_error against target, or the root they approach.

    Without a target, the reference is the real root nearest the final
    value, enclosed by ``convergence.resolving_enclosure``: a value proven
    to be the root gets error 0, every other one lies at least 10**20 radii
    from the centre.
    """
    if not records:
        return []
    if target is None:
        target = _resolve_target(f, [r.value for r in records])
    return [replace(r, abs_error=abs(r.value - target.center)) for r in records]


def run_method(
    method, f: Polynomial, x0, steps, target: Enclosure = None, max_den_digits=150_000
):
    """Iterate `method` from x0, recording digits and exact errors per step.

    iterate_records, then with_errors: every error is exactly 0 or resolved
    to at least 10**20 radii of a certified enclosure of the nearest real
    root.  Runs stop early when the next step would exceed the budget.
    """
    return with_errors(f, iterate_records(method, f, x0, steps, max_den_digits), target)


@dataclass(frozen=True)
class SweepRow:
    method: str
    x0: object
    measured: dict  # n -> denominator digits (None where unavailable)
    matches: int
    total: int
    records: tuple  # the run's ApproximationRecords, without errors


def sweep_initial_conditions(
    f: Polynomial,
    expected_digits: dict,
    candidates=(rational(-2), rational(-3, 2), rational(-7, 4), rational(-9, 5)),
    max_den_digits=150_000,
):
    """Score starting points against published denominator digit columns.

    expected_digits maps method -> list of (n, digits).  Returns (rows, best)
    where best picks, per method, the candidate matching the most cells
    (ties to the earlier candidate).
    """
    rows = []
    for method, cells in expected_digits.items():
        want = dict(cells)
        max_n = max(want)
        for x0 in candidates:
            try:
                records = iterate_records(method, f, x0, max_n, max_den_digits)
            except (IterationDiverged, ZeroDenominator):
                records = []
            by_n = {r.n: r.den_digits for r in records}
            measured = {n: by_n.get(n) for n in sorted(want)}
            matches = sum(1 for n, d in want.items() if measured.get(n) == d)
            rows.append(
                SweepRow(method, rational(x0), measured, matches, len(want), tuple(records))
            )
    best = {}
    for row in rows:
        cur = best.get(row.method)
        if cur is None or row.matches > cur.matches:
            best[row.method] = row
    return rows, best
