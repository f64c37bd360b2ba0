"""Exact-rational Newton, Halley, and Noor iterations.

No intermediate rounding or rational reconstruction: denominators grow
exactly as the update formulas dictate, which is what makes the
digit-count-versus-accuracy comparison against matrix-power sequences
meaningful.  A growth budget stops a run before a step whose reduced
denominator is estimated (digits times a per-method growth factor) to
outgrow MAX_DEN_DIGITS decimal digits; the Noor corrector multiplies digit
counts by roughly 21 per step on a cubic, so Table 6's Noor n = 6 is over
it.

The kernels, ``newton_step``, ``halley_step`` and ``noor_step``, one per
method, are integer arithmetic.  For an iterate x = p/q and a form
F(p, q) = sum c_i p^(k-i) q^i, F, F1 and F2 are the homogenised L f, L f'
and L f'' (L the common denominator of f's coefficients, see
``Polynomial.integer_forms``), each evaluated by integer Horner.  Every
update formula is one quotient A(p, q) / B(p, q) of two binary forms fixed
by f and the method.  For coprime p, q, gcd(A(p, q), B(p, q)) divides
R = |Res(A, B)| (Silverman, *The Arithmetic of Dynamical Systems*, 2007,
Prop. 2.13), so the quotient is reduced by gcds of remainders mod R, an
int of a few dozen bits computed once per (f, method), instead of a gcd of
the full pair.  Residual growth |f(x_n)| > |f(x_n-1)| is decided on |F| and
q by bit lengths or cross-multiplication, with no gcd at all.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .backends import as_int_pair, coprime_rational, decimal_digit_count, rational
from .convergence import resolving_enclosure
from .errors import DomainError, IterationDiverged, UsageError, ZeroDenominator
from .polynomial import Polynomial, difference, homogeneous_eval, product, resultant
from .powers import ApproximationRecord, _with_errors
from .roots import Enclosure, isolate_real_roots

METHODS = ("newton", "halley", "noor")
MAX_DEN_DIGITS = 150_000


@dataclass(frozen=True)
class IterativeState:
    method: str
    x_n: object
    n: int


_X, _Y = (1, 0), (0, 1)  # the forms X and Y


@lru_cache(maxsize=32)
def _resultant_bound(f, method):
    """|Res(A, B)| for the forms of one step, x_next = A(p, q) / B(p, q).

    Newton: A = X F1 - F, B = Y F1.  Halley, with H = 2 F1^2 - F F2:
    A = X H - 2 F F1, B = Y H.  Noor's corrector, at the predictor:
    A = 2 F1^2 (X F1 - F) - F^2 F2, B = 2 Y F1^3.  A and B have one degree
    (3m - 2 for Noor), ``difference`` padding a vanishing F2 (m = 1).
    """
    F, F1, F2 = f.integer_forms()
    if method == "newton":
        a, b = difference(product(_X, F1), F), product(_Y, F1)
    elif method == "halley":
        h = difference(product((2,), F1, F1), product(F, F2))
        a, b = difference(product(_X, h), product((2,), F, F1)), product(_Y, h)
    else:
        a = difference(product((2,), F1, F1, difference(product(_X, F1), F)), product(F, F, F2))
        b = product((0, 2), F1, F1, F1)
    return abs(resultant(a, b))


def _reduced(a, b, bound):
    """a/b in lowest terms, for b != 0 and gcd(a, b) dividing bound.

    gcd(a, b) = gcd(a mod R, R, b mod R) for R = bound, so no gcd runs on
    an operand larger than R.  R = 0 (forms with a common factor) bounds
    nothing, and the full gcd is taken.
    """
    g = math.gcd(a % bound, bound, b % bound) if bound else math.gcd(a, b)
    if b < 0:
        g = -g
    return coprime_rational(a // g, b // g)


def newton_step(f: Polynomial, x, fx=None):
    """x - f(x)/f'(x), reduced: (p F1 - F) / (q F1) for x = p/q.

    fx is F(p, q), passed by a caller that holds it already.
    """
    p, q = as_int_pair(x)
    lf, lf1, _ = f.integer_forms()
    d = homogeneous_eval(lf1, p, q)
    if d == 0:
        raise ZeroDenominator(f"f'({rational(p, q)}) = 0 in a Newton step")
    if fx is None:
        fx = homogeneous_eval(lf, p, q)
    return _reduced(p * d - fx, q * d, _resultant_bound(f, "newton"))


def halley_step(f: Polynomial, x, fx=None):
    """x - 2 f f' / (2 f'^2 - f f''), reduced: (p H - 2 F F1) / (q H).

    H = 2 F1^2 - F F2 at x = p/q; fx is F(p, q), as for newton_step.
    """
    p, q = as_int_pair(x)
    lf, lf1, lf2 = f.integer_forms()
    if fx is None:
        fx = homogeneous_eval(lf, p, q)
    dfx, ddfx = homogeneous_eval(lf1, p, q), homogeneous_eval(lf2, p, q)
    h = 2 * dfx * dfx - fx * ddfx
    if h == 0:
        raise ZeroDenominator(f"Halley denominator vanished at {rational(p, q)}")
    return _reduced(p * h - 2 * fx * dfx, q * h, _resultant_bound(f, "halley"))


def noor_step(f: Polynomial, x, fx=None):
    """Predictor-corrector pair (y, next x).

    y is newton_step(f, x, fx); the corrector subtracts the next Newton
    increment and a second-order term f(y)^2 f''(y) / (2 f'(y)^3), all
    evaluated at y = p/q: next x = (2 p F1^3 - 2 F F1^2 - F^2 F2) / (2 q F1^3).
    """
    y = newton_step(f, x, fx)
    p, q = as_int_pair(y)
    fy, dfy, ddfy = (homogeneous_eval(c, p, q) for c in f.integer_forms())
    if dfy == 0:
        raise ZeroDenominator(f"f'({y}) = 0 in a Noor corrector")
    dfy2 = dfy * dfy
    nxt = _reduced(
        2 * dfy2 * (p * dfy - fy) - fy * fy * ddfy, 2 * q * dfy2 * dfy, _resultant_bound(f, "noor")
    )
    return y, nxt


def step(f: Polynomial, state: IterativeState, fx=None) -> IterativeState:
    """state advanced by one newton_step, halley_step or noor_step.

    fx is F(p, q) at x_n = p/q when the caller has it already
    (``iterate_records`` does, from its residual check); it goes to the kernel.
    """
    if state.method == "newton":
        return IterativeState("newton", newton_step(f, state.x_n, fx), state.n + 1)
    if state.method == "halley":
        return IterativeState("halley", halley_step(f, state.x_n, fx), state.n + 1)
    if state.method == "noor":
        return IterativeState("noor", noor_step(f, state.x_n, fx)[1], state.n + 1)
    raise UsageError(f"unknown method {state.method!r}; choose from {METHODS}")


# Rough per-step denominator digit growth on a degree-m polynomial; used only
# to stop before computing an over-budget step.
def _growth_factor(method, m):
    return {"newton": m, "halley": 2 * m - 1, "noor": m * (2 * m + 1)}[method]


def _residual_grew(cur, prev, m):
    """|F_n| / q_n^m > |F_n-1| / q_n-1^m for residual pairs (|F|, q), exactly.

    |f(x)| = |F(p, q)| / (L q^m).  Bit lengths put each log2 |F| / q^m in an
    interval of width m + 1, which settles almost every step; only when the
    intervals overlap are the sides cross-multiplied.  No gcd is taken.
    """
    (fc, qc), (fp, qp) = cur, prev
    if fc and fp:
        lc = fc.bit_length() - m * qc.bit_length()
        lp = fp.bit_length() - m * qp.bit_length()
        if lc + m < lp - 1 or lp + m < lc - 1:
            return lc > lp
    return fc * qp**m > fp * qc**m


def _nearest_interval(intervals, x):
    """The interval nearest x, the earlier on a tie, of sorted intervals with disjoint closures.

    That is the first whose gap to the next has its midpoint at or right of
    x, else the last.  Each step compares x with a small rational, with no
    subtraction of x (a huge fraction for a late iterate).
    """
    return next(
        (iv for iv, nxt in zip(intervals, intervals[1:]) if x <= (iv[1] + nxt[0]) / 2),
        intervals[-1],
    )


def _resolve_target(f, values) -> Enclosure:
    """Enclosure of the real root nearest the final value, resolving every error."""
    intervals = isolate_real_roots(f)
    if not intervals:
        raise DomainError("polynomial has no real root for the iteration to approach")
    interval = _nearest_interval(intervals, values[-1])
    # The root is N(alpha)/D(alpha) with N = t and D = 1.
    return resolving_enclosure(f, ((1, 0), (1,), interval), values)


def iterate_records(method, f: Polynomial, x0, steps):
    """Iterate `method` from x0: one record per step, with digits but no errors.

    Runs stop early (records list shorter than `steps`) when the next step
    would exceed MAX_DEN_DIGITS.  Each iterate's denominator digit count is
    computed once, for the budget check and the record, and its F(p, q) at
    most once: F serves the residual check and then the next step's kernel.
    At the last iterate (the step count reached, or the budget stopping the
    next step) F is evaluated only when the residual check can still raise,
    after two consecutive growths.
    """
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; choose from {METHODS}")
    if steps < 1:
        raise UsageError("steps must be >= 1")
    lf = f.integer_forms()[0]
    factor = _growth_factor(method, f.degree)
    state = IterativeState(method, rational(x0), 0)
    p, q = as_int_pair(state.x_n)
    fx, digits = homogeneous_eval(lf, p, q), decimal_digit_count(q)
    records = []
    grew = 0
    while state.n < steps and digits * factor <= MAX_DEN_DIGITS:
        prev = abs(fx), q
        state = step(f, state, fx)
        p, q = as_int_pair(state.x_n)
        digits = decimal_digit_count(q)  # reduced already
        records.append(
            ApproximationRecord(
                n=state.n, value=state.x_n, den_digits=digits, reduced_den_digits=digits
            )
        )
        last = state.n == steps or digits * factor > MAX_DEN_DIGITS
        if last and grew < 2:
            break
        fx = homogeneous_eval(lf, p, q)
        grew = grew + 1 if _residual_grew((abs(fx), q), prev, f.degree) else 0
        if grew >= 3:
            raise IterationDiverged(
                f"{method} residual |f(x_n)| grew for 3 consecutive steps "
                f"from x0={x0}",
                records=records,
            )
    return records


def with_errors(f: Polynomial, records):
    """records with abs_error against the real root they approach.

    The reference is the real root nearest the final value, enclosed by
    ``convergence.resolving_enclosure``: a value proven to be the root gets
    error 0, every other one lies at least 10**20 radii from the centre.
    """
    if not records:
        return []
    return _with_errors(records, _resolve_target(f, [r.value for r in records]))


def run_method(method, f: Polynomial, x0, steps):
    """Iterate `method` from x0, recording digits and exact errors per step.

    iterate_records, then with_errors: every error is exactly 0 or resolved
    to at least 10**20 radii of a certified enclosure of the nearest real
    root.  Runs stop early when the next step would exceed MAX_DEN_DIGITS.
    """
    return with_errors(f, iterate_records(method, f, x0, steps))


@dataclass(frozen=True)
class SweepRow:
    method: str
    x0: object
    measured: dict  # n -> denominator digits (None where unavailable)
    matches: int
    total: int
    records: tuple  # the run's ApproximationRecords, without errors


def sweep_initial_conditions(f: Polynomial, expected_digits: dict, candidates):
    """Score starting points against published denominator digit columns.

    expected_digits maps method -> list of (n, digits); candidates are the
    starting points, in order (Table 6 sweeps ``bench.TABLE6_X0``).  Each
    candidate runs to the method's largest n under MAX_DEN_DIGITS, and a
    run that diverges or meets a zero denominator scores no cell.  Returns
    (rows, best) where best picks, per method, the candidate matching the
    most cells (ties to the earlier candidate).
    """
    rows = []
    for method, cells in expected_digits.items():
        want = dict(cells)
        max_n = max(want)
        for x0 in candidates:
            try:
                records = iterate_records(method, f, x0, max_n)
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
