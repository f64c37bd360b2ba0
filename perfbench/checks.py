"""Output checks, computed without repapprox and outside the timed region.

Each check takes an op (from workloads.py) and its captured stdout and
returns None when the output is right, or a one-line reason.  Exact checks
use integers: M is rebuilt from its definition (M = sum x_n A^n with A the
companion matrix of f), and matrix powers are fingerprinted modulo a
61-bit prime.  Limits, gammas and roots are compared with mpmath at 60
digits.
"""

import hashlib
import sys
from fractions import Fraction

import mpmath

sys.set_int_max_str_digits(0)  # power entries run to tens of thousands of digits

PRIME = (1 << 61) - 1
DPS = 60


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def regrep(coeffs, x):
    """M(x, u) over the integers, as the package defines it."""
    m = len(coeffs) - 1
    u = [-c for c in coeffs[1:]]
    a = [[0] * m for _ in range(m)]
    for i in range(1, m):
        a[i][i - 1] = 1
    for i in range(m):
        a[i][m - 1] = u[m - 1 - i]
    mat = [[x[m - 1] if i == j else 0 for j in range(m)] for i in range(m)]
    for n in range(m - 2, -1, -1):
        mat = _mul(mat, a)
        for i in range(m):
            mat[i][i] += x[n]
    return mat


def _mul(a, b, mod=None):
    m = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    if mod:
        out = [[v % mod for v in row] for row in out]
    return out


def _pow_mod(a, n, mod):
    m = len(a)
    result = [[int(i == j) for j in range(m)] for i in range(m)]
    base = [[v % mod for v in row] for row in a]
    while n:
        if n & 1:
            result = _mul(result, base, mod)
        n >>= 1
        if n:
            base = _mul(base, base, mod)
    return result


def _rows(stdout):
    return [line.split(",") for line in stdout.splitlines() if line]


def check_power(op, stdout):
    """M^n printed in full: exact M P == P M, and P == M^n modulo PRIME."""
    d = op["data"]
    mat = regrep(d["poly"], d["x"])
    m = len(mat)
    try:
        p = [[Fraction(v) for v in row] for row in _rows(stdout)]
    except ValueError:
        return "power output is not a rational matrix"
    if len(p) != m or any(len(row) != m for row in p):
        return f"power output is not {m}x{m}"
    if any(v.denominator != 1 for row in p for v in row):
        return "integer M has a non-integer power"
    p = [[int(v) for v in row] for row in p]
    if _mul(mat, p) != _mul(p, mat):
        return "M * M^n != M^n * M"
    if [[v % PRIME for v in row] for row in p] != _pow_mod(mat, d["n"], PRIME):
        return "M^n differs from the modular fingerprint"
    return None


def _limit(coeffs, x, quad):
    """Entry-ratio limit V^-1[i,k] V[k,j] / (V^-1[p,k] V[k,q]) at mpmath DPS.

    k is the root with the largest |gamma|.
    """
    roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=4 * DPS)
    gam = [sum(c * r**e for e, c in enumerate(x)) for r in roots]
    k = max(range(len(roots)), key=lambda t: abs(gam[t]))
    m = len(roots)
    v = mpmath.matrix(m, m)
    for t, r in enumerate(roots):
        for s in range(m):
            v[t, s] = r**s
    vinv = v**-1
    i, j, p, q = quad
    a_k = vinv[i - 1, k] * v[k, j - 1]
    b_k = vinv[p - 1, k] * v[k, q - 1]
    return mpmath.re(a_k / b_k)


def check_approx(op, stdout):
    """Records: exact value (mod PRIME), reduced digits, |value - limit|."""
    d = op["data"]
    rows = _rows(stdout)
    if not rows or rows[0][0] != "n":
        return "approx output has no header"
    mat = regrep(d["poly"], d["x"])
    (i, j), (p, q), offset = d["num"], d["den"], d["offset"]
    with mpmath.workdps(DPS):
        limit = _limit(d["poly"], d["x"], (i, j, p, q)) + offset
        ns = []
        for row in rows[1:]:
            n = int(row[0])
            ns.append(n)
            power = _pow_mod(mat, n, PRIME)
            e_num, e_den = power[i - 1][j - 1], power[p - 1][q - 1]
            if row[1] == "":
                if e_den:
                    return f"n={n} marked unavailable but M^n[den] != 0"
                continue
            num, den = int(row[1]), int(row[2])
            if den <= 0 or Fraction(num, den).denominator != den:
                return f"n={n} value is not reduced"
            if (num * e_den - den * (e_num + offset * e_den)) % PRIME:
                return f"n={n} value != M^n[num]/M^n[den] + offset"
            if int(row[5]) != len(str(den)):
                return f"n={n} reduced_den_digits != digits of the denominator"
            # The package refines the limit enclosure until its radius is
            # below a tenth of every error it reports, so |err - actual|
            # <= actual / 9 is what it promises.
            err = mpmath.mpf(row[3]) if row[3] else None
            actual = abs(mpmath.mpf(num) / den - limit)
            floor = mpmath.mpf(10) ** (10 - DPS)
            if err is None or (actual > floor and abs(err - actual) > actual / 9):
                return f"n={n} abs_error {row[3]} but |value - limit| = {mpmath.nstr(actual, 5)}"
            if actual <= floor and err > 10 * floor:
                return f"n={n} abs_error {row[3]} but |value - limit| < {mpmath.nstr(floor, 2)}"
    if ns != sorted(d["n"]):
        return f"approx printed n={ns}, asked {d['n']}"
    return None


def check_limits(op, stdout):
    d = op["data"]
    rows = _rows(stdout)
    if len(rows) != 1 + len(d["quads"]):
        return "limits output has the wrong number of lines"
    with mpmath.workdps(DPS):
        for row, quad in zip(rows[1:], d["quads"]):
            if [int(v) for v in row[:4]] != quad:
                return f"limits line {row[:4]} for quadruple {quad}"
            limit = _limit(d["poly"], d["x"], quad)
            if abs(mpmath.mpf(row[4]) - limit) > 1e-15 * (1 + abs(limit)):
                return f"L{quad} = {row[4]}, expected {mpmath.nstr(limit, 20)}"
    return None


def check_c_ratio(op, stdout):
    d = op["data"]
    fields = {}
    moduli = []
    for row in _rows(stdout):
        if row[0] == "gamma_modulus":
            moduli.append(mpmath.mpf(row[2]))
        else:
            fields[row[0]] = row[1]
    with mpmath.workdps(DPS):
        roots = mpmath.polyroots(d["poly"], maxsteps=400, extraprec=4 * DPS)
        want = sorted(abs(sum(c * r**e for e, c in enumerate(d["x"]))) for r in roots)
        if len(moduli) != len(want) or any(
            abs(a - b) > 1e-15 * (1 + b) for a, b in zip(sorted(moduli), want)
        ):
            return "gamma moduli differ from the reference"
        k, l = int(fields.get("dominant_index", -1)), int(fields.get("runner_up_index", -1))
        if not (0 <= k < len(moduli)) or moduli[k] != max(moduli):
            return "dominant_index does not point at the largest |gamma|"
        if abs(mpmath.mpf(fields["c"]) - want[-1] / want[-2]) > 1e-5 * want[-1] / want[-2]:
            return f"c = {fields['c']}, expected {mpmath.nstr(want[-1] / want[-2], 6)}"
        if not (0 <= l < len(moduli)) or moduli[l] != sorted(moduli)[-2]:
            return "runner_up_index does not point at the second |gamma|"
    if fields.get("certified") != "true":
        return "dominance not certified"
    return None


def check_roots(op, stdout):
    """Each true root is printed once, within its radius; radii meet --precision.

    The CLI promises radii below 2^-(precision // 2); the radius is printed
    to 64 bits, so it may exceed that by one part in 2^50 of rounding.
    """
    d = op["data"]
    rows = _rows(stdout)
    bits = int(next(a for a in op["argv"] if a.startswith("--precision=")).split("=")[1])
    target = mpmath.mpf(2) ** -(bits // 2) * (1 + mpmath.mpf(2) ** -50)
    with mpmath.workdps(DPS):
        want = mpmath.polyroots(d["poly"], maxsteps=400, extraprec=4 * DPS)
        if len(rows) != len(want):
            return f"{len(rows)} roots printed for degree {len(want)}"
        matched = set()
        for row in rows:
            z = mpmath.mpc(mpmath.mpf(row[1]), mpmath.mpf(row[2]))
            radius = mpmath.mpf(row[3])
            t = min(range(len(want)), key=lambda t: abs(want[t] - z))
            if t in matched:
                return f"root {row[0]} = {row[1]}+{row[2]}i repeats another printed root"
            matched.add(t)
            if abs(want[t] - z) > 2 * radius + mpmath.mpf(10) ** -30:
                return f"root {row[0]} = {row[1]}+{row[2]}i is not a root"
            if radius > target:
                return f"root {row[0]} has radius {row[3]} > 2^-{bits // 2}"
            if (row[4] == "true") != (abs(mpmath.im(want[t])) < mpmath.mpf(10) ** -40):
                return f"root {row[0]} has the wrong is_real flag"
    return None


CHECKS = {
    "power": check_power,
    "approx": check_approx,
    "limits": check_limits,
    "c-ratio": check_c_ratio,
    "roots": check_roots,
}
