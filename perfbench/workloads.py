"""Seeded generators for the benchmark's workloads.

Every workload is a list of ops.  An op is a dict with
  id      position in the list,
  kind    the subcommand (or refusal family) it exercises,
  argv    the exact argument vector handed to ``repapprox.cli.main``,
  expect  "answer" (must exit 0) or "refuse" (must exit 2 with `marker` on
          stderr); the generator decides which exactly, from the input,
  data    plain integers the output checks need (polynomial, weights, ...).

The generators use numpy, never repapprox, so what the program is asked
cannot depend on the code under test.  The same seed gives the same ops.
Vectors are always passed as ``--opt=value`` because argparse reads
``--x -3,1`` as an unknown option.
"""

from fractions import Fraction

import numpy as np

# Markers the CLI prints on stderr for the refusals the generators plant.
TIE = "no strictly dominant gamma certifiable"
RATIONAL = "element is rational"
NOT_SQUAREFREE = "gcd(f, f') is nonconstant"
ZERO_B_K = "is indistinguishable from zero"

EXPLORE_OPS = 120
EXPLORE_DEGREES = (3, 4, 5, 6, 7, 8)
EXPLORE_KINDS = ("approx", "limits", "c-ratio", "approx", "roots")
EXPLORE_DIGITS = (15, 30, 45, 60, 75)
EXPLORE_C = (2.0, 12.0)
DEEP_OPS = 24
DEEP_DEGREES = (3, 4, 5, 6)
DEEP_N = (1000, 20000)


def _csv(values):
    return ",".join(str(int(v)) for v in values)


def _poly_arg(coeffs):
    return f"--poly=c:{_csv(coeffs)}"


def _roots(coeffs):
    return np.roots(np.array(coeffs, dtype=float))


def _well_separated(coeffs, min_gap=0.05):
    """Distinct roots, pairwise at least `min_gap` apart (numpy estimate)."""
    r = _roots(coeffs)
    if len(r) != len(coeffs) - 1 or not np.all(np.isfinite(r)):
        return False
    gaps = np.abs(r[:, None] - r[None, :]) + np.eye(len(r)) * 1e9
    return gaps.min() > min_gap


def _gammas(coeffs, x):
    """(roots, gamma_j = sum_i x_i alpha_j^i) by numpy."""
    r = _roots(coeffs)
    return r, np.polyval(np.array(x[::-1], dtype=float), r)


def _dominance(coeffs, x):
    """c = |gamma_k| / |gamma_l| when the largest gamma sits on a real root.

    Returns None when the largest |gamma| comes from a non-real root, since
    its conjugate then ties with it.
    """
    r, g = _gammas(coeffs, x)
    order = np.argsort(-np.abs(g))
    k, l = order[0], order[1]
    if abs(r[k].imag) > 1e-9 * max(1.0, abs(r[k])):
        return None
    if abs(g[l]) == 0:
        return float("inf")
    return float(abs(g[k]) / abs(g[l]))


def _poly_gcd(a, b):
    """Monic gcd over Q of two integer polynomials (descending coefficients)."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(b):
        while not b[0]:
            b = b[1:]
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [ai - q * bi for ai, bi in zip(a, b + [0] * (len(a) - len(b)))][1:]
        a, b = b, a
    return [c / a[0] for c in a]


def _b_k_vanishes(coeffs, x, p):
    """Whether B_k = V^-1[p, k] V[k, q] is exactly 0 for the dominant root.

    V^-1[p, k] is the t^(p-1) coefficient of f(t) / ((t - a_k) f'(a_k)),
    that is g(a_k) / f'(a_k) with g = t^(m-p) + ... + f_p, the top m-p+1
    coefficients of f.  So B_k = 0 exactly when a_k is a root of gcd(f, g),
    which is found over Q; numpy only says which of f's separated roots a_k
    is.  The limit ratio then has no finite limit and must be refused.
    """
    m = len(coeffs) - 1
    h = _poly_gcd(coeffs, coeffs[: m - p + 1])
    if len(h) == 1:
        return False
    r, g = _gammas(coeffs, x)
    dominant = r[np.argmax(np.abs(g))]
    return bool(np.abs(np.roots(np.array(h, dtype=float)) - dominant).min() < 0.02)


def _random_poly(rng, m, coef=4):
    """Monic integer polynomial of degree m with distinct, separated roots."""
    while True:
        tail = rng.integers(-coef, coef + 1, size=m)
        if tail[-1] == 0:
            continue
        coeffs = [1] + [int(c) for c in tail]
        if _well_separated(coeffs):
            return coeffs


def _random_weights(rng, coeffs, c_range, bound=3):
    """Integer weights whose dominant gamma is real with c in c_range."""
    m = len(coeffs) - 1
    for _ in range(400):
        x = [int(v) for v in rng.integers(-bound, bound + 1, size=m)]
        if not any(x[1:]):
            continue
        c = _dominance(coeffs, x)
        if c is not None and c_range[0] <= c <= c_range[1]:
            return x
    return None


def _poly_with_weights(rng, m, c_range):
    while True:
        coeffs = _random_poly(rng, m)
        x = _random_weights(rng, coeffs, c_range)
        if x is not None:
            return coeffs, x


def _pair(rng, m):
    return [int(v) for v in rng.integers(1, m + 1, size=2)]


def _non_squarefree(rng, m):
    """(t - a)^2 h(t) with integer a and monic integer h of degree m - 2."""
    a = int(rng.integers(-3, 4))
    h = [1] + [int(c) for c in rng.integers(-3, 4, size=m - 2)]
    return [int(c) for c in np.polymul(np.polymul([1, -a], [1, -a]), h)]


def explore(seed):
    """Exploration queries on new polynomials; half reuse an earlier one.

    Op i is of kind EXPLORE_KINDS[i % 5] on degree EXPLORE_DEGREES[i % 6],
    so every 30 ops hold each (kind, degree) pair once, and every other
    block of six ops reuses the polynomials of the block before it.  The
    seed picks coefficients, weights and indices.  The largest n of an
    approx op is chosen so that its error reaches about EXPLORE_DIGITS[j]
    digits (n log10 c, with c from numpy), because those digits set the
    working precision.  That keeps the cost mix the same for every seed.
    Every fifth roots op gets a non-squarefree f, and an approx or limits op
    whose denominator entry has B_k = 0 (_b_k_vanishes); both must be
    refused.  Every other op must be answered.
    """
    rng = np.random.default_rng([seed, 1])
    pool = {m: [] for m in EXPLORE_DEGREES}
    ops, n_approx = [], 0
    for i in range(EXPLORE_OPS):
        kind = EXPLORE_KINDS[i % len(EXPLORE_KINDS)]
        m = EXPLORE_DEGREES[i % len(EXPLORE_DEGREES)]
        if kind == "roots" and i % 25 == 4:
            coeffs = _non_squarefree(rng, m)
            ops.append(_op(i, kind, [kind, _poly_arg(coeffs), "--precision=128"],
                           "refuse", {"poly": coeffs}, NOT_SQUAREFREE))
            continue
        if (i // 6) % 2 and pool[m]:
            coeffs, x = pool[m][-1]
        else:
            coeffs, x = _poly_with_weights(rng, m, EXPLORE_C)
            pool[m].append((coeffs, x))
        data = {"poly": coeffs, "x": x}
        dens = []
        base = [_poly_arg(coeffs), f"--x={_csv(x)}"]
        if kind == "approx":
            num, den = _pair(rng, m), _pair(rng, m)
            offset = int(rng.integers(-2, 3))
            digits = EXPLORE_DIGITS[n_approx % len(EXPLORE_DIGITS)]
            n_approx += 1
            n_max = int(np.clip(round(digits / np.log10(_dominance(coeffs, x))), 8, 150))
            ns = sorted({int(v) for v in rng.integers(1, n_max, size=4)} | {n_max})
            data.update(num=num, den=den, offset=offset, n=ns)
            argv = base + [f"--num={_csv(num)}", f"--den={_csv(den)}",
                           f"--offset={offset}", f"--n={_csv(ns)}"]
            dens = [den]
        elif kind == "limits":
            quads = [_pair(rng, m) + _pair(rng, m) for _ in range(2)]
            data.update(quads=quads)
            argv = base + ["--indices=" + ";".join(_csv(q) for q in quads)]
            dens = [q[2:] for q in quads]
        elif kind == "c-ratio":
            argv = base
        else:
            argv = [base[0], f"--precision={(128, 256)[(i // 5) % 2]}"]
        if any(_b_k_vanishes(coeffs, x, p) for p, _ in dens):
            ops.append(_op(i, kind, [kind] + argv, "refuse", data, ZERO_B_K))
        else:
            ops.append(_op(i, kind, [kind] + argv, "answer", data))
    return ops


def deep_powers(seed):
    """power --n N on degrees 3..6, N chosen so output sizes are stratified.

    Op i asks for about 1000 (i + 2) decimal digits per entry: the weights
    are redrawn until N = digits / log10 max|gamma| (numpy estimate) lies
    in DEEP_N.  Every seed then has the same cost profile, with no two ops
    of one size, while the matrices differ.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(DEEP_OPS):
        m = DEEP_DEGREES[i % len(DEEP_DEGREES)]
        digits = 1000 * (i + 2)
        while True:
            coeffs = _random_poly(rng, m, coef=3)
            x = [int(v) for v in rng.integers(-6, 7, size=m)]
            rho = float(np.abs(_gammas(coeffs, x)[1]).max())
            if any(x[1:]) and rho > 1 and DEEP_N[0] <= digits / np.log10(rho) <= DEEP_N[1]:
                break
        n = int(round(digits / np.log10(rho)))
        ops.append(_op(i, "power", ["power", _poly_arg(coeffs), f"--x={_csv(x)}", f"--n={n}"],
                       "answer", {"poly": coeffs, "x": x, "n": n}))
    return ops


def _pm_tie(rng):
    """t^2 - d with odd-only weights (0, x1): gamma = +-x1 sqrt(d) tie."""
    d = int(rng.choice([v for v in range(2, 40) if int(v**0.5) ** 2 != v]))
    x1 = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return [1, 0, -d], [0, x1]


def _conjugate_tie(rng):
    """Cubic whose conjugate pair dominates gamma = alpha (weights (0,1,0))."""
    while True:
        coeffs = [1] + [int(c) for c in rng.integers(-5, 6, size=3)]
        if coeffs[-1] == 0 or not _well_separated(coeffs, 0.2):
            continue
        r = _roots(coeffs)
        real = r[np.abs(r.imag) < 1e-9]
        if len(real) == 1 and abs(real[0]) < 0.8 * np.abs(r).max():
            return coeffs, [0, 1, 0]


def refusals(seed):
    """Inputs with no strictly dominant gamma, which must be refused by name.

    Two slow ties (a +- tie at degree 2 and a conjugate-pair cubic) carry
    the precision escalation in analyze/all_roots; a rational element and a
    non-squarefree f check the early exits.
    """
    rng = np.random.default_rng([seed, 3])
    cases = [("pm-tie",) + _pm_tie(rng), ("conjugate-tie",) + _conjugate_tie(rng)]
    coeffs = _random_poly(rng, int(rng.integers(3, 7)))
    cases.append(("rational-element", coeffs, [int(rng.choice([-5, -3, -1, 1, 2, 7]))]
                  + [0] * (len(coeffs) - 2)))
    coeffs = _non_squarefree(rng, int(rng.integers(3, 7)))
    cases.append(("non-squarefree", coeffs, [0, 1] + [0] * (len(coeffs) - 3)))
    markers = {"pm-tie": TIE, "conjugate-tie": TIE, "rational-element": RATIONAL,
               "non-squarefree": NOT_SQUAREFREE}
    return [_op(i, kind, ["c-ratio", _poly_arg(coeffs), f"--x={_csv(x)}"], "refuse",
                {"poly": coeffs, "x": x}, markers[kind])
            for i, (kind, coeffs, x) in enumerate(cases)]


def paper_tables(out_dir):
    """The paper's reproduction; the seed does not change it."""
    argv = ["tables", "--id", "all", "--jobs", "1", f"--out={out_dir}"]
    return [_op(0, "tables", argv, "answer", {})]


def _op(i, kind, argv, expect, data, marker=None):
    op = {"id": i, "kind": kind, "argv": argv, "expect": expect, "data": data}
    if marker:
        op["marker"] = marker
    return op


def generate(workload, seed, out_dir):
    if workload == "paper_tables":
        return paper_tables(out_dir)
    return {"explore": explore, "deep_powers": deep_powers, "refusals": refusals}[workload](seed)


WORKLOADS = ("paper_tables", "explore", "deep_powers", "refusals")
