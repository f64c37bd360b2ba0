"""Command-line interface.

Exit codes: 0 success, 1 usage errors, 2 domain errors (uncertifiable
dominance, vanished denominators, ...).  Data goes to stdout (or files for
`tables`); diagnostics go to stderr.  Identical argv produces byte-identical
stdout.
"""

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import mpmath as mp

from . import bench, convergence, iterative, powers
from .backends import format_rational, parse_rational, parse_rational_vector, sci_string
from .errors import DomainError, RepApproxError, UsageError
from .polynomial import parse_polynomial
from .regrep import build
from .roots import all_roots

DEFAULT_PRECISION = 256


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, output_format=False):
    sub.add_argument("--config", help="JSON file with default option values")
    if output_format:
        sub.add_argument("--format", choices=("csv", "pretty"), default=None)


def _build_parser():
    parser = _Parser(prog="repapprox", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("repr", help="print M(x,u)")
    p.add_argument("--poly", required=False)
    p.add_argument("--x", required=False)
    _add_common(p, output_format=True)

    p = subs.add_parser("power", help="print M^n")
    p.add_argument("--poly")
    p.add_argument("--x")
    p.add_argument("--n", type=int)
    _add_common(p, output_format=True)

    p = subs.add_parser("approx", help="approximation records")
    p.add_argument("--poly")
    p.add_argument("--x")
    p.add_argument("--num", help="numerator entry i,j")
    p.add_argument("--den", help="denominator entry p,q")
    p.add_argument("--offset", default="0", help="rational or 'auto'")
    p.add_argument("--n", help="comma-separated step indices")
    p.add_argument("--stride", type=int, default=None, help="repeated powering stride")
    p.add_argument("--steps", type=int, default=None, help="steps for --stride mode")
    _add_common(p, output_format=True)

    p = subs.add_parser("c-ratio", help="dominance analysis")
    p.add_argument("--poly")
    p.add_argument("--x")
    p.add_argument("--precision", type=int, default=None, help="bits, >= 64")
    _add_common(p, output_format=True)

    p = subs.add_parser("limits", help="limit predictions")
    p.add_argument("--poly")
    p.add_argument("--x")
    p.add_argument("--indices", help="i,j,p,q[;i,j,p,q...]")
    p.add_argument("--precision", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("compare", help="iterative baselines")
    p.add_argument("--poly")
    p.add_argument("--methods", default="newton,halley,noor")
    p.add_argument("--x0", help="rational initial condition")
    p.add_argument("--steps", type=int)
    _add_common(p)

    p = subs.add_parser("tables", help="reproduce published tables")
    p.add_argument("--id", dest="table_id", help="1..7 or 'all'")
    p.add_argument("--out", help="output directory (default: $REPAPPROX_OUT or .)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per table")
    p.add_argument("--time", action="store_true", help="report elapsed time per table")
    _add_common(p)

    p = subs.add_parser("roots", help="certified roots")
    p.add_argument("--poly")
    p.add_argument("--precision", type=int, default=None)
    _add_common(p)

    return parser


def _apply_config(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            defaults = json.load(fh)
        if not isinstance(defaults, dict):
            raise UsageError("--config must contain a JSON object")
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if attr == "id":
                attr = "table_id"
            if hasattr(args, attr) and getattr(args, attr) is None:
                setattr(args, attr, value)
    if hasattr(args, "format") and args.format is None:
        args.format = "csv"
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _precision(args):
    bits = args.precision if args.precision is not None else DEFAULT_PRECISION
    bits = int(bits)
    if bits < 64:
        raise UsageError(f"--precision must be >= 64 bits, got {bits}")
    return bits


def _parse_pair(text, label):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--{label} expects 'i,j', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"--{label} expects integers: {text!r}") from exc


def _matrix(args):
    return build(parse_polynomial(args.poly), parse_rational_vector(args.x))


def _print_matrix(entries, fmt, out):
    if fmt == "pretty":
        cells = [[format_rational(e) for e in row] for row in entries]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            print("  ".join(c.rjust(width) for c in row), file=out)
    else:
        for row in entries:
            print(",".join(format_rational(e) for e in row), file=out)


def _fmt_mp(x, prec_bits):
    """Scientific notation with the digit count implied by prec_bits."""
    from .backends import mpf_to_rational

    digits = max(17, int(prec_bits * 0.30103))
    v = mpf_to_rational(mp.mpf(x)) if not hasattr(x, "numerator") else x
    return sci_string(v, digits)


def _resolve_auto_offset(f, num, den):
    """Affine correction making the sequence converge to the root itself.

    Adjacent-column ratios (i, j+1)/(i, j) already converge to the root
    (offset 0); (m-1, j)/(m, j) converges to root - u_1 (offset u_1).
    """
    i, j = num
    p, q = den
    if i == p and j == q + 1:
        return parse_rational("0")
    if i == p - 1 and p == f.degree and j == q:
        return f.u[0]
    return None


def _records_csv(records, out):
    print("n,value_num,value_den,abs_error,den_digits,reduced_den_digits", file=out)
    for r in records:
        if not r.available:
            print(f"{r.n},,,,,", file=out)
            continue
        err = "" if r.abs_error is None else sci_string(r.abs_error, 6)
        print(
            f"{r.n},{r.value.numerator},{r.value.denominator},{err},"
            f"{r.den_digits},{r.reduced_den_digits}",
            file=out,
        )


def _records_pretty(records, out):
    print(f"{'n':>6} {'abs_error':>14} {'digits':>7} {'reduced':>8}", file=out)
    for r in records:
        if not r.available:
            print(f"{r.n:>6} {'(zero denominator)':>14}", file=out)
            continue
        err = "" if r.abs_error is None else sci_string(r.abs_error, 4)
        print(f"{r.n:>6} {err:>14} {r.den_digits:>7} {r.reduced_den_digits:>8}", file=out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_repr(args, out):
    _require(args, "poly", "x")
    _print_matrix(_matrix(args).entries, args.format, out)
    return 0


def _cmd_power(args, out):
    _require(args, "poly", "x", "n")
    if int(args.n) < 0:
        raise UsageError("--n must be >= 0")
    power = powers.mat_pow(_matrix(args), int(args.n))
    _print_matrix(power.entries, args.format, out)
    return 0


def _cmd_approx(args, out):
    _require(args, "poly", "x", "num", "den")
    matrix = _matrix(args)
    num = _parse_pair(args.num, "num")
    den = _parse_pair(args.den, "den")
    if str(args.offset).strip() == "auto":
        offset = _resolve_auto_offset(matrix.poly, num, den)
        if offset is None:
            raise UsageError(
                "--offset auto is only supported for adjacent-column ratios and "
                "(m-1,j)/(m,j); pass an explicit rational"
            )
        print(f"offset auto resolved to {format_rational(offset)}", file=sys.stderr)
    else:
        offset = parse_rational(str(args.offset))
    if args.stride is not None:
        if args.steps is None:
            raise UsageError("--stride requires --steps")
        records = powers.accelerated_sequence(
            matrix, args.stride, args.steps, num, den, offset
        )
    else:
        _require(args, "n")
        ns = [int(s) for s in str(args.n).split(",") if s.strip()]
        if not ns:
            raise UsageError("--n must list at least one index")
        records = powers.ratio_sequence(matrix, num, den, offset, ns)
    (_records_pretty if args.format == "pretty" else _records_csv)(records, out)
    return 0


def _cmd_c_ratio(args, out):
    _require(args, "poly", "x")
    f = parse_polynomial(args.poly)
    report = convergence.analyze(
        f, parse_rational_vector(args.x), precision_bits=_precision(args)
    )
    bits = report.work_prec
    with mp.workprec(bits):
        if args.format == "pretty":
            for idx, g in enumerate(report.gamma):
                mark = " <- dominant" if idx == report.dominant_index else ""
                print(f"|gamma_{idx}| = {_fmt_mp(abs(g), 64)}{mark}", file=out)
            print(f"c = {mp.nstr(report.c_value, 6)}", file=out)
            print(f"certified: {report.certified}", file=out)
        else:
            for idx, g in enumerate(report.gamma):
                print(f"gamma_modulus,{idx},{_fmt_mp(abs(g), 64)}", file=out)
            print(f"dominant_index,{report.dominant_index}", file=out)
            print(f"runner_up_index,{report.runner_up_index}", file=out)
            print(f"c,{mp.nstr(report.c_value, 6)}", file=out)
            print(f"c_inverse,{mp.nstr(report.c_inverse, 6)}", file=out)
            print(f"certified,{str(report.certified).lower()}", file=out)
    return 0


def _cmd_limits(args, out):
    _require(args, "poly", "x", "indices")
    f = parse_polynomial(args.poly)
    x = parse_rational_vector(args.x)
    report = convergence.analyze(f, x, precision_bits=_precision(args))
    print("i,j,p,q,L,rate_constant,degenerate", file=out)
    for quad_text in args.indices.split(";"):
        parts = [s for s in quad_text.split(",") if s.strip()]
        if len(parts) != 4:
            raise UsageError(f"--indices quadruple must be i,j,p,q: {quad_text!r}")
        i, j, p, q = (int(s) for s in parts)
        pred = convergence.limit_ratio(f, x, (i, j), (p, q), report)
        with mp.workprec(pred.work_prec):
            l_str = mp.nstr(pred.limit, 20)
            rc = mp.nstr(pred.rate_constant, 10)
            bar = mp.nstr(pred.limit_error, 3)
        print(f"L[{i},{j},{p},{q}] error bar <= {bar}", file=sys.stderr)
        print(f"{i},{j},{p},{q},{l_str},{rc},{str(pred.degenerate).lower()}", file=out)
    return 0


def _cmd_compare(args, out):
    _require(args, "poly", "x0", "steps")
    f = parse_polynomial(args.poly)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    x0 = parse_rational(args.x0)
    if int(args.steps) < 1:
        raise UsageError("--steps must be >= 1")
    all_records = []
    for method in methods:
        if method not in iterative.METHODS:
            raise UsageError(f"unknown method {method!r}")
        for r in iterative.run_method(method, f, x0, int(args.steps)):
            all_records.append((method, r))
    print("method,n,value_num,value_den,abs_error,den_digits,reduced_den_digits", file=out)
    for method, r in all_records:
        err = "" if r.abs_error is None else sci_string(r.abs_error, 6)
        print(
            f"{method},{r.n},{r.value.numerator},{r.value.denominator},{err},"
            f"{r.den_digits},{r.reduced_den_digits}",
            file=out,
        )
    return 0


def _cmd_tables(args, out):
    _require(args, "table_id")
    ids = (
        list(range(1, 8))
        if str(args.table_id).strip() == "all"
        else [int(s) for s in str(args.table_id).split(",")]
    )
    for tid in ids:
        if not 1 <= tid <= 7:
            raise UsageError(f"--id must be within 1..7, got {tid}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    workers = min(args.jobs, len(ids))
    out_dir = args.out or os.environ.get("REPAPPROX_OUT") or "."
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(bench.reproduce_table, ids))
    else:
        results = [bench.reproduce_table(tid) for tid in ids]
    os.makedirs(out_dir, exist_ok=True)
    for result in results:
        for name, text in result.csv_files.items():
            if name == "discrepancies.csv":
                continue
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                fh.write(text)
        if args.time:
            print(f"table {result.table_id}: {result.elapsed:.2f}s", file=sys.stderr)
    merged = bench.discrepancies_csv(results)
    with open(os.path.join(out_dir, "discrepancies.csv"), "w", newline="") as fh:
        fh.write(merged)
    flagged = sum(len(r.mismatches) for r in results)
    checked = sum(len(r.cells) for r in results)
    print(
        f"checked {checked} cells across tables {','.join(map(str, ids))}; "
        f"{flagged} flagged in discrepancies.csv",
        file=sys.stderr,
    )
    print(merged, end="", file=out)
    return 0


def _cmd_roots(args, out):
    _require(args, "poly")
    f = parse_polynomial(args.poly)
    bits = _precision(args)
    roots = all_roots(f, bits)
    with mp.workprec(max(bits, roots.work_prec)):
        for est in roots:
            re, im = mp.re(mp.mpc(est.center)), mp.im(mp.mpc(est.center))
            print(
                f"{est.index},{_fmt_mp(re, bits)},{_fmt_mp(im, bits)},"
                f"{_fmt_mp(mp.mpf(est.radius), 64)},{str(est.is_real).lower()}",
                file=out,
            )
    return 0


_HANDLERS = {
    "repr": _cmd_repr,
    "power": _cmd_power,
    "approx": _cmd_approx,
    "c-ratio": _cmd_c_ratio,
    "limits": _cmd_limits,
    "compare": _cmd_compare,
    "tables": _cmd_tables,
    "roots": _cmd_roots,
}


def _join_negative_values(argv):
    """Attach a value such as -1,1,1 or -3/2 to the option before it, since
    argparse reads any '-' token but a plain negative number as an option."""
    joined = []
    for token in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and re.match(r"-\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser().parse_args(_join_negative_values(argv))
        args = _apply_config(args)
        return _HANDLERS[args.command](args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except RepApproxError as exc:  # safety net for anything uncategorized
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
