"""Command-line interface.

Exit codes: 0 success, 1 usage errors, 2 domain errors (uncertifiable
dominance, vanished denominators, ...).  Data goes to stdout (or files for
`tables`); diagnostics go to stderr.  Identical argv produces byte-identical
stdout.
"""

import argparse
import functools
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import mpmath as mp

from . import bench, convergence, iterative, powers
from .backends import (
    format_rational, mpf_to_rational, parse_rational, parse_rational_vector, rational, sci_parts,
    sci_string, to_mpf,
)
from .errors import DomainError, RepApproxError, UsageError
from .polynomial import parse_polynomial
from .regrep import build
from .roots import DEFAULT_PRECISION, MAX_PRECISION, all_roots


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, output_format=False):
    sub.add_argument("--config", help="JSON file with default option values")
    if output_format:
        sub.add_argument("--format", choices=("csv", "pretty"), default="csv")


@functools.cache
def _build_parser():
    """The parser and its subcommand parsers by name, built once per process."""
    parser = _Parser(prog="repapprox", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    precision = dict(type=int, default=DEFAULT_PRECISION, help=f"bits, 64..{MAX_PRECISION}")

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
    p.add_argument("--stride", type=int, help="repeated powering stride")
    p.add_argument("--steps", type=int, help="steps for --stride mode")
    _add_common(p, output_format=True)

    p = subs.add_parser("c-ratio", help="dominance analysis")
    p.add_argument("--poly")
    p.add_argument("--x")
    p.add_argument("--precision", **precision)
    _add_common(p, output_format=True)

    p = subs.add_parser("limits", help="limit predictions")
    p.add_argument("--poly")
    p.add_argument("--x")
    p.add_argument("--indices", help="i,j,p,q[;i,j,p,q...]")
    p.add_argument("--precision", **precision)
    _add_common(p)

    p = subs.add_parser("compare", help="iterative baselines")
    p.add_argument("--poly")
    p.add_argument("--methods", default="newton,halley,noor")
    p.add_argument("--x0", help="rational initial condition")
    p.add_argument("--steps", type=int)
    _add_common(p)

    p = subs.add_parser("tables", help="reproduce published tables")
    p.add_argument("--id", help="1..7 or 'all'")
    p.add_argument("--out", help="output directory (default: $REPAPPROX_OUT or .)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per table")
    p.add_argument("--time", action="store_true", help="report elapsed time per table")
    _add_common(p)

    p = subs.add_parser("roots", help="certified roots")
    p.add_argument("--poly")
    p.add_argument("--precision", **precision)
    _add_common(p)

    return parser, subs.choices


def _parse(argv):
    """Options from the command line, else from --config, else their declared defaults.

    The --config options go ahead of the command line's, right after the
    command, so argparse checks every one of them and, keeping the last
    value of an option, lets the command line win.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv[:1] + _config_argv(args, commands[args.command]) + argv[1:])
    return args


def _config_argv(args, sub):
    """The --config options as argv, for argparse to check."""
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--config {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("--config must contain a JSON object")
    extra = []
    for key, value in config.items():
        option = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(option)
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"--config: {args.command} has no option {option}")
        extra += ([option] if value else []) if action.nargs == 0 else [f"{option}={value}"]
    return extra


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _precision(args):
    bits = args.precision
    if bits < 64:
        raise UsageError(f"--precision must be >= 64 bits, got {bits}")
    if bits > MAX_PRECISION:
        raise UsageError(f"--precision must be <= MAX_PRECISION = {MAX_PRECISION} bits, got {bits}")
    return bits


def _ints(text, flag, count=None):
    """The comma-separated integers of an option value; errors name --flag."""
    try:
        values = [int(s) for s in str(text).split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--{flag} expects comma-separated integers, got {text!r}") from None
    if not values or count and len(values) != count:
        raise UsageError(f"--{flag} expects {count or 'at least one'} integers, got {text!r}")
    return values


def _matrix(args):
    return build(parse_polynomial(args.poly), parse_rational_vector(args.x))


def _print_matrix(power, fmt, out):
    """Print the rows of a MatrixPower: integral Decimals by str(), rationals by format_rational."""
    cell = str if power.integral else format_rational
    if fmt == "pretty":
        cells = [[cell(e) for e in row] for row in power.rows]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            print("  ".join(c.rjust(width) for c in row), file=out)
    else:
        for row in power.rows:
            print(",".join(map(cell, row)), file=out)


def _fmt_mp(x, prec_bits):
    """Scientific notation with the digit count implied by prec_bits."""
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


def _num_den(value):
    """'value_num,value_den' CSV cells of a rational."""
    return f"{format_rational(value.numerator)},{format_rational(value.denominator)}"


_RECORD_HEADER = "n,value_num,value_den,abs_error,den_digits,reduced_den_digits"


def _record_row(r):
    """The _RECORD_HEADER columns of one record, as one CSV line."""
    if not r.available:
        return f"{r.n},,,,,"
    err = "" if r.abs_error is None else sci_string(r.abs_error, 6)
    return f"{r.n},{_num_den(r.value)},{err},{r.den_digits},{r.reduced_den_digits}"


def _records_csv(records, out):
    print(_RECORD_HEADER, file=out)
    for r in records:
        print(_record_row(r), file=out)


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
    _print_matrix(powers.mat_pow(_matrix(args), 1), args.format, out)
    return 0


def _cmd_power(args, out):
    _require(args, "poly", "x", "n")
    if int(args.n) < 0:
        raise UsageError("--n must be >= 0")
    _print_matrix(powers.mat_pow(_matrix(args), int(args.n)), args.format, out)
    return 0


def _cmd_approx(args, out):
    _require(args, "poly", "x", "num", "den")
    matrix = _matrix(args)
    num = tuple(_ints(args.num, "num", 2))
    den = tuple(_ints(args.den, "den", 2))
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
        records = powers.ratio_sequence(matrix, num, den, offset, _ints(args.n, "n"))
    (_records_pretty if args.format == "pretty" else _records_csv)(records, out)
    return 0


def _cmd_c_ratio(args, out):
    _require(args, "poly", "x")
    f = parse_polynomial(args.poly)
    report = convergence.analyze(
        f, parse_rational_vector(args.x), precision_bits=_precision(args)
    )
    bits = report.roots.work_prec
    with mp.workprec(bits):
        if args.format == "pretty":
            for idx, g in enumerate(report.gamma):
                mark = " <- dominant" if idx == report.dominant_index else ""
                print(f"|gamma_{idx}| = {_fmt_mp(abs(g), 64)}{mark}", file=out)
            print(f"c = {mp.nstr(report.c_value, 6)}", file=out)
            print("certified: True", file=out)
        else:
            for idx, g in enumerate(report.gamma):
                print(f"gamma_modulus,{idx},{_fmt_mp(abs(g), 64)}", file=out)
            print(f"dominant_index,{report.dominant_index}", file=out)
            print(f"runner_up_index,{report.runner_up_index}", file=out)
            print(f"c,{mp.nstr(report.c_value, 6)}", file=out)
            print(f"c_inverse,{mp.nstr(report.c_inverse, 6)}", file=out)
            print("certified,true", file=out)
    return 0


# `limits` prints each L to this many significant digits, and limit_ratio
# encloses it just closely enough for them.
_LIMIT_DIGITS = 20


def _rounded_up(value, sig):
    """The least rational >= value >= 0 with `sig` significant digits."""
    mant, e = sci_parts(value, sig)
    unit = rational(10) ** (e - sig + 1)
    return mant * unit + unit if mant * unit < value else mant * unit


def _cmd_limits(args, out):
    _require(args, "poly", "x", "indices")
    f = parse_polynomial(args.poly)
    x = parse_rational_vector(args.x)
    quads = [_ints(text, "indices", 4) for text in args.indices.split(";")]
    report = convergence.analyze(f, x, precision_bits=_precision(args))
    print("i,j,p,q,L,rate_constant,degenerate", file=out)
    for i, j, p, q in quads:
        pred = convergence.limit_ratio(report, (i, j), (p, q), _LIMIT_DIGITS)
        with mp.workprec(pred.work_prec):
            l_str = mp.nstr(pred.limit, _LIMIT_DIGITS)
            rc = mp.nstr(pred.rate_constant, 10)
            bar = mp.nstr(to_mpf(_rounded_up(pred.limit_error, 3), mp), 3)
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
    if not methods:
        raise UsageError(f"--methods expects at least one method, got {args.methods!r}")
    for method in methods:
        if method not in iterative.METHODS:
            raise UsageError(f"unknown method {method!r}")
    runs = [(m, iterative.run_method(m, f, x0, int(args.steps))) for m in methods]
    print(f"method,{_RECORD_HEADER}", file=out)
    for method, records in runs:
        for r in records:
            print(f"{method},{_record_row(r)}", file=out)
    return 0


def _cmd_tables(args, out):
    _require(args, "id")
    ids = (
        list(range(1, 8))
        if str(args.id).strip() == "all"
        else list(dict.fromkeys(_ints(args.id, "id")))
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
    with mp.workprec(roots.work_prec):
        for index, est in enumerate(roots):
            re, im = est.center.real, est.center.imag  # a linear f's root is a rational
            print(
                f"{index},{_fmt_mp(re, bits)},{_fmt_mp(im, bits)},"
                f"{_fmt_mp(est.radius, 64)},{str(est.is_real).lower()}",
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
        args = _parse(_join_negative_values(argv))
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
    sys.exit(main(sys.argv[1:]))
