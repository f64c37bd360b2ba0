import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import repapprox
from repapprox import backends, cli, powers
from repapprox.backends import format_rational, parse_rational_vector, rational
from repapprox.cli import main
from repapprox.iterative import iterate_records
from repapprox.polynomial import parse_polynomial
from repapprox.powers import mat_pow
from repapprox.regrep import build

import dense


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRepr:
    def test_identity_weights(self, capsys):
        code, out, _ = run_cli(capsys, "repr", "--poly", "u:2,3,5", "--x", "1,0,0")
        assert code == 0
        assert out == "1,0,0\n0,1,0\n0,0,1\n"

    def test_rational_entries(self, capsys):
        code, out, _ = run_cli(capsys, "repr", "--poly", "u:0,0,1/2", "--x", "0,0,1")
        assert code == 0
        assert out.splitlines()[0].split(",") == ["0", "1/2", "0"]

    def test_pretty_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "repr", "--poly", "u:2,3,5", "--x", "1,0,0", "--format", "pretty"
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["1", "0", "0"]


class TestPower:
    def test_cube_root_cubes_to_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--poly", "u:0,0,5", "--x", "0,1,0", "--n", "3")
        assert code == 0
        assert out == "5,0,0\n0,5,0\n0,0,5\n"

    def test_zero_power(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--poly", "u:1,1", "--x", "1,1", "--n", "0")
        assert out == "1,0\n0,1\n"


def _printed(entries, pretty):
    """A matrix as the CLI prints it, cell by cell from format_rational."""
    cells = [[format_rational(e) for e in row] for row in entries]
    if not pretty:
        return "".join(",".join(row) + "\n" for row in cells)
    width = max(len(c) for row in cells for c in row)
    return "".join("  ".join(c.rjust(width) for c in row) + "\n" for row in cells)


def fresh_cli(argv, timeout):
    """(exit code, stdout, stderr) of the CLI in a new interpreter, killed after timeout s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repapprox.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from repapprox.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
        capture_output=True, text=True, timeout=timeout,
    )
    return result.returncode, result.stdout, result.stderr


class TestOutputBudget:
    @pytest.mark.parametrize(
        "argv",
        [("power", "--n", "30000000"),
         ("approx", "--num", "1,1", "--den", "2,1", "--n", "1,30000000")],
        ids=["power", "approx"],
    )
    def test_unbounded_n_refused_at_once(self, capsys, argv):
        # 30 million golden-ratio steps would print 25 MB.  A new interpreter
        # under a timeout first, so that computing them fails the test
        # instead of running on.
        argv = (argv[0], "--poly", "c:1,-1,-1", "--x", "0,1", *argv[1:])
        code, out, err = fresh_cli(argv, timeout=10)
        assert (code, out) == (1, "")
        assert "about 2507750" in err  # 4 entries of 6.27 million digits
        assert f"MAX_OUTPUT_DIGITS = {powers.MAX_OUTPUT_DIGITS}" in err
        start = time.perf_counter()
        assert run_cli(capsys, *argv)[:2] == (1, "")
        assert time.perf_counter() - start < 1.0


class TestPrintedMatrixBytes:
    """power and repr print integral matrices from Decimal coordinates; the
    bytes must be those of the rational entries of the dense oracle."""

    @pytest.mark.parametrize("fmt", ["csv", "pretty"])
    @pytest.mark.parametrize(
        "poly,x,n",
        [
            ("u:1/2,-3,2/3", "1/3,-2,5/4", 7),  # rational f and x
            ("u:1/2,-3,2/3", "1/3,-2,5/4", 0),
            ("c:1,1,-2,-1", "-3,0,-1", 9),  # negative entries
            ("c:1,0,0,2", "1,0,0", 5),  # zero coordinates times a negative u_m
            ("c:1,0,-2", "1,1", 0),
            ("c:1,-3,0,1,5", "0,2,-1,1", 1),
            # Three zero coordinates next to u_m = -2, and interpolated squares.
            ("c:1,0,0,0,2", "0,1,0,0", 12289),
        ],
    )
    def test_power_and_repr_match_rational_entries(self, capsys, poly, x, n, fmt):
        m = dense.regular_representation(parse_polynomial(poly), parse_rational_vector(x))
        want = _printed(dense.mat_pow_entries(m, n), fmt == "pretty")
        argv = ["--poly", poly, "--x", x, "--format", fmt]
        assert run_cli(capsys, "power", *argv, "--n", str(n)) == (0, want, "")
        if n == 1:
            assert run_cli(capsys, "repr", *argv) == (0, want, "")

    def test_power_converts_no_int_to_decimal(self, capsys, monkeypatch):
        # An integral power is taken in exact Decimal arithmetic from the
        # start, so the int->Decimal converter is never called.
        calls = []
        convert = backends._to_decimal

        def counting(n):
            calls.append(n)
            return convert(n)

        monkeypatch.setattr(backends, "_to_decimal", counting)
        poly, x, n = "c:1,0,-1,2,-3,1,-1", "1,2,0,-1,1,3", 8000
        code, out, _ = run_cli(capsys, "power", "--poly", poly, "--x", x, "--n", str(n))
        entries = mat_pow(build(parse_polynomial(poly), parse_rational_vector(x)), n).entries
        assert code == 0
        smallest = min(abs(int(e)) for row in entries for e in row)
        assert smallest.bit_length() > backends._STR_CUTOFF_BITS
        assert len(calls) == 0
        same = out == "".join(",".join(str(e) for e in row) + "\n" for row in entries)
        assert same


class TestBigIntegerOutput:
    """Printed integers are the bytes of str() on the exact values.

    Results are compared as one bool, so that a failure does not make
    pytest print, or diff, strings of 10**5 digits.
    """

    def test_power_entries_above_100k_digits(self, capsys):
        poly, x, n = "c:1,0,-2", "1,1", 270_000
        code, out, _ = run_cli(capsys, "power", "--poly", poly, "--x", x, "--n", str(n))
        entries = mat_pow(build(parse_polynomial(poly), parse_rational_vector(x)), n).entries
        assert code == 0
        assert min(abs(e) for row in entries for e in row) > 10**100_000
        same = out == "".join(",".join(str(e) for e in row) + "\n" for row in entries)
        assert same

    def test_compare_at_table6_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--poly", "c:1,1,-2,-1", "--methods", "noor,halley",
            "--x0", "-2", "--steps", "7",
        )
        ramanujan = parse_polynomial("c:1,1,-2,-1")
        want = [
            [method, str(r.n), str(r.value.numerator), str(r.value.denominator)]
            for method in ("noor", "halley")
            for r in iterate_records(method, ramanujan, rational(-2), 7)
        ]
        got = [line.split(",")[:4] for line in out.splitlines()[1:]]
        assert code == 0
        assert max(len(row[3]) for row in want) > 40_000  # Noor at n = 6
        same = got == want
        assert same

    def test_approx_at_large_n(self, capsys):
        ns = (20_000, 24_000)
        code, out, _ = run_cli(
            capsys, "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,1", "--den", "3,1", "--offset", "-1", "--n", ",".join(map(str, ns)),
        )
        matrix = build(parse_polynomial("c:1,1,-2,-1"), parse_rational_vector("0,-1,1"))
        want = []
        for n in ns:
            e = mat_pow(matrix, n).entries
            value = rational(e[1][0], e[2][0]) - 1
            want.append([str(n), str(value.numerator), str(value.denominator)])
        got = [line.split(",")[:3] for line in out.splitlines()[1:]]
        assert code == 0
        assert min(len(want[0][1]), len(want[0][2])) > 9865  # both above the cutoff
        same = got == want
        assert same

    @pytest.mark.parametrize(
        "limit,ns,digest",
        [
            # (2,1)/(3,1) - 1 is the dominant root itself
            (("--num=2,1", "--den=3,1", "--offset=-1"), "5000,20000",
             "8c441de90af82cea710601348ffd2f7a337f29bc9748e1bcfceb9f62a6658ba2"),
            # (1,1)/(2,1) is an interval quotient on the root's bracket
            (("--num=1,1", "--den=2,1", "--offset=0"), "3000,12000",
             "67128558eea766bae373f47e9ac62c2d0f6e5d054202340500fc3d8f3f703c26"),
        ],
        ids=["root", "quotient"],
    )
    def test_deep_approx_bytes_are_pinned(self, capsys, limit, ns, digest):
        # Errors this deep take several rounds of one resumed bracket; the
        # printed bytes must not depend on where each round's refinement
        # started, so they are pinned by digest.
        code, out, _ = run_cli(
            capsys, "approx", "--poly=c:1,1,-2,-1", "--x=0,-1,1", *limit, f"--n={ns}"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestApprox:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,1", "--den", "3,1", "--offset", "-1", "--n", "5,20",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value_num,value_den,abs_error,den_digits,reduced_den_digits"
        assert lines[1].startswith("5,-1429,793,7.99187e-5,3,3")
        assert lines[2].endswith(",14,12")

    def test_shifted_polynomial_identically_zero_prints_zero_errors(self, capsys):
        # N = D, so value(n) = 1 + 1/2 exactly and N + (1/2 - v) D is the
        # zero polynomial: gcd(f, 0) = f holds the root, so every error is 0.
        code, out, _ = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,2", "--den", "2,2", "--offset", "1/2", "--n", "1,2,3",
        )
        assert code == 0
        assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["0", "0", "0"]

    def test_limit_reached_with_no_runner_up_prints_zero_errors(self, capsys):
        # f = t(t-1)(t+2), g = t(t+2): g vanishes at two roots, so c is
        # infinite and every ratio already equals the limit 1.
        code, out, _ = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,0", "--x", "0,2,1",
            "--num", "2,2", "--den", "2,1", "--n", "5,6",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["5,1,1,0,3,1", "6,1,1,0,3,1"]

    def test_exact_non_dyadic_limit_returns_quickly(self, capsys):
        # The limit 1/3 repeats at every n and no dyadic bracket end hits it,
        # so only the exactness test can end the resolution.
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys,
            "approx", "--poly", "c:1,5/3,-2/3,0", "--x", "0,2,1",
            "--num", "2,2", "--den", "2,1", "--n", "5,6",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert [line.split(",")[1:4] for line in out.splitlines()[1:]] == [
            ["1", "3", "0"], ["1", "3", "0"]
        ]

    def test_auto_offset(self, capsys):
        code, out, err = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,2", "--den", "2,1", "--offset", "auto", "--n", "5",
        )
        assert code == 0
        assert "offset auto resolved to 0" in err

    def test_auto_offset_row_shift(self, capsys):
        code, _, err = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,1", "--den", "3,1", "--offset", "auto", "--n", "5",
        )
        assert code == 0
        assert "offset auto resolved to -1" in err

    def test_auto_offset_unsupported(self, capsys):
        code, _, err = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "1,1", "--den", "3,1", "--offset", "auto", "--n", "5",
        )
        assert code == 1
        assert "usage error" in err

    def test_stride_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "69,99,-124",
            "--num", "2,1", "--den", "3,1", "--offset", "-1",
            "--stride", "3", "--steps", "2",
        )
        assert code == 0
        ns = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert ns == ["3", "9"]

    def test_runaway_steps_refused_without_building_the_power(self, capsys):
        # 3**1000000 is never built, nor printed in the message.
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            "approx", "--poly=c:1,1,-2,-1", "--x=0,-1,1", "--num=2,1", "--den=3,1",
            "--stride=3", "--steps=1000000",
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert len(err) < 300
        assert "stride = 3" in err and "steps = 1000000" in err
        assert "beyond any tractable matrix power; reduce --steps" in err

    def test_determinism(self, capsys):
        args = (
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,1", "--den", "3,1", "--offset", "-1", "--n", "5,20,35",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_pretty_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--num", "2,1", "--den", "3,1", "--offset", "-1", "--n", "5",
            "--format", "pretty",
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["n", "abs_error", "digits", "reduced"]
        assert "7.992e-5" in out.splitlines()[1]

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("csv", "n,value_num,value_den,abs_error,den_digits,reduced_den_digits\n"
                    "0,,,,,\n5,-1429,793,7.99187e-5,3,3\n"),
            ("pretty", "     n      abs_error  digits  reduced\n"
                       "     0 (zero denominator)\n     5       7.992e-5       3        3\n"),
        ],
    )
    def test_vanished_denominator_row(self, capsys, fmt, expected):
        # M^0 = I, so the denominator entry (3,1) is 0 at n = 0.
        code, out, err = run_cli(
            capsys,
            "approx", "--poly=c:1,1,-2,-1", "--x=0,-1,1", "--num=2,1", "--den=3,1",
            "--offset=-1", "--n=0,5", "--format", fmt,
        )
        assert (code, out, err) == (0, expected, "")


with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stdout.json")) as _fh:
    _GOLDEN = json.load(_fh)


@pytest.mark.parametrize("case", _GOLDEN, ids=lambda case: f"{case['argv'][0]}:{case['argv'][2][:24]}")
def test_stdout_is_path_independent(capsys, case):
    # Exit code and stdout recorded when analyze's first round still
    # started Aberth from all_roots' circle, not from float_start: a
    # degree-32 c-ratio; (t - 1)(t - 1 - 2^-e) for e = 32, 40 and 100; a
    # coefficient of 2^1100; and ROADMAP direction 5's two probes, one of
    # which prints a gamma = 0 as rounding noise.
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


class TestCRatio:
    def test_published_value(self, capsys):
        code, out, _ = run_cli(capsys, "c-ratio", "--poly", "c:1,1,-2,-1", "--x", "0,0,1")
        assert code == 0
        assert "c,2.08815" in out
        assert "dominant_index,0" in out
        assert "certified,true" in out

    def test_uncertifiable_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "c-ratio", "--poly", "c:1,1,-2,-1", "--x", "1,0,0")
        assert code == 2
        assert "domain error" in err

    def test_tie_refusal_prints_readable_weights(self, capsys, asked_precisions):
        # gamma = 3 sqrt(21) and -3 sqrt(21) tie in modulus.  Whatever
        # --precision asks, analyze stops doubling at MAX_PRECISION.
        asked = asked_precisions
        for extra in ((), ("--precision=2048",)):
            asked.clear()
            code, out, err = run_cli(capsys, "c-ratio", "--poly=c:1,0,-21", "--x=0,3", *extra)
            assert (code, out) == (2, "")
            assert "no strictly dominant gamma certifiable" in err
            assert "x=(0,3)" in err
            assert f"up to {cli.MAX_PRECISION} bits" in err
            assert asked and max(asked) == cli.MAX_PRECISION == 65536

    @pytest.mark.parametrize(
        "e, precisions",
        [(400, [256, 512]), (1000, [256, 512, 1024]), (3000, [256, 512, 1024, 2048, 4096])],
    )
    def test_near_tie_escalates_then_prints_the_same_bytes(
        self, capsys, asked_precisions, e, precisions
    ):
        # f = t^2 - t/2^e - 2 with gamma = alpha: |gamma| differ by 2^-e, so
        # analyze doubles until the disks separate them, each round from the
        # last round's roots, and prints what a cold start at each round did.
        poly = f"--poly=c:1,-1/{2**e},-2"
        expected = {
            ("c-ratio",): "gamma_modulus,0,1.414213562373095049e0\n"
                          "gamma_modulus,1,1.414213562373095049e0\n"
                          "dominant_index,0\nrunner_up_index,1\n"
                          "c,1.0\nc_inverse,1.0\ncertified,true\n",
            ("c-ratio", "--format=pretty"): "|gamma_0| = 1.414213562373095049e0 <- dominant\n"
                                            "|gamma_1| = 1.414213562373095049e0\n"
                                            "c = 1.0\ncertified: True\n",
            ("limits", "--indices=1,1,2,1"): "i,j,p,q,L,rate_constant,degenerate\n"
                                             "1,1,2,1,1.4142135623730950488,2.828427125,false\n",
        }
        for (command, *extra), out in expected.items():
            asked_precisions.clear()
            assert run_cli(capsys, command, poly, "--x=0,1", *extra)[:2] == (0, out)
            assert asked_precisions == precisions

    @pytest.mark.parametrize(
        "poly,x",
        [("c:1,0,2,1", "0,1,0"), ("c:1,0,1,1", "0,1,0"), ("c:1,0,1", "0,1")],
        ids=["perfbench-seed-0", "t3+t+1", "t2+1-no-real-root"],
    )
    def test_conjugate_tie_refused_at_first_precision(self, capsys, asked_precisions, poly, x):
        # The top |gamma| sits on a non-real root, so its conjugate ties it
        # at every precision: refused in the first round, at any --precision.
        asked = asked_precisions
        for first, extra in ((256, ()), (2048, ("--precision=2048",))):
            asked.clear()
            code, out, err = run_cli(capsys, "c-ratio", f"--poly={poly}", f"--x={x}", *extra)
            assert (code, out) == (2, "")
            assert "no strictly dominant gamma certifiable" in err
            assert f"x=({x})" in err
            assert "conjugate pair of non-real roots" in err
            assert f"found at {first} bits" in err and "up to" not in err
            assert asked and max(asked) == first

    def test_precision_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "c-ratio", "--poly", "c:1,1,-2,-1", "--x", "0,0,1", "--precision", "32"
        )
        assert code == 1
        assert ">= 64" in err

    def test_precision_cap_refused_before_any_root_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("all_roots called for a refused --precision")

        for module in (cli, cli.convergence):
            monkeypatch.setattr(module, "all_roots", refuse)
        huge = str(10**9)
        for argv in (
            ("roots", "--poly", "c:1,1,-2,-1"),
            ("c-ratio", "--poly", "c:1,1,-2,-1", "--x", "0,0,1"),
            ("limits", "--poly", "c:1,1,-2,-1", "--x", "0,0,1", "--indices", "2,1,3,1"),
        ):
            code, out, err = run_cli(capsys, *argv, "--precision", huge)
            assert (code, out) == (1, "")
            assert f"MAX_PRECISION = {cli.MAX_PRECISION}" in err and huge in err
        assert cli.MAX_PRECISION == 1 << 16

    def test_unseparable_roots_are_a_domain_error(self, capsys):
        # (t - 1)(t - 1 - 2^-20000): all_roots refuses after 128 ... 8192 bits.
        d = 2**20000
        poly = f"c:1,{-(2 * d + 1)}/{d},{d + 1}/{d}"
        argv = ["c-ratio", "--poly", poly, "--x", "0,1", "--precision", "64"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("domain error: could not separate roots")
        # The message names f's size, not its 6000-digit coefficients.
        assert len(err.encode()) < 200 and "degree 2" in err

    def test_negative_leading_value(self, capsys):
        # argparse alone reads "-1,1,1" as an option and has --x miss its value
        spaced = run_cli(capsys, "c-ratio", "--poly", "c:1,1,-2,-1", "--x", "-1,1,1")
        joined = run_cli(capsys, "c-ratio", "--poly", "c:1,1,-2,-1", "--x=-1,1,1")
        assert spaced[0] == 0
        assert spaced == joined


class TestLimits:
    def test_quadruples(self, capsys):
        code, out, err = run_cli(
            capsys,
            "limits", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--indices", "2,1,3,1;3,1,1,2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,j,p,q,L,rate_constant,degenerate"
        assert lines[1].startswith("2,1,3,1,-0.8019377")
        assert lines[2].endswith("true")
        assert "error bar" in err  # diagnostics stay off the data stream

    def test_format_not_accepted(self, capsys):
        # limits has one output layout, so it takes no --format
        code, out, err = run_cli(
            capsys,
            "limits", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
            "--indices", "2,1,3,1", "--format", "pretty",
        )
        assert code == 1
        assert out == ""
        assert "--format" in err


class TestCompare:
    def test_negative_initial_condition(self, capsys):
        argv = ["compare", "--poly", "c:1,1,-2,-1", "--methods", "newton", "--steps", "2"]
        spaced = run_cli(capsys, *argv, "--x0", "-3/2")
        joined = run_cli(capsys, *argv, "--x0=-3/2")
        assert spaced[0] == 0
        assert spaced == joined

    def test_schema_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--poly", "c:1,1,-2,-1", "--methods", "newton,halley",
            "--x0", "-2", "--steps", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,n,value_num,value_den,abs_error,den_digits,reduced_den_digits"
        newton3 = next(l for l in lines if l.startswith("newton,3,"))
        assert newton3.split(",")[2:4] == ["-810791467", "449955054"]

    def test_error_resolved_far_below_its_reference(self, capsys):
        # |x_5 - alpha| = 6.2345772e-34 (mpmath, 400 digits); a reference
        # only 10 radii below the error printed 6.23264e-34.
        code, out, _ = run_cli(
            capsys, "compare", "--poly", "c:1,-3,1,1", "--methods", "newton",
            "--x0=-1/3", "--steps", "5",
        )
        assert code == 0
        assert out.splitlines()[-1].split(",")[:2] == ["newton", "5"]
        assert out.splitlines()[-1].split(",")[4] == "6.23458e-34"

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--poly", "c:1,1,-2,-1", "--methods", "secant",
            "--x0", "-2", "--steps", "2",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "methods,message",
        [("newton,bogus", "unknown method 'bogus'"), (",", "--methods")],
    )
    def test_bad_method_list_refused_before_any_run(self, capsys, monkeypatch, methods, message):
        calls = []
        run_method = cli.iterative.run_method
        monkeypatch.setattr(
            cli.iterative, "run_method", lambda *a: calls.append(a) or run_method(*a)
        )
        code, out, err = run_cli(
            capsys, "compare", "--poly", "c:1,1,-2,-1", "--methods", methods,
            "--x0", "-2", "--steps", "2",
        )
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("usage error:") and message in err


class TestRoots:
    @pytest.mark.parametrize(
        "poly,root",
        [("c:1,-2", f"2.{'0' * 76}e0"), ("c:1,-1/3", f"3.{'3' * 76}e-1")],
        ids=["c:1,-2", "c:1,-1/3"],
    )
    def test_linear_f_prints_its_exact_root(self, capsys, poly, root):
        # 77 significant digits at the default 256 bits, as for any real root.
        code, out, err = run_cli(capsys, "roots", "--poly", poly)
        assert (code, out, err) == (0, f"0,{root},0,0,true\n", "")

    def test_line_format(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--poly", "c:1,0,0,-1", "--precision", "64")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines] == ["0", "1", "2"]
        first = lines[0].split(",")
        assert first[0] == "0" and first[4] == "true"
        assert first[1].startswith("1.0000000") and "e" in first[1]
        assert lines[1].split(",")[4] == "false"

    def test_non_squarefree_refusal_names_sizes(self, capsys):
        d = 2**20000
        code, out, err = run_cli(capsys, "roots", f"--poly=c:1,{-2 * d},{d * d}", "--precision=64")
        assert (code, out) == (2, "")
        assert "gcd(f, f') is nonconstant" in err  # the marker perfbench's refusals match
        assert len(err.encode()) < 200 and "degree 2" in err

    def test_ramanujan_values(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--poly", "c:1,1,-2,-1", "--precision", "64")
        res = [line.split(",")[1] for line in out.splitlines()]
        assert res[0].startswith("-1.80193773")
        assert res[1].startswith("1.24697960")
        assert res[2].startswith("-4.4504186") and res[2].endswith("e-1")


class TestTables:
    def test_single_table(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "tables", "--id", "2", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "table2.csv").exists()
        assert "0 flagged" in err
        assert out.startswith("table,cell,expected,measured,status")

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPAPPROX_OUT", str(tmp_path))
        code, _, _ = run_cli(capsys, "tables", "--id", "2")
        assert code == 0
        assert (tmp_path / "table2.csv").exists()

    def test_time_reports_each_table(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "tables", "--id", "7", "--time", "--out", str(tmp_path))
        assert code == 0
        assert re.search(r"^table 7: \d+\.\d\ds$", err, re.M)

    def test_bad_id(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "tables", "--id", "9", "--out", str(tmp_path))
        assert code == 1

    def test_missing_id_names_the_option(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "tables", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert "missing required option --id" in err and "--table-id" not in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"id": "2"}))
        code, _, err = run_cli(capsys, "tables", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0 and "across tables 2;" in err

    def test_repeated_id_reports_each_cell_once(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "tables", "--id", "1,1", "--out", str(tmp_path))
        assert code == 0
        assert "checked 24 cells across tables 1;" in err
        assert (tmp_path / "discrepancies.csv").read_text().count("\n") == 25
        assert out.count("\n") == 25

    def test_parallel_jobs(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "tables", "--id", "1,2", "--out", str(tmp_path), "--jobs", "2"
        )
        assert code == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table2.csv").exists()

    def test_jobs_clamped_to_table_count(self, capsys, tmp_path, monkeypatch):
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        code, _, _ = run_cli(
            capsys, "tables", "--id", "1,2", "--out", str(tmp_path), "--jobs", "64"
        )
        assert code == 0
        assert seen == [2]

    def test_jobs_below_one_refused(self, capsys, tmp_path):
        for jobs in ("0", "-3"):
            code, _, err = run_cli(
                capsys, "tables", "--id", "1,2", "--out", str(tmp_path), "--jobs", jobs
            )
            assert code == 1
            assert "--jobs must be >= 1" in err


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"poly": "c:1,1,-2,-1", "x": "0,0,1"}))
        code, out, _ = run_cli(capsys, "c-ratio", "--config", str(cfg))
        assert code == 0
        assert "c,2.08815" in out

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"poly": "c:1,1,-2,-1", "x": "0,0,1"}))
        code, out, _ = run_cli(capsys, "c-ratio", "--config", str(cfg), "--x", "0,-1,1")
        assert code == 0
        assert "c,7.85086" in out

    def test_missing_option_message_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "approx", "--poly", "c:1,1,-2,-1")
        assert code == 1
        assert "--x" in err

    @pytest.mark.parametrize(
        "content,message",
        [(None, "No such file"), ("{bad", "Expecting property name"),
         ("[1]", "--config must contain a JSON object")],
        ids=["missing", "invalid", "array"],
    )
    def test_bad_config_file(self, capsys, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(capsys, "roots", "--poly", "c:1,0,-2", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: --config") and message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["approx", "--poly=c:1,1,-2,-1", "--x=0,-1,1", "--num=2,1", "--den=3,1",
              "--stride", "3"], "--stride requires --steps"),
            (["power", "--poly=c:1,1,-2,-1", "--x=0,-1,1", "--n=-1"], "--n must be >= 0"),
            (["compare", "--poly=c:1,1,-2,-1", "--x0=-2", "--steps", "0"],
             "--steps must be >= 1"),
        ],
        ids=["stride-without-steps", "negative-power", "zero-steps"],
    )
    def test_usage_errors_name_their_option(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"usage error: {message}\n")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_malformed_poly(self, capsys):
        code, _, err = run_cli(capsys, "repr", "--poly", "c:2,1", "--x", "1")
        assert code == 1
        assert "leading coefficient" in err


    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--num", ["approx", "--num", "2,y", "--den", "3,1", "--n", "5"]),
            ("--den", ["approx", "--num", "2,1", "--den", "3", "--n", "5"]),
            ("--n", ["approx", "--num", "2,1", "--den", "3,1", "--n", "1,x"]),
            ("--indices", ["limits", "--indices", "1,2,a,4"]),
        ],
    )
    def test_malformed_integers_are_usage_errors(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv, "--poly", "c:1,1,-2,-1", "--x", "0,-1,1")
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {flag} expects")

    def test_malformed_table_id_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--id", "1,x")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: --id expects")

    def test_config_sets_an_option_with_a_default(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"offset": "1"}))
        argv = ["approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
                "--num", "2,1", "--den", "3,1", "--n", "5", "--config", str(cfg)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1].startswith("5,157,793,")
        # The command line still beats the file.
        code, out, _ = run_cli(capsys, *argv, "--offset", "0")
        assert out.splitlines()[1].startswith("5,-636,793,")

    @pytest.mark.parametrize("config", [{"offst": "1"}, {"precision": 128}, {"jobs": "x"}])
    def test_config_key_must_be_an_option_of_the_subcommand(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "tables", "--id", "1", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")

    def test_declared_defaults(self):
        # Each default sits on its option; without --config nothing fills them.
        assert cli._parse(["approx"]).offset == "0"
        assert cli._parse(["approx"]).format == "csv"
        assert cli._parse(["compare"]).methods == "newton,halley,noor"
        args = cli._parse(["tables"])
        assert (args.jobs, args.time) == (1, False)
        for command in ("roots", "c-ratio", "limits"):
            assert cli._parse([command]).precision == cli.DEFAULT_PRECISION == 256

    def test_command_line_beats_config_at_parse_level(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 3, "time": False}))
        args = cli._parse(["tables", "--config", str(cfg)])
        assert (args.jobs, args.time) == (3, False)
        args = cli._parse(["tables", "--jobs", "2", "--time", "--config", str(cfg)])
        assert (args.jobs, args.time) == (2, True)
        cfg.write_text(json.dumps({"time": True}))
        assert cli._parse(["tables", "--config", str(cfg)]).time is True

    def test_overridden_config_value_is_still_checked(self, capsys, tmp_path):
        # Every config option goes through argparse, even one the command line overrides.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"precision": "abc"}))
        argv = ["c-ratio", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1", "--precision", "128"]
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and "abc" in err

    def test_config_leaves_the_shared_parser_as_it_was(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"offset": "1", "format": "pretty"}))
        argv = ["approx", "--poly", "c:1,1,-2,-1", "--x", "0,-1,1",
                "--num", "2,1", "--den", "3,1", "--n", "5"]
        run_cli(capsys, *argv, "--config", str(cfg))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1].startswith("5,-636,793,")  # csv, offset 0
        assert cli._build_parser() is cli._build_parser()
