import json
import time

from repapprox import cli
from repapprox.cli import main


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

    def test_precision_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "c-ratio", "--poly", "c:1,1,-2,-1", "--x", "0,0,1", "--precision", "32"
        )
        assert code == 1
        assert ">= 64" in err

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


class TestRoots:
    def test_line_format(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--poly", "c:1,0,0,-1", "--precision", "64")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        first = lines[0].split(",")
        assert first[0] == "0" and first[4] == "true"
        assert first[1].startswith("1.0000000") and "e" in first[1]
        assert lines[1].split(",")[4] == "false"

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

    def test_bad_id(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "tables", "--id", "9", "--out", str(tmp_path))
        assert code == 1

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

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_malformed_poly(self, capsys):
        code, _, err = run_cli(capsys, "repr", "--poly", "c:2,1", "--x", "1")
        assert code == 1
        assert "leading coefficient" in err
