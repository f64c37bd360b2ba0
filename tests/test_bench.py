import functools

import pytest

from repapprox import bench
from repapprox.backends import rational
from repapprox.bench import (
    CellComparison,
    emit_csv,
    equal_digit_pick,
    parse_expected_error,
    reproduce_table,
)
from repapprox.cli import main
from repapprox.errors import DomainError
from repapprox.powers import ApproximationRecord


class TestExpectedParsing:
    @pytest.mark.parametrize(
        "text,mant,exp,sig",
        [
            ("9.8e-7", 98, -7, 2),
            ("8e-5", 8, -5, 1),
            ("0.06", 6, -2, 1),
            ("0.002", 2, -3, 1),
            ("1.e-760", 1, -760, 1),
            ("3.7e-762", 37, -762, 2),
            ("1.0e-19", 10, -19, 2),
            ("12.5e3", 125, 4, 3),
        ],
    )
    def test_cases(self, text, mant, exp, sig):
        assert parse_expected_error(text) == (mant, exp, sig)


class TestEmitCsv:
    def test_header_only(self):
        assert emit_csv(["a", "b"], []) == "a,b\n"

    def test_sorted_deterministic(self):
        rows = [("b", 2, "x"), ("a", 10, "y"), ("a", 2, "z")]
        out1 = emit_csv(["p", "n", "v"], rows)
        out2 = emit_csv(["p", "n", "v"], list(reversed(rows)))
        assert out1 == out2
        assert out1.splitlines()[1:] == ["a,2,z", "a,10,y", "b,2,x"]

    def test_quotes_commas(self):
        out = emit_csv(["params", "n"], [("(0,-1,1)", 5)])
        assert out.splitlines()[1] == '"(0,-1,1)",5'


def _rec(n, digits, err):
    return ApproximationRecord(
        n=n,
        value=rational(1),
        abs_error=rational(err[0], err[1]),
        den_digits=digits,
        reduced_den_digits=digits,
    )


def _best_at(candidates, target):
    """The label whose equal-digit pick at `target` has the smallest error."""
    picks = {label: equal_digit_pick(records, target) for label, records in candidates.items()}
    return min(picks, key=lambda label: picks[label].abs_error)


class TestEqualDigits:
    def test_selects_largest_qualifying_n(self):
        records = [_rec(1, 2, (1, 100)), _rec(2, 4, (1, 10**4)), _rec(3, 7, (1, 10**7))]
        pick = equal_digit_pick(records, 5)
        assert pick.n == 2 and pick.reduced_den_digits == 4

    def test_single_candidate_trivially_selected(self):
        records = [_rec(1, 3, (1, 1000))]
        assert equal_digit_pick(records, 3).n == 1

    def test_unreachable_target(self):
        records = [_rec(1, 9, (1, 10))]
        assert equal_digit_pick(records, 5) is None

    def test_grid_refinement_invariance(self):
        coarse = [_rec(2, 4, (1, 10**4)), _rec(6, 12, (1, 10**12))]
        fine = coarse + [_rec(4, 8, (1, 10**8))]
        # the refinement adds a qualifying record with strictly larger n
        assert equal_digit_pick(coarse, 9).n == 2
        assert equal_digit_pick(fine, 9).n == 4

    def test_real_data_best_at_equal_digits(self, ramanujan):
        from repapprox.bench import _mn_records

        candidates = {
            "(0,-1,1)": _mn_records((0, -1, 1), range(1, 100)),
            "(69,99,-124)": _mn_records((69, 99, -124), range(1, 30)),
        }
        assert _best_at(candidates, 62) == "(0,-1,1)"

    def test_weights_0_m1_1_win_at_sixteen_digits(self):
        from repapprox.bench import WEIGHT_VECTORS, _mn_records, _wlabel

        spans = {(0, 0, 1): 60, (1, -1, 1): 40, (0, -1, 1): 40, (69, 99, -124): 12}
        candidates = {
            _wlabel(w): _mn_records(w, range(1, spans[w] + 1)) for w in WEIGHT_VECTORS
        }
        assert _best_at(candidates, 16) == "(0,-1,1)"


class TestTables:
    def test_table1_fully_reproduced(self):
        result = reproduce_table(1)
        assert len(result.cells) == 24
        assert not result.mismatches
        assert "table1.csv" in result.csv_files

    def test_table1_reference_cell(self):
        result = reproduce_table(1)
        cell = next(c for c in result.cells if c.cell == "(0,-1,1),n=50")
        assert cell.expected == "4.4e-45"
        assert cell.status == "within-tolerance"

    def test_table2_exact_digit_match(self):
        result = reproduce_table(2)
        assert len(result.cells) == 24
        assert all(c.status == "exact" for c in result.cells)

    def test_table3_rows(self):
        result = reproduce_table(3)
        assert len(result.cells) == 36  # 12 rows x (n, digits, error)
        assert not result.mismatches
        row = [c for c in result.cells if c.cell.startswith("(0,-1,1),target=16")]
        measured = {c.cell.rsplit(",", 1)[1]: c for c in row}
        assert measured["n"].measured == "23"
        assert measured["abs_error"].measured == "6.4e-21"

    def test_table5_flags_known_typo(self):
        result = reproduce_table(5)
        flagged = result.mismatches
        assert len(flagged) == 1
        assert flagged[0].cell == "(2,2)/(2,1),n=35"
        assert (flagged[0].expected, flagged[0].measured) == ("25", "24")

    def test_table7_rows(self):
        result = reproduce_table(7)
        assert not result.mismatches
        digit_cells = [c for c in result.cells if c.cell.endswith("digits")]
        assert [c.measured for c in sorted(digit_cells, key=lambda c: len(c.measured))] == [
            "8", "24", "73", "219", "658", "1975",
        ]

    def test_determinism(self):
        a = reproduce_table(1).csv_files["table1.csv"]
        b = reproduce_table(1).csv_files["table1.csv"]
        assert a == b

    def test_table6_deterministic_despite_sweep_and_budget(self):
        a = reproduce_table(6)
        b = reproduce_table(6)
        assert a.csv_files["table6.csv"] == b.csv_files["table6.csv"]
        assert a.csv_files["table6_x0_sweep.csv"] == b.csv_files["table6_x0_sweep.csv"]

    def test_every_cell_reported_once(self):
        result = reproduce_table(4)
        labels = [c.cell for c in result.cells]
        assert len(labels) == len(set(labels)) == 24

    def test_bad_table_id(self):
        with pytest.raises(DomainError):
            reproduce_table(9)

    def test_out_dir_writes_files(self, tmp_path, capsys):
        # The CLI is the one writer of table files.
        assert main(["tables", "--id", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "table2.csv").exists()
        assert (tmp_path / "discrepancies.csv").exists()
        text = (tmp_path / "discrepancies.csv").read_text()
        assert text.startswith("table,cell,expected,measured,status")
        assert text.count("\n") == 25  # header + every cell exactly once


def test_discrepancies_merge():
    results = [reproduce_table(1), reproduce_table(2)]
    merged = bench.discrepancies_csv(results)
    assert merged.count("\n") == 49  # header + 24 + 24
    assert isinstance(results[0].cells[0], CellComparison)


@functools.cache
def _result(tid):
    return reproduce_table(tid)


class TestTableSpec:
    """The transcribed constants are each table's only grid."""

    @pytest.mark.parametrize(
        "tid,count", [(1, 24), (2, 24), (3, 36), (4, 24), (5, 24), (6, 18), (7, 12)]
    )
    def test_grid_sizes(self, tid, count):
        cells = _result(tid).cells
        assert len(cells) == count
        assert len({c.cell for c in cells}) == count

    def test_every_cell_cited(self):
        for tid in range(1, 8):
            for cell in _result(tid).cells:
                assert cell.expected  # each carries its published value

    @pytest.mark.parametrize(
        "tid,sequence,ns,dropped",
        [
            (1, "ratio_sequence", {50},
             [f"{bench._wlabel(w)},n=50" for w in bench.WEIGHT_VECTORS]),
            (5, "ratio_sequence", {5}, [f"{v},n=5" for v in bench.TABLE5_DIGITS]),
            (7, "accelerated_sequence", {27},
             ["stride=3,step=3,digits", "stride=3,step=3,abs_error"]),
            # No record of (69,99,-124) up to its published n = 6 is left for
            # the 16-digit pick; every other row still finds its record.
            (3, "ratio_sequence", range(1, 11),
             [f"(69,99,-124),target=16,{c}" for c in ("n", "digits", "abs_error")]),
        ],
    )
    def test_missing_record_is_reported_once_as_unavailable(
        self, monkeypatch, tid, sequence, ns, dropped
    ):
        measured = getattr(bench, sequence)
        monkeypatch.setattr(
            bench, sequence, lambda *args: [r for r in measured(*args) if r.n not in ns]
        )
        cells = reproduce_table(tid).cells
        labels = [c.cell for c in cells]
        assert len(labels) == len(set(labels)) == len(_result(tid).cells)
        assert [c.cell for c in cells if c.status == "unavailable"] == dropped
        assert all(c.measured == "" for c in cells if c.cell in dropped)
