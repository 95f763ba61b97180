"""The on-disk table format: exact bytes of each table kind and provenance checks."""

import csv
import io
import os
from pathlib import Path

import numpy as np
import pytest

import safecert.io as io_module
from safecert import GroundTruthGrid, OneStepPairs, TrajectorySet
from safecert.io import atomic_write, format_table, parse_table, read_table

HEAD = "config=abc seed=1"


def _doubles() -> np.ndarray:
    """Random bit patterns over the whole exponent range, the edge values of
    a double, and integer-valued floats up to 2**53."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**63, 3000, dtype=np.int64) * rng.choice([-1, 1], 3000)
    doubles = bits.view(np.float64)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e-05, 1e16, 1e17,
             2.0**53, -(2.0**53), 2.0**53 - 1]
    whole = rng.integers(-(2**53), 2**53, 500).astype(float)
    values = np.concatenate([doubles[np.isfinite(doubles)], edges, whole])
    return values[:len(values) // 4 * 4].reshape(-1, 4)


def _csv_table(columns, rows, header: str = "") -> str:
    """The writer the one-pass ``format_table`` replaced: the csv module, one f-string per cell."""
    buf = io.StringIO()
    if header:
        buf.write(f"# {header}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                     for row in rows)
    return buf.getvalue()


def _csv_cells(text: str) -> tuple[list[str], list[list[float]]]:
    """The reader the one-pass ``parse_table`` replaced: column names and
    ``float()`` of each cell, comment and blank lines skipped."""
    reader = csv.reader(line for line in io.StringIO(text)
                        if line.strip() and not line.startswith("#"))
    return next(reader), [[float(v) for v in row] for row in reader]


class TestExactBytes:
    def test_trajectories(self):
        states = np.array([[[0.5, -1.0], [0.1, 2.0]]])
        ts = TrajectorySet(states=states)
        assert ts.to_csv(HEAD) == (
            "# config=abc seed=1\ntraj_id,t,x1,x2\n0,0,0.5,-1\n0,1,0.10000000000000001,2\n"
        )

    def test_pairs(self):
        pairs = OneStepPairs(x=np.array([[0.5, 0.25]]), x_next=np.array([[0.1, -2.0]]))
        assert pairs.to_csv(HEAD) == (
            "# config=abc seed=1\nx1,x2,xn1,xn2\n0.5,0.25,0.10000000000000001,-2\n"
        )

    def test_mc_grid(self):
        gt = GroundTruthGrid(grid=np.array([[0.5, 0.25]]), p_mc=np.array([0.1]))
        assert gt.to_csv(HEAD) == "# config=abc seed=1\ngx,gy,p_mc\n0.5,0.25,0.10000000000000001\n"

    def test_prediction_grid(self):
        grid, values = np.array([[0.5, 0.25]]), np.array([1e-5])
        text = format_table(["gx", "gy", "estimate"], np.column_stack([grid, values]).tolist(), HEAD)
        assert text == (
            "# config=abc seed=1\ngx,gy,estimate\n0.5,0.25,1.0000000000000001e-05\n"
        )

    def test_metrics_rows(self):
        text = format_table(["method", "alpha", "T", "seed", "rmse"],
                            [["dp", "0.95", 3, 2, 0.1]], "config=abc seed=0 kind=metrics")
        assert text == (
            "# config=abc seed=0 kind=metrics\nmethod,alpha,T,seed,rmse\n"
            "dp,0.95,3,2,0.10000000000000001\n"
        )

    def test_no_header_line_without_header(self):
        assert format_table(["a"], [[1.0]]) == "a\n1\n"


class TestOnePass:
    """``format_table`` and ``parse_table`` against per-cell references."""

    def test_floats_format_as_per_value_17g(self):
        values = _doubles()
        want = "# config=abc seed=1\na,b,c,d\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in values.tolist())
        assert format_table(["a", "b", "c", "d"], values, HEAD) == want
        assert format_table(["a", "b", "c", "d"], values.tolist(), HEAD) == want

    def test_floats_read_back_bit_for_bit(self):
        values = _doubles()
        _, columns, data = parse_table(format_table(["a", "b", "c", "d"], values, HEAD))
        assert columns == ["a", "b", "c", "d"]
        assert data.shape == values.shape
        assert np.array_equal(data.view(np.int64), values.view(np.int64))

    def test_mixed_metrics_rows_keep_their_bytes(self):
        rows = [[m, a, T, seed, np.float64(0.1 * seed), 1e-5 * T, float(seed), 2.0**53]
                for m in ("direct", "dp") for a in ("0", "0.95") for T in (3, 15)
                for seed in (1, 2)]
        columns = ["method", "alpha", "T", "seed", "rmse", "brier", "rel", "res"]
        head = "config=abc seed=0 kind=metrics"
        assert format_table(columns, rows, head) == _csv_table(columns, rows, head)

    def test_trajectory_ids_print_as_integers(self):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((12, 4, 2))
        rows = [[i, t, *x] for i, traj in enumerate(states) for t, x in enumerate(traj.tolist())]
        assert TrajectorySet(states=states).to_csv(HEAD) == _csv_table(
            ["traj_id", "t", "x1", "x2"], rows, HEAD)

    @pytest.mark.parametrize("rows", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_no_rows_write_the_header_and_the_column_line(self, rows):
        assert format_table(["a", "b"], rows, HEAD) == "# config=abc seed=1\na,b\n"

    @pytest.mark.parametrize("rows, row", [
        ([["dp", 0.5], ["dp", 1]], 1),
        ([["dp", 1], ["dp", 0.5]], 1),
        ([["dp", 0.5], ["dp", 0.25], ["dp", "0.125"]], 2),
    ])
    def test_a_column_of_floats_and_other_cells_is_refused(self, rows, row):
        with pytest.raises(ValueError, match=rf"^row {row}, column rmse mixes floats with other"):
            format_table(["method", "rmse"], rows)

    @pytest.mark.parametrize("rows", [[[0.5, 1.0], [2.0]], np.zeros((2, 3)), np.zeros(2)],
                             ids=["list", "wide-array", "flat-array"])
    def test_a_row_of_another_width_is_refused(self, rows):
        with pytest.raises(ValueError, match="row 1 has 1 cells, not 2|not a table of 2 columns"):
            format_table(["a", "b"], rows)

    @pytest.mark.parametrize("columns, rows", [
        (["a,b"], [[1.0]]), (["a"], [["x,y"]]), (["a"], [['say "x"']]), (["a"], [["x\ny"]]),
    ])
    def test_a_cell_the_format_cannot_hold_is_refused(self, columns, rows):
        with pytest.raises(ValueError, match="holds a comma, a quote or a line break"):
            format_table(columns, rows)

    @pytest.mark.parametrize("text, error", [
        ("a,b\n1,2\n3\n4,5\n", "row 1 has 1 cells, not 2"),
        ("a,b\n1,2\n3,4\n5,6,7\n", "row 2 has 3 cells, not 2"),
        ("# h\na,b,c\n\n1,2\n", "row 0 has 2 cells, not 3"),
    ], ids=["short", "long", "after-a-blank-line"])
    def test_a_ragged_row_is_refused_by_row(self, text, error):
        with pytest.raises(ValueError, match=rf"^{error}$"):
            parse_table(text)

    @pytest.mark.parametrize("text", [
        "# config=abc seed=1\n\nx,y\n0.5,-1\n\n# note\n2,1e-05\n",
        "# config=abc\r\nx,y\r\n0.5,-1\r\n\r\n# note\r\n2,1e-05\r\n",
        "x,y\n  \n0.5, -1\n# a,b,c\n2 ,1e-05\n\n",
    ], ids=["blank-and-comment", "crlf", "spaces"])
    def test_skipped_lines_read_as_the_csv_reader_read_them(self, text):
        columns, rows = _csv_cells(text)
        fields, got_columns, data = parse_table(text)
        assert got_columns == columns
        assert data.tolist() == rows
        assert fields == ({"config": "abc", "seed": "1"} if "seed" in text
                          else {"config": "abc"} if "config" in text else {})


class TestParse:
    def test_fields_columns_and_values(self):
        fields, columns, data = parse_table(
            "# config=abc seed=1 T=3\n\nx,y\n0.5,-1\n# note\n2,1e-05\n"
        )
        assert fields == {"config": "abc", "seed": "1", "T": "3"}
        assert columns == ["x", "y"]
        assert data.tolist() == [[0.5, -1.0], [2.0, 1e-05]]

    def test_header_only_table_is_empty(self):
        _, columns, data = parse_table("# config=abc seed=1\ngx,gy,p_mc\n")
        assert data.shape == (0, 3)

    def test_string_cells(self):
        _, _, data = parse_table("method,rmse\ndp,0.5\n", dtype=str)
        assert data.tolist() == [["dp", "0.5"]]

    def test_no_header_fields_without_comment(self):
        assert parse_table("a,b\n1,2\n")[0] == {}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_refused_by_row_and_column(self, value):
        with pytest.raises(ValueError, match=rf"^row 1, column y is not finite \({value}\)$"):
            parse_table(f"x,y\n0.5,1\n2,{value}\n")

    def test_string_cells_are_not_checked(self):
        assert parse_table("method,rmse\nnan,inf\n", dtype=str)[2].tolist() == [["nan", "inf"]]


class TestReadTable:
    def test_matching_header_returns_the_cells(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc seed=1 T=3\na,b\n1,2\n")
        assert read_table(path, ["a", "b"], config="abc", seed=1, T=3).tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("text, error", [
        ("# config=abc\na,b\n1,nan\n", "row 0, column b is not finite (nan)"),
        ("# config=abc\na,b\n1,x\n", "could not convert string to float: 'x'"),
    ])
    def test_decode_error_is_prefixed_with_the_path(self, tmp_path: Path, text, error):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_table(path, ["a", "b"], config="abc")
        assert str(exc.value) == f"{path}: {error}"

    def test_trajectory_decode_error_is_prefixed_with_the_path(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc\ntraj_id,t,x1\n0,0,1\n0,2,1\n")
        with pytest.raises(ValueError) as exc:
            read_table(path, ["traj_id", "t", "x1"], TrajectorySet.from_table, config="abc")
        assert str(exc.value) == (f"{path}: row 1: expected trajectory 0 at t = 1, "
                                  "found trajectory 0 at t = 2")

    def test_matching_column_line_returns_the_cells(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc\na,b\n1,2\n")
        assert read_table(path, ["a", "b"], config="abc").tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("line", ["a,B", "b,a", "a", "a,b,c"])
    def test_other_column_line_names_both_lists(self, tmp_path: Path, line):
        """Columns are read by position, so a renamed, reordered, missing or
        extra column is refused before the cells are decoded."""
        decoded = []
        path = tmp_path / "t.csv"
        path.write_text(f"# config=abc\n{line}\n{','.join(['1'] * len(line.split(',')))}\n")
        with pytest.raises(ValueError) as exc:
            read_table(path, ["a", "b"], decoded.append, config="abc")
        assert str(exc.value) == f"{path}: columns are {line.split(',')}, not ['a', 'b']"
        assert decoded == []

    @pytest.mark.parametrize("text", [
        "", "\n", "# c=1\n", "a,b", "a,b\n1,2\n", "# c=1\n\n  \n#x\na,b\n1,2\n",
        "# c=1\r\na,b\r\n1,2\r\n", "\r\n\r\na,b\r\n", "# c=1\ra,b\r1,2", " #x\n",
        "# c=1\n\x0c\x0b\na\x0bb\n", "\n\n# c=1\n\t\n a,b \n",
    ])
    def test_column_line_is_the_first_data_line(self, text):
        """The column line ``read_table`` checks is the parsed one: the first
        line that is neither blank nor a comment, as ``str.splitlines`` splits."""
        lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
        if not lines:
            with pytest.raises(ValueError, match="^the table has no column line$"):
                parse_table(text, dtype=str)
        else:
            assert parse_table(text, dtype=str)[1] == lines[0].split(",")

    def test_column_check_splits_the_text_once(self, tmp_path: Path, monkeypatch):
        """The column line is checked on the one parse of the text, which the
        decoder's cells come from."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"# config=abc\r\n\r\n# note\r\na,b\r\n1,2\r\n3,4\r\n")
        texts = []
        data_lines = io_module._data_lines
        monkeypatch.setattr(io_module, "_data_lines", lambda text: texts.append(text) or data_lines(text))
        got = read_table(path, ["a", "b"], np.transpose, config="abc")
        assert got.tolist() == [[1.0, 3.0], [2.0, 4.0]]
        assert [t for t in texts if "1,2" in t] == [path.read_text()]

    def test_missing_file(self, tmp_path: Path):
        with pytest.raises(FileNotFoundError, match="missing data file"):
            read_table(tmp_path / "nope.csv", ["a"], config="abc")

    def test_other_config_names_both_hashes(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc seed=1 T=3\na\n1\n")
        with pytest.raises(ValueError, match="config=abc seed=1 T=3, not config=def seed=1 T=3"):
            read_table(path, ["a"], config="def", seed=1, T=3)

    def test_header_is_checked_before_the_text_is_parsed(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc\nb,a\n1,2,3\nnan\n")
        with pytest.raises(ValueError, match=r"config=abc, not config=def$"):
            read_table(path, ["a", "b"], config="def")

    def test_a_broken_row_is_reported_before_the_column_line(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc\nb,a\n1,2\n3\n")
        with pytest.raises(ValueError) as exc:
            read_table(path, ["a", "b"], config="abc")
        assert str(exc.value) == f"{path}: row 1 has 1 cells, not 2"

    def test_missing_field_is_a_mismatch(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError, match="config=None"):
            read_table(path, ["a"], config="abc")


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077, 0o027])
    def test_file_mode_is_what_open_gives(self, tmp_path: Path, umask):
        """The temp file is created with mode 0o666 that the OS reduces by
        the umask, so the renamed file has the mode a plain ``open`` gives."""
        old = os.umask(umask)
        try:
            atomic_write(tmp_path / "a" / "t.csv", "a\n1\n")
            # reading the umask leaves it as it was
            assert os.umask(umask) == umask
            with open(tmp_path / "plain.csv", "w") as fh:
                fh.write("a\n1\n")
        finally:
            os.umask(old)
        mode = (tmp_path / "a" / "t.csv").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask == (tmp_path / "plain.csv").stat().st_mode & 0o777
        assert (tmp_path / "a" / "t.csv").read_text() == "a\n1\n"
        assert not list(tmp_path.glob("**/*.tmp"))
