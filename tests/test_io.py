"""The on-disk table format: exact bytes of each table kind and provenance checks."""

from pathlib import Path

import numpy as np
import pytest

from safecert import GroundTruthGrid, OneStepPairs, TrajectorySet
from safecert.io import format_table, parse_table, read_table

HEAD = "config=abc seed=1"


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
        assert read_table(path, config="abc", seed=1, T=3).tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("text, error", [
        ("# config=abc\na,b\n1,nan\n", "row 0, column b is not finite (nan)"),
        ("# config=abc\na,b\n1,x\n", "could not convert string to float: 'x'"),
    ])
    def test_decode_error_is_prefixed_with_the_path(self, tmp_path: Path, text, error):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_table(path, config="abc")
        assert str(exc.value) == f"{path}: {error}"

    def test_trajectory_decode_error_is_prefixed_with_the_path(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc\ntraj_id,t,x1\n0,0,1\n0,2,1\n")
        with pytest.raises(ValueError) as exc:
            read_table(path, TrajectorySet.from_csv, config="abc")
        assert str(exc.value) == (f"{path}: row 1: expected trajectory 0 at t = 1, "
                                  "found trajectory 0 at t = 2")

    def test_missing_file(self, tmp_path: Path):
        with pytest.raises(FileNotFoundError, match="missing data file"):
            read_table(tmp_path / "nope.csv", config="abc")

    def test_other_config_names_both_hashes(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("# config=abc seed=1 T=3\na\n1\n")
        with pytest.raises(ValueError, match="config=abc seed=1 T=3, not config=def seed=1 T=3"):
            read_table(path, config="def", seed=1, T=3)

    def test_missing_field_is_a_mismatch(self, tmp_path: Path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError, match="config=None"):
            read_table(path, config="abc")
