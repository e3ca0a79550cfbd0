"""CSV loading, bundled datasets and the table writers."""

import json
import math

import numpy as np
import pytest

from renyireg.data import (
    BUNDLED_DATASETS,
    exclude_rows,
    load_csv,
    load_dataset,
    write_csv,
    write_json,
)
from renyireg.exceptions import DomainError


class TestLoadCsv:
    def test_toy_file_with_header(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x\n1.0,2.0\n2.0,3.0\n3.5,4.0\n")
        data = load_csv(path, response_column="y", covariate_columns=["x"])
        assert data.design.shape == (3, 2)
        np.testing.assert_array_equal(data.design[:, 0], np.ones(3))
        np.testing.assert_array_equal(data.response, [1.0, 2.0, 3.5])

    def test_positional_columns_no_header(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0\n2.0,3.0\n3.5,4.0\n")
        data = load_csv(path, response_column=0, covariate_columns=[1], header=False)
        assert data.design.shape == (3, 2)

    @pytest.mark.parametrize("position", [-1, 2])
    def test_column_position_outside_the_row(self, tmp_path, position):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0\n2.0,3.0\n3.5,4.0\n")
        with pytest.raises(DomainError, match=f"column position {position} outside 0..1"):
            load_csv(path, response_column=0, covariate_columns=[position], header=False)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x\n1.0,2.0\n2.0,3.0\n3.0,4.0\n")
        with pytest.raises(DomainError) as err:
            load_csv(path, response_column="z", covariate_columns=["x"])
        assert "'z'" in str(err.value)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x\n1.0,2.0\nbad,3.0\n3.0,4.0\n")
        with pytest.raises(DomainError) as err:
            load_csv(path, response_column="y", covariate_columns=["x"])
        assert "row 2" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("column", ["y", "x"])
    def test_non_finite_cell_reports_location(self, tmp_path, cell, column):
        # refused where it is read, not later as a non-finite response or design
        rows = [["1.0", "2.0"], ["2.0", "3.0"], ["3.0", "4.0"]]
        rows[1][column == "x"] = cell
        path = tmp_path / "toy.csv"
        path.write_text("y,x\n" + "".join(",".join(row) + "\n" for row in rows))
        at = f"non-finite value {cell!r} at row 2, column {int(column == 'x')}"
        with pytest.raises(DomainError, match=at):
            load_csv(path, response_column="y", covariate_columns=["x"])

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x\n1.0,2.0\n2.0,\n3.0,4.0\n")
        with pytest.raises(DomainError):
            load_csv(path, response_column="y", covariate_columns=["x"])

    def test_log_log_requires_positive(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x\n1.0,2.0\n-2.0,3.0\n3.0,4.0\n")
        with pytest.raises(DomainError):
            load_csv(path, response_column="y", covariate_columns=["x"], transform="log_log")

    @pytest.mark.parametrize(
        "text, kwargs, named",
        [
            ("y,x\n1.0,2.0\n", {"transform": "log"}, "unknown transform 'log'"),
            ("", {}, "no data rows"),
            ("\n , \n", {}, "no data rows"),
            ("y,x\n", {}, "no data rows"),
            ("1.0,2.0\n2.0,3.0\n", {"header": False}, "named but the file has no header"),
        ],
        ids=["unknown transform", "empty file", "blank rows", "header only", "no header"],
    )
    def test_refused(self, tmp_path, text, kwargs, named):
        path = tmp_path / "toy.csv"
        path.write_text(text)
        with pytest.raises(DomainError, match=named):
            load_csv(path, response_column="y", covariate_columns=["x"], **kwargs)


class TestBundled:
    def test_brain_weight_shape_and_logs(self):
        ds = load_dataset("brain_weight")
        assert ds.n_obs == 28
        assert ds.outlier_rows == (6, 16, 25)
        # first animal weighs 1.35 kg with an 8.1 g brain; stored rows are
        # the natural logs of those values
        assert ds.data.response[0] == pytest.approx(math.log(8.1), rel=1e-12)
        assert ds.data.design[0, 1] == pytest.approx(math.log(1.35), rel=1e-12)

    def test_first_word_shape(self):
        ds = load_dataset("first_word")
        assert ds.n_obs == 21
        assert ds.outlier_rows == (18,)
        # row 18 (1-based) is the flagged child: age 17 months, score 121
        assert ds.data.design[17, 1] == 17.0
        assert ds.data.response[17] == 121.0

    @pytest.mark.parametrize("name", sorted(BUNDLED_DATASETS))
    def test_table_entry_loads(self, name):
        response, covariates, transform, outlier_rows = BUNDLED_DATASETS[name]
        ds = load_dataset(name)
        assert (ds.name, ds.transform, ds.outlier_rows) == (name, transform, outlier_rows)
        assert ds.data.design.shape == (ds.n_obs, len(covariates) + 1)
        assert exclude_rows(ds.data, outlier_rows).n_obs == ds.n_obs - len(outlier_rows)

    def test_unknown_dataset(self):
        with pytest.raises(DomainError):
            load_dataset("nope")

    def test_exclude_rows(self):
        ds = load_dataset("brain_weight")
        sub = exclude_rows(ds.data, ds.outlier_rows)
        assert sub.n_obs == 25
        assert exclude_rows(ds.data, []) is ds.data
        with pytest.raises(DomainError):
            exclude_rows(ds.data, [0])
        with pytest.raises(DomainError):
            exclude_rows(ds.data, [29])

    @pytest.mark.parametrize("rows", [[1.7], [True], [2, 1.0], ["1"]])
    def test_exclude_rows_refuses_non_integer_rows(self, rows):
        # int() would have dropped row 1 for 1.7 and True
        ds = load_dataset("brain_weight")
        with pytest.raises(DomainError, match="row indices must be integers in 1..28"):
            exclude_rows(ds.data, rows)
        assert exclude_rows(ds.data, [np.int64(1), 1]).n_obs == 27


class TestWriters:
    def test_csv_floats_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [0.1, np.float64(1 / 3), -2.5e-300]
        write_csv(path, ["x", "flag", "label"], [[v, True, "a"] for v in values])
        header, *rows = path.read_text().splitlines()
        assert header == "x,flag,label"
        # numpy scalars are written as plain numbers
        assert [row.split(",")[0] for row in rows] == [repr(float(v)) for v in values]
        assert [float(row.split(",")[0]) for row in rows] == values
        assert rows[0].split(",")[1:] == ["True", "a"]

    def test_json_sorted_and_stringified(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1.5, "a": tmp_path})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": str(tmp_path), "b": 1.5}
