"""Parquet repository: canonicalization, round-trips, cells dataset."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.lake.repository import (
    RepositoryBuilder,
    StaleLakeError,
    TableRepository,
    canon_str,
    to_spark,
)
from tests.conftest import jobs_started, stale_layout


def _cells(repo: TableRepository) -> pd.DataFrame:
    """The whole cells dataset, read through pyarrow."""
    return pq.read_table(repo.cells_path()).to_pandas()


class TestCanonStr:
    def test_ints(self):
        out = canon_str(pd.DataFrame({"a": [1, 2]}))
        assert out["a"].tolist() == ["1", "2"]

    def test_integral_floats_lose_point(self):
        out = canon_str(pd.DataFrame({"a": [1.0, 2.5]}))
        assert out["a"].tolist() == ["1", "2.5"]

    def test_nan_to_none(self):
        out = canon_str(pd.DataFrame({"a": [1.0, np.nan]}))
        assert out["a"].tolist() == ["1", None]

    def test_dates_iso(self):
        out = canon_str(pd.DataFrame({"a": pd.to_datetime(["1992-01-03"])}))
        assert out["a"].tolist() == ["1992-01-03"]

    def test_strings_passthrough(self):
        out = canon_str(pd.DataFrame({"a": ["x", None]}))
        assert out["a"].tolist() == ["x", None]

    def test_same_value_same_string_across_dtypes(self):
        # the property discovery relies on: typed 42 and float 42.0 meet
        a = canon_str(pd.DataFrame({"v": [42]}))["v"][0]
        b = canon_str(pd.DataFrame({"v": [42.0]}))["v"][0]
        assert a == b == "42"

    def test_column_order_preserved(self):
        out = canon_str(pd.DataFrame({"b": [1], "a": [2]}))
        assert list(out.columns) == ["b", "a"]


class TestRepository:
    @pytest.fixture()
    def repo(self, tmp_path):
        b = RepositoryBuilder(tmp_path / "lake")
        b.add("t1", pd.DataFrame({"k": [1, 2], "v": ["x", None]}), meta={"kind": "demo"})
        b.add("t2", pd.DataFrame({"a": [1.5], "b": ["y"]}))
        return b.finish()

    def test_manifest(self, repo):
        assert repo.names() == ["t1", "t2"]
        assert repo.columns("t1") == ["k", "v"]
        assert repo.rows("t1") == 2
        assert repo.meta("t1") == {"kind": "demo"}

    def test_duplicate_name_rejected(self, tmp_path):
        b = RepositoryBuilder(tmp_path / "lake2")
        b.add("t", pd.DataFrame({"a": [1]}))
        with pytest.raises(ValueError):
            b.add("t", pd.DataFrame({"a": [2]}))

    def test_pandas_roundtrip_nulls(self, repo):
        pdf = repo.load_pdf("t1")
        assert pdf["v"].tolist() == ["x", None]
        assert pdf["k"].tolist() == ["1", "2"]

    def test_spark_roundtrip(self, spark, repo):
        df = repo.load(spark, "t1")
        assert df.columns == ["k", "v"]
        assert {tuple(r) for r in df.collect()} == {("1", "x"), ("2", None)}
        assert all(f.dataType.typeName() == "string" for f in df.schema.fields)

    def test_cells_distinct_nonnull(self, repo):
        cells = _cells(repo)
        t1 = cells[cells["table"] == "t1"]
        assert set(map(tuple, t1[["col", "value"]].values)) == {
            ("k", "1"),
            ("k", "2"),
            ("v", "x"),  # null cell not emitted
        }

    def test_cells_cover_all_tables(self, repo):
        assert set(_cells(repo)["table"]) == {"t1", "t2"}

    def test_stats(self, repo):
        s = repo.stats()
        assert s["tables"] == 2
        assert s["cols"] == 4
        assert s["avg_rows"] == pytest.approx(1.5)
        assert s["size_mb"] > 0

    def test_reopen(self, repo):
        re = TableRepository(repo.root)
        assert re.names() == repo.names()

    def test_load_and_cells_start_no_spark_job(self, spark, repo):
        # the schema comes from the manifest, so no Parquet footer is read
        # by a schema-inference job; the cells are scanned in process
        (df, hits), jobs = jobs_started(
            spark,
            lambda: (repo.load(spark, "t1"), repo.cells_with_values(pa.array(["1", "y"]))),
        )
        assert jobs == []
        assert df.columns == ["k", "v"]
        assert hits.to_pylist() == [
            {"table": "t1", "col": "k", "value": "1"},
            {"table": "t2", "col": "b", "value": "y"},
        ]


class TestExtents:
    def test_distinct_nonnull_counts(self, tmp_path):
        pdf = pd.DataFrame(
            {
                "k": [1, 2, 3, 4],
                "rep": ["x", "x", "y", None],  # a repeated value
                "none": [None, None, None, None],  # an all-null column
            }
        )
        b = RepositoryBuilder(tmp_path / "lake")
        b.add("t", pdf)
        repo = b.finish()
        assert repo.manifest["t"]["extents"] == {"k": 4, "rep": 2, "none": 0}
        canon = canon_str(pdf)
        assert all(repo.extent("t", c) == canon[c].dropna().nunique() for c in pdf)
        # and equal to the column's rows in the cells dataset
        assert _cells(repo)["col"].value_counts().to_dict() == {"k": 4, "rep": 2}

    def test_manifest_without_extents_fails_loudly(self, tmp_path):
        b = RepositoryBuilder(tmp_path / "lake")
        b.add("t", pd.DataFrame({"a": [1]}))
        b.finish()
        root = stale_layout(tmp_path / "lake", {"seed": 0})
        with pytest.raises(StaleLakeError, match="rebuild this lake"):
            TableRepository(root)


class TestToSpark:
    def test_all_null_column(self, spark):
        df = to_spark(spark, pd.DataFrame({"a": ["x"], "b": [None]}))
        r = df.collect()[0]
        assert (r["a"], r["b"]) == ("x", None)

    def test_empty_frame(self, spark):
        df = to_spark(spark, pd.DataFrame(columns=["a", "b"]))
        assert df.count() == 0
        assert df.columns == ["a", "b"]
