"""Parquet repository: canonicalization, round-trips, cells dataset."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.lake import repository
from repro.lake.repository import (
    RepositoryBuilder,
    StaleLakeError,
    TableRepository,
    canon_arrow,
    canon_str,
    to_spark,
)
from tests import repository_reference as ref
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

    def test_string_dtype_missing_to_none(self):
        out = canon_str(pd.DataFrame({"s": pd.array(["a", None], dtype="string")}))
        assert out["s"].tolist() == ["a", None]

    def test_pd_na_and_nat_in_object_to_none(self):
        pdf = pd.DataFrame({"s": pd.Series(["a", pd.NA, pd.NaT, np.nan, None], dtype=object)})
        assert canon_str(pdf)["s"].tolist() == ["a", None, None, None, None]
        assert canon_arrow(pdf)["s"].to_pylist() == ["a", None, None, None, None]


def _missing(v) -> bool:
    return pd.api.types.is_scalar(v) and pd.isna(v)


# column kinds for the seeded frames; the second list holds the missing
# values the per-cell reference writes as text ('<NA>', 'NaT')
_KINDS = [
    "str", "np_str", "datetime", "float", "int64", "Int64", "bool", "mixed", "all_null", "all_nan",
]
_NULL_TEXT_KINDS = ["string", "obj_na", "obj_nat"]


def _column(rng: np.random.Generator, kind: str, n: int) -> pd.Series:
    def pick(pool):  # every pool value when there are enough rows
        pool = np.array(pool, dtype=object)
        if n < len(pool):
            return rng.choice(pool, n) if n else pool[:0]
        return rng.permutation(np.concatenate([pool, rng.choice(pool, n - len(pool))]))

    if kind == "str":  # duplicates come from the small pool
        return pd.Series(pick(["a", "b", "x y", "", "ü", "##NULL##k", None, np.nan]), dtype=object)
    if kind == "np_str":  # a str subclass is formatted, not passed through
        return pd.Series(pick([np.str_("s"), "a", None]), dtype=object)
    if kind == "datetime":
        days = pick(["1992-01-03", "1998-12-31 13:45", None])
        return pd.Series(pd.to_datetime(days, format="ISO8601"))
    if kind == "float":
        pool = [3.0, 1e20, -0.0, np.inf, -np.inf, np.nan, 2.5, 0.1, 1 / 3, -7.0]
        return pd.Series(pick(pool).astype(float))
    if kind == "int64":
        return pd.Series(rng.integers(-5, 5, n))
    if kind == "Int64":
        return pd.Series(pd.array(list(pick([1, -2, 30, None])), dtype="Int64"))
    if kind == "bool":
        return pd.Series(rng.random(n) < 0.5)
    if kind == "mixed":
        pool = [np.str_("s"), 7, b"by", "##NULL##x", "a", None, np.nan, 2.5, 1.0, np.float64(4.0)]
        return pd.Series(pick(pool), dtype=object)
    if kind == "all_null":
        return pd.Series([None] * n, dtype=object)
    if kind == "all_nan":
        return pd.Series([np.nan] * n, dtype=float)
    if kind == "string":
        return pd.Series(pd.array(list(pick(["a", "b", None])), dtype="string"))
    if kind == "obj_na":
        return pd.Series(pick(["a", pd.NA, None]), dtype=object)
    assert kind == "obj_nat"
    return pd.Series(pick(["a", pd.NaT, 5]), dtype=object)


def _frame(rng: np.random.Generator, kinds: list[str], n: int) -> pd.DataFrame:
    cols = rng.choice(kinds, int(rng.integers(1, 7)))
    return pd.DataFrame({f"c{j}": _column(rng, k, n) for j, k in enumerate(cols)})


def _frames(seed: int, kinds: list[str]) -> dict[str, pd.DataFrame]:
    """Seeded frames of 0–12 rows, one with every kind and value and one
    empty."""
    rng = np.random.default_rng(seed)
    out = {f"t{i:02d}": _frame(rng, kinds, int(rng.integers(0, 13))) for i in range(30)}
    out["every_kind"] = pd.DataFrame({k: _column(rng, k, 12) for k in kinds})
    out["empty"] = pd.DataFrame({k: _column(rng, k, 0) for k in kinds})
    return out


class TestCanonStrMatchesReference:
    """``canon_str`` against the per-cell reference, cell by cell: the
    same string of the same type, and None wherever the input is missing
    (where the reference writes '<NA>' or 'NaT')."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cells(self, seed):
        for name, pdf in _frames(seed, _KINDS + _NULL_TEXT_KINDS).items():
            got, want = canon_str(pdf), ref.canon_str(pdf)
            assert list(got.columns) == list(want.columns), name
            assert got.index.equals(want.index), name
            for c in pdf.columns:
                for v, g, w in zip(pdf[c], got[c], want[c]):
                    w = None if _missing(v) else w
                    assert g == w and type(g) is type(w), (name, c, v, g, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_arrow_is_canon_str(self, seed):
        for name, pdf in _frames(seed, _KINDS + _NULL_TEXT_KINDS).items():
            tbl = canon_arrow(pdf)
            assert tbl.schema == pa.schema([(c, pa.string()) for c in pdf.columns]), name
            assert tbl.to_pydict() == {c: list(v) for c, v in canon_str(pdf).items()}, name


class TestBuilderMatchesReference:
    """The builder against the per-cell reference: the same table files, cell
    parts (rows in order) and manifest, on seeded frames of every kind the
    reference writes as this builder does."""

    @pytest.mark.parametrize("seed", range(3))
    def test_same_lake(self, tmp_path, monkeypatch, seed):
        monkeypatch.setattr(repository, "_CELLS_FLUSH_EVERY", 4)  # several parts
        frames = _frames(seed, _KINDS)
        new, old = RepositoryBuilder(tmp_path / "new"), ref.ReferenceBuilder(tmp_path / "old")
        for i, (name, pdf) in enumerate(frames.items()):
            meta = {"i": i} if i % 2 else None
            new.add(name, pdf, meta=meta)
            old.add(name, pdf, meta=meta)
        new.finish()
        old.finish()
        assert len(list((tmp_path / "new" / "cells").glob("*.parquet"))) > 2
        assert ref.same_lake(tmp_path / "new", tmp_path / "old") == []


class TestLoadPdf:
    @pytest.mark.parametrize("seed", range(2))
    def test_equals_read_table(self, tmp_path, seed):
        # load_pdf reads through ParquetFile; the frame must be the one
        # pq.read_table gives, for every kind of column and the empty table
        b = RepositoryBuilder(tmp_path / "lake")
        for name, pdf in _frames(seed, _KINDS + _NULL_TEXT_KINDS).items():
            b.add(name, pdf)
        repo = b.finish()
        for name in repo.names():
            want = pq.read_table(repo.table_path(name)).to_pandas()
            got = repo.load_pdf(name)
            pd.testing.assert_frame_equal(got, want)
            assert got.values.tolist() == want.values.tolist()


class TestRowsPermutedOnWrite:
    """The benchmark's lake protocol (``reclaimbench.workloads``) wraps
    ``RepositoryBuilder.add``: inside it every table is written in
    permuted row order, with the cells and manifest of an unpermuted
    build."""

    def test_permuted_tables_same_cells(self, tmp_path):
        from reclaimbench.workloads import _rows_permuted_on_write

        frames = _frames(0, _KINDS)
        plain = RepositoryBuilder(tmp_path / "plain")
        for name, pdf in frames.items():
            plain.add(name, pdf, meta={"name": name})
        plain = plain.finish()
        add = RepositoryBuilder.add
        with _rows_permuted_on_write(np.random.default_rng(7)):
            b = RepositoryBuilder(tmp_path / "permuted")
            for name, pdf in frames.items():
                b.add(name, pdf, meta={"name": name})
            permuted = b.finish()
        assert RepositoryBuilder.add is add
        assert permuted.manifest == plain.manifest

        perms = np.random.default_rng(7)
        cells, plain_cells = _cells(permuted), _cells(plain)
        moved = 0
        for name, pdf in frames.items():
            at = perms.permutation(len(pdf))
            got, want = permuted.load_pdf(name), plain.load_pdf(name)
            pd.testing.assert_frame_equal(got, want.iloc[at].reset_index(drop=True))
            moved += not got.equals(want)
            assert set(map(tuple, cells[cells["table"] == name].values)) == set(
                map(tuple, plain_cells[plain_cells["table"] == name].values)
            )
        assert moved > 10


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
