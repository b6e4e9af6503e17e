"""Parquet-backed data lake repository.

A repository is a directory:

    root/
      manifest.json            # {name: {"columns": [...], "rows": n,
                               #         "extents": {col: n_distinct}, "meta": {...}}}
      tables/<name>.parquet    # one all-string Parquet file per table
      cells/part-*.parquet     # consolidated (table, col, value) distinct cells

Every table is canonicalized to nullable strings on ingest (web-table
semantics; Gen-T matches values syntactically — see DESIGN.md §4.1), so
outer union / subsumption / complementation and the DuckDB oracle all see
one uniform type. The *cells* dataset is appended at build time so that
candidate discovery over a 15K-table lake is a single distributed
filtered Spark scan instead of 15K file opens (DESIGN.md §2.1). Each column's
*extent* — its number of distinct non-null values, i.e. its rows in the
cells dataset — is written into the manifest at the same time, so
discovery's Jaccard signal needs no second Spark query. Every schema is
known from the manifest, so reads pass it to Spark and start no
schema-inference job.
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StringType, StructField, StructType

_CELLS_FLUSH_EVERY = 200  # tables per cells parquet part file
_CELLS_COLUMNS = ["table", "col", "value"]


class StaleLakeError(ValueError):
    """The repository on disk was written by an older builder."""


def _string_schema(columns: list[str]) -> StructType:
    """All-nullable-string Spark schema with the given column order."""
    return StructType([StructField(c, StringType(), True) for c in columns])


def canon_str(pdf: pd.DataFrame) -> pd.DataFrame:
    """Canonicalize a pandas frame to nullable-string columns.

    Deterministic formatting so the same typed value always produces the
    same string on the source side and the lake side: dates → ISO days,
    integral floats → integer strings, other floats → repr with trailing
    zeros stripped, NaN/NaT/None → None.
    """
    out = {}
    for c in pdf.columns:
        s = pdf[c]
        if pd.api.types.is_datetime64_any_dtype(s):
            out[c] = s.dt.strftime("%Y-%m-%d")
        elif pd.api.types.is_float_dtype(s):
            def _fmt(v):
                if pd.isna(v):
                    return None
                if float(v).is_integer():
                    return str(int(v))
                return np.format_float_positional(float(v), trim="-")
            out[c] = s.map(_fmt)
        elif pd.api.types.is_integer_dtype(s) or pd.api.types.is_bool_dtype(s):
            out[c] = s.astype("object").map(lambda v: None if pd.isna(v) else str(v))
        else:
            out[c] = s.astype("object").map(
                lambda v: None if (v is None or (isinstance(v, float) and pd.isna(v))) else str(v)
            )
    res = pd.DataFrame(out, columns=list(pdf.columns))
    return res.where(res.notna(), None)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """pandas → all-string Spark DataFrame with an explicit schema.

    Explicit schema so all-null columns (legal in canonical form) do not
    break Spark's type inference. The frame goes over as Arrow batches when
    the session enables Arrow, not as pickled Python rows.
    """
    spdf = canon_str(pdf)
    return spark.createDataFrame(spdf, schema=_string_schema(list(spdf.columns)))


def to_arrow(pdf: pd.DataFrame) -> pa.Table:
    """A canonical frame as an all-string Arrow table (all-null columns too)."""
    return pa.Table.from_pydict(
        {c: pa.array(list(pdf[c]), type=pa.string()) for c in pdf.columns}
    )


class RepositoryBuilder:
    """Write-side of a repository. ``add`` tables, then ``finish``."""

    def __init__(self, root: str | Path, *, overwrite: bool = True):
        self.root = Path(root)
        if overwrite and self.root.exists():
            shutil.rmtree(self.root)
        (self.root / "tables").mkdir(parents=True, exist_ok=True)
        (self.root / "cells").mkdir(parents=True, exist_ok=True)
        self._manifest: dict[str, dict] = {}
        self._pending_cells: list[pa.Table] = []
        self._cells_part = 0

    def add(self, name: str, pdf: pd.DataFrame, *, meta: dict | None = None) -> None:
        """Add one table (any dtypes; canonicalized to strings here)."""
        if name in self._manifest:
            raise ValueError(f"duplicate table name {name!r}")
        spdf = canon_str(pdf)
        tbl = to_arrow(spdf)
        pq.write_table(tbl, self.root / "tables" / f"{name}.parquet")
        # distinct non-null cells for the discovery dataset; their count
        # per column is the column's extent
        extents: dict[str, int] = {}
        frames = []
        for c in spdf.columns:
            vals = spdf[c].dropna().unique()
            extents[c] = int(len(vals))
            if len(vals):
                frames.append(
                    pa.Table.from_pydict(
                        {
                            "table": pa.array([name] * len(vals), type=pa.string()),
                            "col": pa.array([c] * len(vals), type=pa.string()),
                            "value": pa.array(list(vals), type=pa.string()),
                        }
                    )
                )
        self._manifest[name] = {
            "columns": list(spdf.columns),
            "rows": int(len(spdf)),
            "extents": extents,
            "meta": meta or {},
        }
        if frames:
            self._pending_cells.append(pa.concat_tables(frames))
        if len(self._pending_cells) >= _CELLS_FLUSH_EVERY:
            self._flush_cells()

    def _flush_cells(self) -> None:
        if not self._pending_cells:
            return
        pq.write_table(
            pa.concat_tables(self._pending_cells),
            self.root / "cells" / f"part-{self._cells_part:05d}.parquet",
        )
        self._cells_part += 1
        self._pending_cells = []

    def finish(self) -> "TableRepository":
        self._flush_cells()
        (self.root / "manifest.json").write_text(json.dumps(self._manifest, indent=1))
        return TableRepository(self.root)


class TableRepository:
    """Read-side of a repository.

    Raises :class:`StaleLakeError` when the manifest lacks column extents
    (written by a builder older than discovery's reliance on them).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.manifest: dict[str, dict] = json.loads(
            (self.root / "manifest.json").read_text()
        )
        stale = sorted(n for n, m in self.manifest.items() if "extents" not in m)
        if stale:
            raise StaleLakeError(
                f"{self.root}: manifest entries without 'extents' "
                f"({len(stale)} tables, e.g. {stale[0]!r}); rebuild this lake "
                "with RepositoryBuilder"
            )
        self._cells: dict[SparkSession, DataFrame] = {}

    def names(self) -> list[str]:
        return sorted(self.manifest)

    def columns(self, name: str) -> list[str]:
        return list(self.manifest[name]["columns"])

    def rows(self, name: str) -> int:
        return int(self.manifest[name]["rows"])

    def meta(self, name: str) -> dict:
        return dict(self.manifest[name]["meta"])

    def extent(self, name: str, col: str) -> int:
        """Distinct non-null values in one column (its rows in the cells)."""
        return int(self.manifest[name]["extents"][col])

    def table_path(self, name: str) -> str:
        return str(self.root / "tables" / f"{name}.parquet")

    def cells_path(self) -> Path:
        return self.root / "cells"

    def load(self, spark: SparkSession, name: str) -> DataFrame:
        """Load one table as an all-string Spark DataFrame (no Spark job:
        the schema comes from the manifest)."""
        return spark.read.schema(_string_schema(self.columns(name))).parquet(
            self.table_path(name)
        )

    def load_pdf(
        self,
        name: str,
        *,
        columns: list[str] | None = None,
        filters: list[tuple] | None = None,
    ) -> pd.DataFrame:
        """Load one table in pandas: all of it, or only ``columns`` and the
        rows passing pyarrow's ``filters``, in file order."""
        return pq.read_table(self.table_path(name), columns=columns, filters=filters).to_pandas()

    def cells(self, spark: SparkSession) -> DataFrame:
        """The consolidated (table, col, value) distinct-cells dataset.

        Built once per session: reading it lists the part files and
        resolves the relation, which every discovery call would otherwise
        repeat."""
        if spark not in self._cells:
            self._cells[spark] = spark.read.schema(_string_schema(_CELLS_COLUMNS)).parquet(
                str(self.cells_path())
            )
        return self._cells[spark]

    def stats(self) -> dict:
        """Table-I style statistics: # tables, # cols, avg rows, size (MB)."""
        n_tables = len(self.manifest)
        n_cols = sum(len(m["columns"]) for m in self.manifest.values())
        avg_rows = (
            sum(m["rows"] for m in self.manifest.values()) / n_tables if n_tables else 0.0
        )
        size_mb = sum(
            f.stat().st_size for f in (self.root / "tables").glob("*.parquet")
        ) / (1 << 20)
        return {
            "tables": n_tables,
            "cols": n_cols,
            "avg_rows": avg_rows,
            "size_mb": size_mb,
        }
