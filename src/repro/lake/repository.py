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
one uniform type. A column that is already plain (object dtype, every cell
a ``str``, None or float NaN) goes to Arrow as it is; only the others —
datetimes, floats, ints, bools and object columns holding anything else —
are formatted with a Python call per cell, which was most of the build's
time when every column took it (DESIGN.md §4.1). ``add`` writes the Arrow
table and takes each column's distinct cells from it with ``pc.unique``
(first-row order, as pandas ``unique``), so no pandas frame is built
between. The *cells* dataset is appended at build time so that candidate
discovery over a 15K-table lake is one in-process pyarrow scan of a few
part files instead of 15K file opens (DESIGN.md §2.1); the part files are
listed once per repository. Each column's *extent* — its number of
distinct non-null values, i.e. its rows in the cells dataset — is written
into the manifest at the same time, so discovery's Jaccard signal
needs no second scan. Every schema is known from the manifest, so Spark
reads pass it and start no schema-inference job.
"""
from __future__ import annotations

import functools
import json
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StringType, StructField, StructType

_CELLS_FLUSH_EVERY = 200  # tables per cells parquet part file
_SCAN_BATCH = 1 << 15  # cells per batch of discovery's scan
_CELLS_SCHEMA = pa.schema([(c, pa.string()) for c in ("table", "col", "value")])


class StaleLakeError(ValueError):
    """The repository on disk was written by an older builder."""


def _string_schema(columns: list[str]) -> StructType:
    """All-nullable-string Spark schema with the given column order."""
    return StructType([StructField(c, StringType(), True) for c in columns])


def _float_str(v) -> str | None:
    if pd.isna(v):
        return None
    if float(v).is_integer():
        return str(int(v))
    return np.format_float_positional(float(v), trim="-")


def _cell_str(v) -> str | None:
    return None if pd.api.types.is_scalar(v) and pd.isna(v) else str(v)


_PLAIN_KINDS = frozenset({str, type(None), float})


def _plain(s: pd.Series) -> bool:
    """Whether a column is canonical as it stands: object dtype, and every
    cell a plain ``str``, None or float NaN."""
    if s.dtype != object:
        return False
    cells = s.to_numpy()
    kinds = set(map(type, cells))
    return kinds <= _PLAIN_KINDS and (
        float not in kinds or all(v != v for v in cells if type(v) is float)
    )


def _canon_cells(s: pd.Series) -> pd.Series:
    """One column's canonical strings (``canon_str``); a null comes back as
    None or NaN. A plain column is returned as it is: only the other
    columns pay a Python call per cell."""
    if _plain(s):
        return s
    if pd.api.types.is_datetime64_any_dtype(s):
        return s.dt.strftime("%Y-%m-%d")
    if pd.api.types.is_float_dtype(s):
        return s.map(_float_str)
    return s.astype("object").map(_cell_str)


def canon_str(pdf: pd.DataFrame) -> pd.DataFrame:
    """Canonicalize a pandas frame to nullable-string columns.

    Deterministic formatting so the same typed value always produces the
    same string on the source side and the lake side: dates → ISO days,
    integral floats → integer strings, other floats → repr with trailing
    zeros stripped, any other value → ``str``, and every pandas missing
    scalar (None, NaN, NaT, ``pd.NA``) → None.
    """
    res = pd.DataFrame({c: _canon_cells(pdf[c]) for c in pdf.columns}, columns=list(pdf.columns))
    return res.where(res.notna(), None)


def canon_arrow(pdf: pd.DataFrame) -> pa.Table:
    """``canon_str(pdf)`` as an all-string Arrow table (all-null columns
    too), built from the canonical cells without a pandas frame between."""
    return pa.Table.from_pydict(
        {
            c: pa.array(
                _canon_cells(pdf[c]).to_numpy(dtype=object), type=pa.string(), from_pandas=True
            )
            for c in pdf.columns
        }
    )


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """pandas → all-string Spark DataFrame with an explicit schema.

    Explicit schema so all-null columns (legal in canonical form) do not
    break Spark's type inference. The frame goes over as Arrow batches when
    the session enables Arrow, not as pickled Python rows.
    """
    spdf = canon_str(pdf)
    return spark.createDataFrame(spdf, schema=_string_schema(list(spdf.columns)))


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
        tbl = canon_arrow(pdf)
        pq.write_table(tbl, self.root / "tables" / f"{name}.parquet")
        # distinct non-null cells for the discovery dataset, in first-row
        # order; their count per column is the column's extent
        values = [pc.unique(col.drop_null()) for col in tbl.columns]
        counts = [len(v) for v in values]
        n_cells = sum(counts)
        self._manifest[name] = {
            "columns": tbl.column_names,
            "rows": tbl.num_rows,
            "extents": dict(zip(tbl.column_names, counts)),
            "meta": meta or {},
        }
        if n_cells:
            self._pending_cells.append(
                pa.Table.from_arrays(
                    [
                        pa.array([name] * n_cells, type=pa.string()),
                        pa.array(np.repeat(tbl.column_names, counts), type=pa.string()),
                        pa.concat_arrays(values),
                    ],
                    schema=_CELLS_SCHEMA,
                )
            )
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

    def load_pdf(self, name: str) -> pd.DataFrame:
        """Load one whole table in pandas, in file order. Read through
        ``ParquetFile``: ``pq.read_table`` builds a dataset on every call."""
        with pq.ParquetFile(self.table_path(name)) as f:
            return f.read().to_pandas()

    @functools.cached_property
    def _cell_parts(self) -> list[Path]:
        return sorted(self.cells_path().glob("part-*.parquet"))

    def cells_with_values(self, values: pa.Array) -> pa.Table:
        """The cells whose value is one of ``values``, as a ``(table, col,
        value)`` Arrow table in file order.

        One single-threaded pass over the part files, ``_SCAN_BATCH`` cells
        at a time, so memory is bounded by the batch and not by a part's
        row groups. ``table`` and ``col`` are read as dictionary codes and
        decoded only for the matching cells."""
        out = []
        for path in self._cell_parts:
            with pq.ParquetFile(path, read_dictionary=["table", "col"]) as part:
                for batch in part.iter_batches(batch_size=_SCAN_BATCH, use_threads=False):
                    at = pc.indices_nonzero(pc.is_in(batch["value"], value_set=values))
                    if len(at):
                        hit = batch.take(at)
                        out.append(pa.record_batch(
                            [hit["table"].dictionary_decode(), hit["col"].dictionary_decode(),
                             hit["value"]],
                            schema=_CELLS_SCHEMA,
                        ))
        return pa.Table.from_batches(out, schema=_CELLS_SCHEMA)

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
