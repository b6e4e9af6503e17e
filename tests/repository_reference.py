"""The per-cell lake build, kept as the reference for
``repro.lake.repository`` (``test_repository.py::TestBuilderMatchesReference``).

``canon_str`` formats every cell with a Python call (``Series.map``);
``ReferenceBuilder.add`` converts that frame to Arrow, writes it, and
takes each column's distinct non-null cells with pandas
``dropna().unique()``. Files, cells and manifest are laid out as the
module's builder lays them out, and ``finish`` flushes the cells every
``repository._CELLS_FLUSH_EVERY`` tables, read at call time. ``same_lake``
compares two lake directories.

``cells_with_values`` is discovery's filter as a per-call scan, kept as the
reference for ``TableRepository.cells_with_values``, which reads the part
files once per repository and filters the batches it keeps
(``test_discovery.py::TestAcrossPartFiles``).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from repro.lake import repository


def canon_str(pdf: pd.DataFrame) -> pd.DataFrame:
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


def to_arrow(pdf: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pydict(
        {c: pa.array(list(pdf[c]), type=pa.string()) for c in pdf.columns}
    )


class ReferenceBuilder:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        (self.root / "tables").mkdir(parents=True)
        (self.root / "cells").mkdir()
        self._manifest: dict[str, dict] = {}
        self._pending_cells: list[pa.Table] = []
        self._cells_part = 0

    def add(self, name: str, pdf: pd.DataFrame, *, meta: dict | None = None) -> None:
        spdf = canon_str(pdf)
        pq.write_table(to_arrow(spdf), self.root / "tables" / f"{name}.parquet")
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
        if len(self._pending_cells) >= repository._CELLS_FLUSH_EVERY:
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

    def finish(self) -> None:
        self._flush_cells()
        (self.root / "manifest.json").write_text(json.dumps(self._manifest, indent=1))


def same_lake(a: str | Path, b: str | Path) -> list[str]:
    """Where two lake directories differ: table and cell-part file names,
    each file's Arrow table (rows in order, schema and its metadata) and
    the manifest text. Empty when they are the same lake."""
    a, b = Path(a), Path(b)
    diffs = []
    for sub in ("tables", "cells"):
        na = sorted(p.name for p in (a / sub).glob("*.parquet"))
        nb = sorted(p.name for p in (b / sub).glob("*.parquet"))
        if na != nb:
            diffs.append(f"{sub}: files {na} != {nb}")
        for n in sorted(set(na) & set(nb)):
            ta, tb = pq.read_table(a / sub / n), pq.read_table(b / sub / n)
            if not ta.equals(tb, check_metadata=True):
                diffs.append(f"{sub}/{n}")
    if (a / "manifest.json").read_text() != (b / "manifest.json").read_text():
        diffs.append("manifest.json")
    return diffs


def cells_with_values(root: str | Path, values: pa.Array) -> pa.Table:
    """The cells of the lake at ``root`` whose value is one of ``values``,
    in file order: every part file opened and decoded on each call,
    ``repository._SCAN_BATCH`` cells at a time (read at call time), with
    ``table`` and ``col`` decoded only for the matching cells."""
    out = []
    for path in sorted((Path(root) / "cells").glob("part-*.parquet")):
        with pq.ParquetFile(path, read_dictionary=["table", "col"]) as part:
            for batch in part.iter_batches(
                batch_size=repository._SCAN_BATCH, use_threads=False
            ):
                at = pc.indices_nonzero(pc.is_in(batch["value"], value_set=values))
                if len(at):
                    hit = batch.take(at)
                    out.append(pa.record_batch(
                        [hit["table"].dictionary_decode(), hit["col"].dictionary_decode(),
                         hit["value"]],
                        schema=repository._CELLS_SCHEMA,
                    ))
    return pa.Table.from_batches(out, schema=repository._CELLS_SCHEMA)
