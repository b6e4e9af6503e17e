"""ALITE and ALITE-PS baselines (paper §VI-A1).

ALITE [24] integrates a set of tables by computing their Full Disjunction:
outer union everything, then complement to a complement-free table, then
drop subsumed tuples. It is *not* target-driven — it never looks at the
Source Table — which is exactly why its reclaimed tables are huge and
low-precision (Tables II/III).

Full FD complementation compares every tuple pair that shares a non-null
value. We approximate ALITE's algorithm with *value-blocked* κ passes: for
each column in turn, tuples are grouped by their value in that column
(a Spark shuffle) and complemented within the group, repeated until a pass
changes nothing or the budget expires; a pass still running at the
deadline is cancelled. Degenerate blocks larger than
``operators.MAX_PAIRWISE_GROUP`` are passed through unchanged; the paper's
analogue of both caps is ALITE's wall-clock timeout (DESIGN.md §6).

ALITE-PS first projects to the source's columns and selects the source's
key values (when a table has the key), like Gen-T's preprocessing.
"""
from __future__ import annotations

import contextlib
import threading
import time
import uuid
from typing import Iterator, Sequence

import pandas as pd
from py4j.protocol import Py4JJavaError
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import operators as ops
from repro.core.discovery import Candidate
from repro.lake.repository import to_spark

MAX_PASSES = 3


def _route_groups(df: DataFrame, block_col: str) -> tuple[DataFrame, DataFrame]:
    """Split rows into (worth-complementing, pass-through) by group size.

    Groups of 1 cannot merge and groups above ``MAX_PAIRWISE_GROUP`` are
    skipped by the kernel anyway — routing them around ``applyInPandas``
    avoids serialising the bulk of a large fused table through Python on
    every pass (the kernel's behaviour on them is the identity)."""
    from pyspark.sql.window import Window

    cnt = F.count("*").over(Window.partitionBy(block_col))
    with_cnt = df.withColumn("__cnt", cnt)
    active = (
        F.col(block_col).isNotNull()
        & (F.col("__cnt") > 1)
        & (F.col("__cnt") <= ops.MAX_PAIRWISE_GROUP)
    )
    return (
        with_cnt.where(active).drop("__cnt"),
        with_cnt.where(~active | F.col(block_col).isNull()).drop("__cnt"),
    )


def _blocked_complement_pass(df: DataFrame, block_col: str) -> DataFrame:
    """One κ pass blocked on ``block_col``: rows sharing a non-null value
    in the column are complemented together; the rest pass through."""
    work, rest = _route_groups(df, block_col)
    merged = ops._apply_per_group(work, [block_col], ops.complement_closure_pdf)
    return merged.unionByName(rest)


@contextlib.contextmanager
def _cancelled_at(sc: SparkContext, deadline: float | None) -> Iterator[threading.Event]:
    """Tag the Spark jobs this thread starts; a timer cancels them at
    ``deadline``. Yields an event that is set once the timer has fired."""
    fired = threading.Event()
    if deadline is None:
        yield fired
        return
    tag = f"alite-deadline-{uuid.uuid4().hex}"

    def cancel() -> None:
        fired.set()
        sc.cancelJobsWithTag(tag)

    interrupt = sc.getLocalProperty("spark.job.interruptOnCancel")
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), cancel)
    sc.addJobTag(tag)
    sc.setInterruptOnCancel(True)  # stop the running tasks, not just the job
    timer.start()
    try:
        yield fired
    finally:
        timer.cancel()
        sc.removeJobTag(tag)
        sc.setLocalProperty("spark.job.interruptOnCancel", interrupt)


def full_disjunction(
    df: DataFrame,
    *,
    block_cols: Sequence[str],
    deadline: float | None = None,
) -> DataFrame | None:
    """Iterated blocked-κ + β. Returns None on budget expiry (timeout).

    The passes' Spark jobs are cancelled at ``deadline``, so one pass cannot
    run past the budget; the final sweep is returned unexecuted."""
    with _cancelled_at(df.sparkSession.sparkContext, deadline) as expired:
        try:
            current = df.localCheckpoint(eager=True)
            for _ in range(MAX_PASSES):
                before = current.count()
                for c in block_cols:
                    if deadline is not None and time.monotonic() > deadline:
                        return None
                    current = _blocked_complement_pass(current, c).localCheckpoint(eager=True)
                after = current.count()
                if after == before:
                    break
        except Py4JJavaError:  # a cancelled job fails its action
            if expired.is_set():
                return None
            raise
    # final subsumption sweep, blocked on the first column
    if deadline is not None and time.monotonic() > deadline:
        return None
    work, rest = _route_groups(current, block_cols[0])
    swept = ops._apply_per_group(work, [block_cols[0]], ops.subsume_pdf)
    return swept.unionByName(rest).dropDuplicates()


def _align_unmapped(cands: Sequence[Candidate]) -> list[DataFrame]:
    """ALITE's holistic schema alignment for the non-source columns.

    Set Similarity renames only the columns matched to the source; the
    remaining (bridge) columns keep per-table names, and FD's κ can only
    merge rows that share a value in the *same* column. ALITE [24] aligns
    all schemas before integrating, so we cluster unmapped columns across
    candidates by value-set Jaccard (≥ 0.5) and give each cluster one
    shared name — that is what lets FD stitch a keyless customer row to an
    orders row through the custkey bridge.
    """
    from pyspark.sql import functions as F

    from repro.core.discovery import UNMAPPED_SEP
    from repro.core.expand import _SAMPLE

    vsets: list[tuple[int, str, frozenset]] = []
    for i, c in enumerate(cands):
        if c.pdf is None:
            continue
        for col in c.pdf.columns:
            if UNMAPPED_SEP not in col:
                continue
            vals = c.pdf[col].dropna().unique()
            vsets.append((i, col, frozenset(vals[:_SAMPLE])))
    # union-find clustering on Jaccard >= 0.5
    parent = {k: k for k in range(len(vsets))}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(vsets)):
        for b in range(a + 1, len(vsets)):
            va, vb = vsets[a][2], vsets[b][2]
            if not va or not vb:
                continue
            if len(va & vb) / max(1, len(va | vb)) >= 0.5:
                parent[find(a)] = find(b)
    cluster_name: dict[int, str] = {}
    renames: dict[tuple[int, str], str] = {}
    for idx, (ci, col, _v) in enumerate(vsets):
        root = find(idx)
        if root not in cluster_name:
            cluster_name[root] = f"__bridge_{len(cluster_name)}"
        renames[(ci, col)] = cluster_name[root]

    out = []
    for i, c in enumerate(cands):
        df = c.df
        seen: set[str] = set()
        exprs = []
        for col in df.columns:
            new = renames.get((i, col), col)
            if new in seen:
                continue  # two same-table columns in one cluster: keep first
            seen.add(new)
            exprs.append(F.col(col).alias(new))
        out.append(df.select(exprs))
    return out


MAX_BLOCK_COLS = 12


def alite(
    spark: SparkSession,
    cands: Sequence[Candidate],
    source: pd.DataFrame,
    key_cols: Sequence[str],
    *,
    project_select: bool = False,
    budget_s: float | None = None,
) -> DataFrame | None:
    """Run ALITE (``project_select=False``) or ALITE-PS (True).

    Plain ALITE integrates the aligned candidate tables whole (rows and
    bridge columns included) — the FD result is projected to the source
    schema only for evaluation, which is why its outputs are huge. ALITE-PS
    selects key-bearing tables down to the source's key values and drops
    their bridge columns (keyless tables keep theirs: FD needs them to
    stitch those rows in at all).
    """
    deadline = None if budget_s is None else time.monotonic() + budget_s
    src_cols = list(source.columns)
    tables = [t for t in _align_unmapped(cands) if set(t.columns) & set(src_cols)]
    if not tables:
        return None

    if project_select:
        keys_df = to_spark(spark, source[list(key_cols)].drop_duplicates())
        processed = []
        for t in tables:
            if all(k in t.columns for k in key_cols):
                keep = [c for c in t.columns if c in set(src_cols)]
                processed.append(
                    ops.project_select(t.select(keep), src_cols, key_cols, keys_df)
                )
            else:
                processed.append(t)
        tables = processed

    fused = ops.outer_union_all(tables)
    block_cols = (
        [c for c in key_cols if c in fused.columns]
        + [c for c in src_cols if c in fused.columns and c not in key_cols]
        + sorted(c for c in fused.columns if c not in src_cols)
    )[:MAX_BLOCK_COLS]
    if not block_cols:
        return None
    out = full_disjunction(fused, block_cols=block_cols, deadline=deadline)
    if out is None:
        return None
    keep = [c for c in out.columns if c in set(src_cols)]
    return ops.add_missing_null_columns(out.select(keep), src_cols)
