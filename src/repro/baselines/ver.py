"""Ver baseline (paper §VI-A1).

Ver [59] is a Query-by-Example system: given a tiny example table
(2 columns × a few rows), it discovers views — single tables or join
paths — that *contain* the example, and returns them with all their
additional tuples. Following the paper's protocol we query it with
two-column projections of the Source Table (key + one attribute at a
time), then aggregate the per-column views with a full outer join on the
key to evaluate the whole source.

The character that matters for Table III: the aggregated output contains
the source tuples *plus many extra rows* (entire view extents), so recall
is decent and precision low.
"""
from __future__ import annotations

import time
from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import discovery as disc
from repro.core import expand as exp
from repro.core import operators as ops
from repro.lake.repository import TableRepository


def ver(
    spark: SparkSession,
    repo: TableRepository,
    source: pd.DataFrame,
    key_cols: Sequence[str],
    *,
    tau: float = 0.2,
    restrict_to: list[str] | None = None,
    budget_s: float | None = None,
) -> DataFrame | None:
    """Run the Ver-style QBE aggregation. None on timeout / nothing found."""
    deadline = None if budget_s is None else time.monotonic() + budget_s
    src_cols = list(source.columns)
    non_key = [c for c in src_cols if c not in key_cols]

    views: list[DataFrame] = []
    for c in non_key:
        if deadline is not None and time.monotonic() > deadline:
            return None if not views else _aggregate(views, key_cols, src_cols)
        example = source[list(key_cols) + [c]]
        cands = disc.set_similarity(
            spark,
            repo,
            example,
            list(key_cols),
            tau=tau,
            restrict_to=restrict_to,
            max_candidates=8,
        )
        cands = exp.expand(spark, cands, list(key_cols), source=example)
        scored = [
            cand
            for cand in cands
            if c in cand.mapping and all(k in cand.mapping for k in key_cols)
        ]
        if not scored:
            continue
        # Ver returns multiple containing views per example; we keep the
        # top-2 and union them — their FULL extents, since Ver completes
        # the example rather than restricting to it
        top = sorted(
            scored, key=lambda d: (-d.col_overlaps.get(c, 0.0), d.name)
        )[:2]
        view = top[0].df.select(list(key_cols) + [c])
        for extra in top[1:]:
            view = view.unionByName(extra.df.select(list(key_cols) + [c]))
        views.append(view.dropDuplicates())

    if not views:
        return None
    return _aggregate(views, key_cols, src_cols)


def _aggregate(
    views: list[DataFrame], key_cols: Sequence[str], src_cols: Sequence[str]
) -> DataFrame:
    acc = views[0]
    for v in views[1:]:
        acc = acc.join(v, on=list(key_cols), how="outer")
    return ops.add_missing_null_columns(acc.dropDuplicates(), src_cols)
