"""Auto-Pipeline* baseline (paper §VI-A1).

By-target pipeline synthesis via query search, restricted — as the paper's
own re-implementation was — to Gen-T's operator family
{σ, π, ∪, ⋈, ⟕, ⟗}. Greedy best-first search over a pool of derived
tables: at each step try joining/unioning the most promising pairs, score
every derived table by EIS against the target, keep improvements, stop
when the expansion budget or wall-clock deadline runs out.

Unlike Gen-T it has no candidate pruning and no κ/β operators, so on
noisy candidate sets it either locks onto a partial pipeline or produces
wide join results (its Table III character: mid recall, low precision).
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import metrics_core as mc
from repro.core import operators as ops
from repro.core.discovery import Candidate
from repro.lake.repository import to_spark

MAX_EXPANSIONS = 24
MAX_POOL = 12


@dataclass
class _Entry:
    df: DataFrame
    score: float
    ops_applied: int


def _score(df: DataFrame, source: pd.DataFrame, key_cols: Sequence[str]) -> float:
    pdf = df.limit(50_000).toPandas()
    return mc.eis(source, pdf, key_cols)


def auto_pipeline(
    spark: SparkSession,
    cands: Sequence[Candidate],
    source: pd.DataFrame,
    key_cols: Sequence[str],
    *,
    budget_s: float | None = None,
) -> DataFrame | None:
    """Synthesize the best pipeline result. None on timeout/no input."""
    deadline = None if budget_s is None else time.monotonic() + budget_s
    src_cols = [c for c in source.columns]
    keys_df = to_spark(spark, source[list(key_cols)].drop_duplicates())

    pool: list[_Entry] = []
    for c in cands:
        keep = [col for col in c.df.columns if col in set(src_cols)]
        if not keep:
            continue
        df = c.df.select(keep)
        # σ/π toward the target are always-available unary ops
        if all(k in df.columns for k in key_cols):
            df = ops.project_select(df, src_cols, key_cols, keys_df)
        df = df.localCheckpoint(eager=True)
        pool.append(_Entry(df, _score(df, source, key_cols), 1))
        if deadline is not None and time.monotonic() > deadline:
            return None

    if not pool:
        return None

    expansions = 0
    improved = True
    while improved and expansions < MAX_EXPANSIONS:
        improved = False
        pool.sort(key=lambda e: -e.score)
        pool = pool[:MAX_POOL]
        for a, b in itertools.combinations(pool[:5], 2):
            if deadline is not None and time.monotonic() > deadline:
                return max(pool, key=lambda e: e.score).df
            shared = [
                c for c in set(a.df.columns) & set(b.df.columns) if c not in key_cols
            ]
            key_shared = [k for k in key_cols if k in a.df.columns and k in b.df.columns]
            attempts: list[DataFrame] = []
            if set(a.df.columns) == set(b.df.columns):
                attempts.append(a.df.unionByName(b.df.select(a.df.columns)))
            join_on = key_shared or shared[:1]
            if join_on:
                # shared non-join columns are coalesced — Auto-Pipeline's
                # joins "schematically align" the operands, so a null on
                # one side is filled from the other. b's copies are renamed
                # first (cross-frame column refs trip Spark's ambiguous-
                # self-join check when both pools share lineage).
                shared_nonjoin = [
                    c for c in a.df.columns
                    if c in b.df.columns and c not in join_on
                ]
                b_df = b.df
                for c in shared_nonjoin:
                    b_df = b_df.withColumnRenamed(c, f"{c}__rhs")
                for how in ("inner", "left", "outer"):
                    joined = a.df.join(b_df, on=join_on, how=how)
                    exprs = []
                    for c in joined.columns:
                        if c.endswith("__rhs"):
                            continue
                        if c in shared_nonjoin:
                            exprs.append(
                                F.coalesce(F.col(c), F.col(f"{c}__rhs")).alias(c)
                            )
                        else:
                            exprs.append(F.col(c))
                    attempts.append(joined.select(exprs))
            base = max(a.score, b.score)
            for cand_df in attempts:
                expansions += 1
                try:
                    s = _score(cand_df, source, key_cols)
                except Exception:
                    continue
                if s > base + 1e-9:
                    pool.append(
                        _Entry(cand_df.localCheckpoint(eager=True), s, a.ops_applied + b.ops_applied + 1)
                    )
                    improved = True
                if expansions >= MAX_EXPANSIONS:
                    break
            if improved or expansions >= MAX_EXPANSIONS:
                break

    best = max(pool, key=lambda e: e.score)
    return ops.add_missing_null_columns(best.df, src_cols)
