"""Spark-facing metric evaluation.

Source tables are small (≤ ~1K rows, paper §VI-A); reclaimed tables can be
large (ALITE outputs are 200–300× the source, Fig 8b). So distinct-tuple
counts and the S∩Ŝ intersection run as Spark jobs, while the key-aligned
fine-grained metrics (EIS, Inst-Div, D_KL) collect only the key-aligned
slice of the reclaimed table (bounded by source size × alignment fan-out).
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import metrics_core as mc
from repro.core.operators import add_missing_null_columns, as_strings
from repro.lake.repository import to_spark

# Aligned slices larger than this are truncated before collect — a safety
# valve for degenerate baseline outputs (documented in DESIGN.md §6).
MAX_ALIGNED_COLLECT = 500_000


def aligned_slice(
    spark: SparkSession, reclaimed: DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    """Rows of ``reclaimed`` whose key appears in the source, as pandas."""
    keys = to_spark(spark, source[list(key_cols)].drop_duplicates())
    sl = as_strings(reclaimed).join(keys, on=list(key_cols), how="leftsemi")
    return sl.limit(MAX_ALIGNED_COLLECT).toPandas()


def evaluate(
    spark: SparkSession,
    reclaimed: DataFrame | None,
    source: pd.DataFrame,
    key_cols: Sequence[str],
) -> dict:
    """All Table II/III/IV metrics for one (reclaimed, source) pair.

    ``reclaimed`` may be None / empty (a method produced nothing): scores
    degrade to Rec=Pre=0, Inst-Div=1 and the D_KL all-missing penalty.
    """
    source = source.reset_index(drop=True)
    empty = pd.DataFrame(columns=list(source.columns))
    if reclaimed is None:
        rec_full = empty
        rec, pre = 0.0, 0.0
    else:
        reclaimed = add_missing_null_columns(as_strings(reclaimed), list(source.columns))
        src_df = to_spark(spark, source).distinct()
        n_src = src_df.count()
        dist = reclaimed.distinct()
        dist.cache()
        try:
            n_rec = dist.count()
            n_inter = dist.intersect(src_df).count()
        finally:
            dist.unpersist()
        rec = n_inter / n_src if n_src else 0.0
        pre = n_inter / n_rec if n_rec else 0.0
        rec_full = aligned_slice(spark, reclaimed, source, key_cols)

    return {
        "recall": rec,
        "precision": pre,
        "inst_div": mc.instance_divergence(source, rec_full, key_cols),
        "d_kl": mc.conditional_kl(source, rec_full, key_cols),
        "eis": mc.eis(source, rec_full, key_cols),
        "perfect": rec == 1.0 and pre == 1.0,
    }
