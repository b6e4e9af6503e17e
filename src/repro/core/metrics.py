"""Spark-facing metric evaluation.

Source tables are small (≤ ~1K rows, paper §VI-A); reclaimed tables can be
large (ALITE outputs are 200–300× the source, Fig 8b). So the reclaimed
table stays in Spark and ``evaluate`` runs one query over it: group it
into distinct tuples with their multiplicity, observe the number of
groups and rows on the same action, and collect only the groups whose key
is a source key (null-safe). Every score is then computed on the driver
from those |S|-bounded tuples by ``metrics_core``:

* recall/precision: |S∩Ŝ| from the collected tuples (a tuple outside the
  source keys cannot be in S), |Ŝ| from the observed group count;
* EIS, Inst-Div, D_KL: the collected tuples with a non-null key, each
  repeated by its multiplicity (D_KL's Q(x|k) counts duplicates).
"""
from __future__ import annotations

import functools
import operator
from typing import Sequence

import pandas as pd
from py4j.protocol import Py4JJavaError
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import metrics_core as mc
from repro.core.operators import add_missing_null_columns, as_strings
from repro.lake.repository import canon_str, to_spark

# At most this many distinct key-aligned tuples are scored — a safety valve
# for degenerate baseline outputs (DESIGN.md §5). ``evaluate`` reports
# ``capped`` when more were there.
MAX_ALIGNED_COLLECT = 500_000


def _key_cut(
    spark: SparkSession, reclaimed: DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> tuple[pd.DataFrame, str, int, int]:
    """One Spark query: the distinct tuples of ``reclaimed`` whose key is a
    source key (null-safe), at most ``MAX_ALIGNED_COLLECT + 1`` of them,
    with their multiplicity.

    Returns (tuples, multiplicity column, distinct tuples, rows), the last
    two observed over the whole reclaimed table on the same action. The
    source must have rows: Spark drops an observed plan it proves empty,
    which an empty key side would make it do.
    """
    cols = list(source.columns)
    mult = "n"
    while mult in cols:
        mult += "_"
    obs = Observation()
    groups = (
        add_missing_null_columns(as_strings(reclaimed), cols)
        .groupBy(*cols)
        .agg(F.count(F.lit(1)).alias(mult))
        .observe(obs, F.count(F.lit(1)).alias("groups"), F.sum(mult).alias("rows"))
    )
    keys = to_spark(spark, source[list(key_cols)].drop_duplicates())
    on = functools.reduce(operator.and_, [groups[k].eqNullSafe(keys[k]) for k in key_cols])
    cut = groups.join(keys, on, "leftsemi").limit(MAX_ALIGNED_COLLECT + 1).toPandas()
    try:
        seen = obs.get
    except Py4JJavaError:  # no metrics: Spark pruned the empty reclaimed table
        return cut, mult, 0, 0
    return cut, mult, seen["groups"], seen["rows"] or 0


def evaluate(
    spark: SparkSession,
    reclaimed: DataFrame | None,
    source: pd.DataFrame,
    key_cols: Sequence[str],
) -> dict:
    """All Table II/III/IV metrics for one (reclaimed, source) pair.

    ``reclaimed`` may be None / empty (a method produced nothing): scores
    degrade to Rec=Pre=0, Inst-Div=1 and the D_KL all-missing penalty.
    Besides the scores, ``rows`` is the reclaimed table's row count and
    ``capped`` says whether more than ``MAX_ALIGNED_COLLECT`` distinct
    key-aligned tuples were there (only the first that many are scored).
    """
    source = source.reset_index(drop=True)
    cols = list(source.columns)
    aligned = pd.DataFrame(columns=cols)
    rec = pre = 0.0
    rows, capped = 0, False
    if reclaimed is not None and source.empty:
        rows = reclaimed.count()  # nothing can align with an empty source
    elif reclaimed is not None:
        cut, mult, n_rec, rows = _key_cut(spark, reclaimed, source, key_cols)
        capped = len(cut) > MAX_ALIGNED_COLLECT
        cut = cut.iloc[:MAX_ALIGNED_COLLECT]
        n_src, _, n_inter = mc.distinct_overlap(canon_str(source), cut[cols])
        rec = n_inter / n_src if n_src else 0.0
        pre = n_inter / n_rec if n_rec else 0.0
        # SQL key equality for the key-aligned metrics: a null key part aligns with nothing
        keyed = cut[cut[list(key_cols)].notna().all(axis=1)]
        aligned = keyed.loc[keyed.index.repeat(keyed[mult]), cols]

    return {
        "recall": rec,
        "precision": pre,
        "inst_div": mc.instance_divergence(source, aligned, key_cols),
        "d_kl": mc.conditional_kl(source, aligned, key_cols),
        "eis": mc.eis(source, aligned, key_cols),
        "perfect": rec == 1.0 and pre == 1.0,
        "rows": int(rows),
        "capped": capped,
    }
