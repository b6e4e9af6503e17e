"""Metric evaluation of a reclaimed table.

Source tables are small (≤ ~1K rows, paper §VI-A); reclaimed tables can be
large (ALITE outputs are 200–300× the source, Fig 8b). ``evaluate`` first
cuts the reclaimed table to its distinct tuples with their multiplicity,
keeping only the groups whose key is a source key (null-safe), and counts
the groups and rows of the whole table. It takes one of two paths, chosen
by the table's type:

* a ``LocalTable`` (Gen-T's output, bounded by the source) is a pandas
  frame on the driver: its tuples are grouped and cut in Python, with no
  Spark plan and no job;
* a Spark ``DataFrame`` (the baselines' outputs, Ver's joins) grows with
  the lake and is cut by one Spark query, the two counts observed on the
  same action.

Every score is then computed on the driver from those |S|-bounded tuples
by ``metrics_core``:

* recall/precision: |S∩Ŝ| from the cut tuples (a tuple outside the source
  keys cannot be in S), |Ŝ| from the group count;
* EIS, Inst-Div, D_KL: the cut tuples with a non-null key, each repeated
  by its multiplicity (D_KL's Q(x|k) counts duplicates).
"""
from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from py4j.protocol import Py4JJavaError
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import metrics_core as mc
from repro.core.operators import add_missing_null_columns, as_strings
from repro.lake.repository import canon_str, to_spark


@dataclass(frozen=True, eq=False)
class LocalTable:
    """A reclaimed table held on the driver as a pandas frame.

    Gen-T's output is bounded by the source (≤ ~1K rows, paper §VI-A), so
    it never becomes a Spark plan. It answers what callers ask of any
    method's output: ``columns`` and ``toPandas()``, which returns a copy.
    """

    pdf: pd.DataFrame

    @property
    def columns(self) -> list[str]:
        return list(self.pdf.columns)

    def toPandas(self) -> pd.DataFrame:
        return self.pdf.copy()


# At most this many distinct key-aligned tuples are scored — a safety valve
# for degenerate baseline outputs (DESIGN.md §5). ``evaluate`` reports
# ``capped`` when more were there.
MAX_ALIGNED_COLLECT = 500_000


def _mult_col(cols: Sequence[str]) -> str:
    mult = "n"
    while mult in cols:
        mult += "_"
    return mult


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
    mult = _mult_col(cols)
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


def _key_cut_local(
    reclaimed: pd.DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> tuple[pd.DataFrame, str, int, int]:
    """``_key_cut`` for a table on the driver, without Spark: its tuples
    (as strings, padded to the source columns) are grouped in Python,
    where a null equals a null, as in ``groupBy`` and ``eqNullSafe``."""
    cols = list(source.columns)
    mult = _mult_col(cols)
    groups = Counter(mc.norm_rows(reclaimed, cols))
    src_keys = canon_str(source[list(key_cols)])
    wanted = set(zip(*(src_keys[k] for k in key_cols)))
    kidx = [cols.index(k) for k in key_cols]
    cut = [
        (t, n) for t, n in groups.items() if tuple(t[i] for i in kidx) in wanted
    ][: MAX_ALIGNED_COLLECT + 1]
    out = pd.DataFrame([t for t, _ in cut], columns=cols, dtype=object)
    out[mult] = np.array([n for _, n in cut], dtype=np.int64)
    return out, mult, len(groups), len(reclaimed)


def evaluate(
    spark: SparkSession,
    reclaimed: DataFrame | LocalTable | None,
    source: pd.DataFrame,
    key_cols: Sequence[str],
) -> dict:
    """All Table II/III/IV metrics for one (reclaimed, source) pair.

    ``reclaimed`` may be None / empty (a method produced nothing): scores
    degrade to Rec=Pre=0, Inst-Div=1 and the D_KL all-missing penalty.
    Besides the scores, ``rows`` is the reclaimed table's row count and
    ``capped`` says whether more than ``MAX_ALIGNED_COLLECT`` distinct
    key-aligned tuples were there (only the first that many are scored).
    A ``LocalTable`` is scored without Spark; a Spark ``DataFrame`` costs
    one Spark query, or a ``count`` when the source is empty.
    """
    source = source.reset_index(drop=True)
    cols = list(source.columns)
    aligned = pd.DataFrame(columns=cols)
    rec = pre = 0.0
    rows, capped = 0, False
    cut = None
    if isinstance(reclaimed, LocalTable):
        cut, mult, n_rec, rows = _key_cut_local(reclaimed.pdf, source, key_cols)
    elif reclaimed is not None and source.empty:
        rows = reclaimed.count()  # nothing can align with an empty source
    elif reclaimed is not None:
        cut, mult, n_rec, rows = _key_cut(spark, reclaimed, source, key_cols)
    if cut is not None:
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
