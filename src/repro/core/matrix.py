"""Matrix Traversal (paper §V-A2/3, Alg 1) — simulate integration cheaply.

Each candidate is encoded as a three-valued matrix aligned to the Source
Table (Eq 4): per (source tuple, source column),

    1   candidate agrees with S (null==null counts as agreement),
    0   candidate is null where S is non-null,
   -1   candidate has a non-null value that contradicts S (including
        non-null where S is null — the δ case of Def 4).

Because integration can keep contradicting tuples separate, a "matrix" is
a dict ``key tuple → list of row vectors`` (§V-A3). ``combine`` merges two
matrices with the paper's Combine(): rows that conflict (a 1 meets a −1 in
some column) stay separate, otherwise elementwise max (logical OR).

Matrix *initialisation* encodes the candidate's key-aligned slice. The
slice is cut on the driver from the candidate's pandas frame (its
discovery cache, or the joined frame of an Expand path); only a table
over ``PANDAS_CAP`` that needs no join is cut by one Spark semi-join on
the source key. Traversal itself is a driver-side greedy loop over
|S|-sized numpy arrays — exactly the point of the method: candidates are
pruned without executing real integrations. ``source`` is the canonical
source (``canon_str``) throughout: the caller canonicalises it once.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.operators import as_strings, project_select_pdf
from repro.lake.repository import to_spark

Matrix = dict[tuple, list[np.ndarray]]

# Spark-cut slices larger than this are truncated before collect — a safety
# valve for candidates whose key fan-out explodes.
MAX_SLICE_ROWS = 500_000


def encode_matrix(
    source: pd.DataFrame, aligned: pd.DataFrame, key_cols: Sequence[str]
) -> Matrix:
    """Three-valued encoding (Eq 4) of key-aligned candidate tuples.

    ``source`` is canonical (``canon_str``); ``aligned`` holds rows of the
    candidate already renamed to source columns; missing source columns are
    treated as null.
    """
    src = source.reset_index(drop=True)
    cols = list(src.columns)
    kidx = [cols.index(k) for k in key_cols]

    def norm(pdf: pd.DataFrame) -> list[tuple]:
        return [
            tuple(None if pd.isna(v) else str(v) for v in r)
            for r in pdf.itertuples(index=False)
        ]

    s_rows = norm(src)
    by_key: dict[tuple, tuple] = {}
    for s in s_rows:
        by_key[tuple(s[i] for i in kidx)] = s

    matrix: Matrix = {}
    if len(aligned):
        al = aligned.copy()
        for c in cols:
            if c not in al.columns:
                al[c] = None
        for t in norm(al[cols]):
            k = tuple(t[i] for i in kidx)
            s = by_key.get(k)
            if s is None:
                continue
            row = np.empty(len(cols), dtype=np.int8)
            for j, (sv, tv) in enumerate(zip(s, t)):
                if sv == tv:
                    row[j] = 1
                elif sv is not None and tv is None:
                    row[j] = 0
                else:
                    row[j] = -1
            lst = matrix.setdefault(k, [])
            if not any(np.array_equal(row, r) for r in lst):
                lst.append(row)
    return matrix


def aligned_slice(
    spark: SparkSession, cand_df: DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    """Rows of ``cand_df`` whose key appears in the source, as pandas."""
    keys = to_spark(spark, source[list(key_cols)].drop_duplicates())
    sl = as_strings(cand_df).join(keys, on=list(key_cols), how="leftsemi")
    return sl.limit(MAX_SLICE_ROWS).toPandas()


def key_slice(
    spark: SparkSession, cand, source: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    """A candidate's key-aligned slice: π to S's columns, σ to S's keys.

    ``cand`` is a discovery.Candidate or a Spark DataFrame. A candidate's
    pandas cache (small raw lake tables) is sliced on the driver; otherwise
    the slice is one Spark semi-join + collect. The slice is bounded by
    |S| × fan-out, and both matrix encoding and integration read it.
    """
    pdf = getattr(cand, "pdf", None)
    if pdf is None:
        cand_df = getattr(cand, "df", cand)
        keep = [c for c in cand_df.columns if c in set(source.columns)]
        pdf = aligned_slice(spark, cand_df.select(keep), source, key_cols)
    return project_select_pdf(pdf, source, key_cols)


def matrix_for_candidate(
    spark: SparkSession, cand, source: pd.DataFrame, key_cols: Sequence[str]
) -> Matrix:
    """Eq 4 matrix of a candidate: ``cand`` is its pandas key slice (as
    ``key_slice`` cuts it), or anything ``key_slice`` accepts."""
    if not isinstance(cand, pd.DataFrame):
        cand = key_slice(spark, cand, source, key_cols)
    return encode_matrix(source, cand, key_cols)


def _conflict(a: np.ndarray, b: np.ndarray) -> bool:
    """∃j: a[j] ≠ b[j], both non-zero (a 1 meets a −1)."""
    return bool(np.any((a != b) & (a != 0) & (b != 0)))


def _or_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sign-preserving OR: the non-zero code wins at each position.

    The paper words Combine() as an elementwise max, but max(0, −1) = 0
    would claim that merging a null cell with an erroneous cell erases the
    error — the real κ merge *keeps* the erroneous value in the combined
    tuple. Since the matrix's contract is to equal the matrix encoding of
    the true integration result (§V-A3), we preserve the −1 (DESIGN.md §4).
    """
    return np.where(a != 0, a, b).astype(np.int8)


def combine(m1: Matrix, m2: Matrix) -> Matrix:
    """Paper's Combine(): OR compatible rows, keep conflicting rows apart."""
    out: Matrix = {k: [r.copy() for r in rows] for k, rows in m1.items()}
    for k, rows in m2.items():
        acc = out.setdefault(k, [])
        for t in rows:
            merged = False
            for i, r in enumerate(acc):
                if not _conflict(r, t):
                    acc[i] = _or_rows(r, t)
                    merged = True
                    break
            if not merged:
                acc.append(t.copy())
        # dedup
        uniq: list[np.ndarray] = []
        for r in acc:
            if not any(np.array_equal(r, u) for u in uniq):
                uniq.append(r)
        out[k] = uniq
    return out


def evaluate_similarity(
    matrix: Matrix, source: pd.DataFrame, key_cols: Sequence[str]
) -> float:
    """EIS of the simulated integration (Eq 3 over matrix codes)."""
    cols = list(source.columns)
    nk_idx = [i for i, c in enumerate(cols) if c not in set(key_cols)]
    n = len(nk_idx)
    n_src = len(source)
    if n_src == 0 or n == 0:
        return 0.0
    total = 0.0
    for rows in matrix.values():
        best = max(
            (int((r[nk_idx] == 1).sum()) - int((r[nk_idx] == -1).sum())) / n
            for r in rows
        )
        total += 1 + best
    return 0.5 * total / n_src


def matrix_traversal(
    matrices: dict[str, Matrix], source: pd.DataFrame, key_cols: Sequence[str]
) -> list[str]:
    """Alg 1: greedy traversal; returns originating table names in the
    order they were added (the order integration will use)."""
    if not matrices:
        return []
    names = list(matrices)

    def ev(m: Matrix) -> float:
        return evaluate_similarity(m, source, key_cols)

    start = max(names, key=lambda n: (ev(matrices[n]), n))
    chosen = [start]
    current = matrices[start]
    most_correct = ev(current)
    while len(chosen) < len(names):
        best_next, best_score, best_combined = None, most_correct, None
        for n in names:
            if n in chosen:
                continue
            cmb = combine(current, matrices[n])
            s = ev(cmb)
            if s > best_score:
                best_next, best_score, best_combined = n, s, cmb
        if best_next is None:
            break  # integration did not find more of S's values
        chosen.append(best_next)
        current, most_correct = best_combined, best_score
    return chosen
