"""Similarity / divergence metric math (paper §IV-A and §VI-A2, App. E).

Pure pandas/numpy so the definitions are unit-testable against the paper's
worked Example 6 without a SparkSession; ``repro.core.metrics`` wraps these
for Spark DataFrames.

Conventions (validated against Example 6, see tests/test_metrics.py):
* plain *instance similarity* (Alexe et al., Eq 2): α counts non-key
  attributes where s and t share the same **non-null** value;
* *error-aware* tuple similarity (Def 4): α counts attributes where the
  values agree treating null==null; δ counts attributes where they differ
  and t is non-null (this includes t non-null where s is null);
* a source tuple with no key-aligned reclaimed tuple contributes 0.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pandas as pd

KL_EPS = 1e-3  # floor for Q(x|k)·(1−Q(¬x|k)) — see DESIGN.md §4.7


def _norm_col(col: pd.Series) -> np.ndarray:
    """A column as an object array: None for every null, ``str`` of every
    other value."""
    out = col.to_numpy(dtype=object, copy=True)
    null = pd.isna(out)
    out[null] = None
    if pd.api.types.infer_dtype(out, skipna=True) not in ("string", "empty"):
        out[~null] = [str(v) for v in out[~null]]
    return out


def norm_rows(pdf: pd.DataFrame, cols: Sequence[str]) -> list[tuple]:
    """The rows of ``pdf`` as tuples over ``cols`` of ``str`` or None,
    built column by column; a column ``pdf`` lacks is None in every row."""
    missing = [None] * len(pdf)
    return list(zip(*(_norm_col(pdf[c]) if c in pdf.columns else missing for c in cols)))


def _key_of(row: tuple, idx: Sequence[int]) -> tuple:
    return tuple(row[i] for i in idx)


def _by_key(rows: list[tuple], kidx: Sequence[int]) -> dict[tuple, list[tuple]]:
    by_key: dict[tuple, list[tuple]] = {}
    for r in rows:
        by_key.setdefault(_key_of(r, kidx), []).append(r)
    return by_key


def _schema(source: pd.DataFrame, key_cols: Sequence[str]):
    """(columns, key indexes, non-key indexes) of the source schema."""
    cols = list(source.columns)
    kidx = [cols.index(k) for k in key_cols]
    return cols, kidx, [i for i in range(len(cols)) if i not in kidx]


def _split(source: pd.DataFrame, reclaimed: pd.DataFrame, key_cols: Sequence[str]):
    """Align reclaimed rows to source rows on key equality.

    Returns (source_rows, aligned: list[list[tuple]], nonkey_idx) where
    rows are tuples over the source schema.
    """
    cols, kidx, nk_idx = _schema(source, key_cols)
    s_rows = norm_rows(source, cols)
    by_key = _by_key(norm_rows(reclaimed, cols), kidx)
    aligned = [by_key.get(_key_of(s, kidx), []) for s in s_rows]
    return s_rows, aligned, nk_idx


def error_aware_tuple_similarity(s: tuple, t: tuple, nk_idx: Sequence[int]) -> float:
    """E(s,t) = (α − δ)/n (Def 4)."""
    if not nk_idx:
        return 0.0
    alpha = delta = 0
    for i in nk_idx:
        if s[i] == t[i]:
            alpha += 1
        elif t[i] is not None:
            delta += 1
    return (alpha - delta) / len(nk_idx)


def tuple_similarity(s: tuple, t: tuple, nk_idx: Sequence[int]) -> float:
    """α/n with α = shared non-null values (Alexe et al.)."""
    if not nk_idx:
        return 0.0
    alpha = sum(1 for i in nk_idx if s[i] is not None and s[i] == t[i])
    return alpha / len(nk_idx)


def eis(source: pd.DataFrame, reclaimed: pd.DataFrame, key_cols: Sequence[str]) -> float:
    """Error-aware instance similarity (Eq 3), in [0, 1]."""
    cols, kidx, nk_idx = _schema(source, key_cols)
    return eis_rows(norm_rows(source, cols), norm_rows(reclaimed, cols), kidx, nk_idx)


def eis_rows(
    s_rows: list[tuple], r_rows: list[tuple], kidx: Sequence[int], nk_idx: Sequence[int]
) -> float:
    """``eis`` over rows already normalised (``norm_rows``) to the source
    schema. The sum runs over the source rows in order, each adding its
    best key-aligned reclaimed row, so a score compares exactly with
    another one of the same source."""
    if not s_rows:
        return 0.0
    by_key = _by_key(r_rows, kidx)
    total = 0.0
    for s in s_rows:
        cands = by_key.get(_key_of(s, kidx))
        if cands:
            total += max(1 + error_aware_tuple_similarity(s, t, nk_idx) for t in cands)
    return 0.5 * total / len(s_rows)


def instance_similarity(
    source: pd.DataFrame, reclaimed: pd.DataFrame, key_cols: Sequence[str]
) -> float:
    """Instance similarity (Eq 2), in [0, 1]."""
    s_rows, aligned, nk_idx = _split(source, reclaimed, key_cols)
    if not s_rows:
        return 0.0
    total = 0.0
    for s, cands in zip(s_rows, aligned):
        if cands:
            total += max(tuple_similarity(s, t, nk_idx) for t in cands)
    return total / len(s_rows)


def instance_divergence(
    source: pd.DataFrame, reclaimed: pd.DataFrame, key_cols: Sequence[str]
) -> float:
    """Inst-Div = 1 − instance similarity (§VI-A2)."""
    return 1.0 - instance_similarity(source, reclaimed, key_cols)


def distinct_overlap(source: pd.DataFrame, reclaimed: pd.DataFrame) -> tuple[int, int, int]:
    """(|S|, |Ŝ|, |S∩Ŝ|) over distinct tuples of S's schema, null-safe."""
    cols = list(source.columns)
    s_set = set(norm_rows(source, cols))
    r_set = set(norm_rows(reclaimed, cols))
    return len(s_set), len(r_set), len(s_set & r_set)


def recall_precision(source: pd.DataFrame, reclaimed: pd.DataFrame) -> tuple[float, float]:
    """Rec = |S∩Ŝ|/|S|, Pre = |S∩Ŝ|/|Ŝ| over distinct tuples, null-safe."""
    n_s, n_r, inter = distinct_overlap(source, reclaimed)
    rec = inter / n_s if n_s else 0.0
    pre = inter / n_r if n_r else 0.0
    return rec, pre


def conditional_kl(
    source: pd.DataFrame,
    reclaimed: pd.DataFrame,
    key_cols: Sequence[str],
    *,
    eps: float = KL_EPS,
) -> float:
    """Conditional KL-divergence with error penalty (Eqs 11–12).

    Per non-key column C: D_C = −Σ_k log(Q(x_k|k)·(1 − Q(¬x_k|k))) where
    x_k is S's value at (k, C), Q(·|k) is over reclaimed tuples with key k
    (Q(¬x|k) counts *non-null* values ≠ x_k, i.e. erroneous values).
    Total = mean over columns / Q(K), Q(K) = fraction of reclaimed keys
    that are source keys. The inner product is floored at ``eps``
    (−log 0 otherwise); Q(K) is floored at ``eps`` too.
    """
    cols, kidx, nk_idx = _schema(source, key_cols)
    if not nk_idx:
        return 0.0
    s_rows = norm_rows(source, cols)
    r_rows = norm_rows(reclaimed, cols)
    by_key = _by_key(r_rows, kidx)

    col_divs = []
    for i in nk_idx:
        d = 0.0
        for s in s_rows:
            k = _key_of(s, kidx)
            cands = by_key.get(k, [])
            if not cands:
                q_x, q_not = 0.0, 0.0
            else:
                q_x = sum(1 for t in cands if t[i] == s[i]) / len(cands)
                q_not = (
                    sum(1 for t in cands if t[i] is not None and t[i] != s[i])
                    / len(cands)
                )
            d += -math.log(max(q_x * (1.0 - q_not), eps))
        col_divs.append(d)

    s_keys = {_key_of(s, kidx) for s in s_rows}
    r_keys = {_key_of(r, kidx) for r in r_rows}
    q_k = (len(r_keys & s_keys) / len(r_keys)) if r_keys else 0.0
    return float(np.mean(col_divs) / max(q_k, eps))


def is_perfect(source: pd.DataFrame, reclaimed: pd.DataFrame) -> bool:
    """Perfect reclamation: Ŝ and S contain exactly the same tuples."""
    rec, pre = recall_precision(source, reclaimed)
    return rec == 1.0 and pre == 1.0
