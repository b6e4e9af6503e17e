"""The dict-of-lists matrix kernels, kept as the reference for
``repro.core.matrix`` (``test_matrix_property.py``).

A reference matrix is a dict ``key tuple → list of int8 row vectors``:
keys in first-appearance order, rows in their order. ``to_dict`` and
``to_matrix`` convert between it and ``matrix.Matrix``. The project-select
loop is the reference of ``operators.project_select_pdf``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

from repro.core import matrix as mtx

RefMatrix = dict[tuple, list[np.ndarray]]


def _norm(pdf: pd.DataFrame) -> list[tuple]:
    return [
        tuple(None if pd.isna(v) else str(v) for v in r)
        for r in pdf.itertuples(index=False)
    ]


def source_keys(source: pd.DataFrame, key_cols: Sequence[str]) -> list[tuple]:
    """The key tuple of every source row, as the reference spells it."""
    cols = list(source.columns)
    kidx = [cols.index(k) for k in key_cols]
    return [tuple(s[i] for i in kidx) for s in _norm(source.reset_index(drop=True))]


def to_dict(m: mtx.Matrix, keys: Sequence[tuple]) -> RefMatrix:
    """A ``Matrix`` as a reference dict; ``keys[i]`` is source row i's key."""
    return {
        keys[i]: list(m.codes[m.starts[g] : m.starts[g + 1]]) for g, i in enumerate(m.ids)
    }


def to_matrix(ref: RefMatrix, ids: dict[tuple, int], width: int) -> mtx.Matrix:
    """A reference dict as a ``Matrix``; ``ids`` maps each key to its id."""
    rows = [r for rs in ref.values() for r in rs]
    starts = np.cumsum([0] + [len(rs) for rs in ref.values()])
    return mtx.Matrix(
        np.array([ids[k] for k in ref], dtype=np.int64),
        starts.astype(np.int64),
        np.array(rows, dtype=np.int8).reshape(len(rows), width),
    )


def encode_matrix(
    source: pd.DataFrame, aligned: pd.DataFrame, key_cols: Sequence[str]
) -> RefMatrix:
    src = source.reset_index(drop=True)
    cols = list(src.columns)
    kidx = [cols.index(k) for k in key_cols]

    s_rows = _norm(src)
    by_key: dict[tuple, tuple] = {}
    for s in s_rows:
        by_key[tuple(s[i] for i in kidx)] = s

    matrix: RefMatrix = {}
    if len(aligned):
        al = aligned.copy()
        for c in cols:
            if c not in al.columns:
                al[c] = None
        for t in _norm(al[cols]):
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


def _conflict(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.any((a != b) & (a != 0) & (b != 0)))


def _or_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a != 0, a, b).astype(np.int8)


def combine(m1: RefMatrix, m2: RefMatrix) -> RefMatrix:
    out: RefMatrix = {k: [r.copy() for r in rows] for k, rows in m1.items()}
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
        uniq: list[np.ndarray] = []
        for r in acc:
            if not any(np.array_equal(r, u) for u in uniq):
                uniq.append(r)
        out[k] = uniq
    return out


def evaluate_similarity(
    matrix: RefMatrix, source: pd.DataFrame, key_cols: Sequence[str]
) -> float:
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
    matrices: dict[str, RefMatrix], source: pd.DataFrame, key_cols: Sequence[str]
) -> list[str]:
    if not matrices:
        return []
    names = list(matrices)

    def ev(m: RefMatrix) -> float:
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
            break
        chosen.append(best_next)
        current, most_correct = best_combined, best_score
    return chosen


def project_select_pdf(
    pdf: pd.DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    missing = [k for k in key_cols if k not in pdf.columns]
    if missing:
        raise ValueError(f"table lacks source key columns {missing}")
    src_keys = source[list(key_cols)].dropna()
    wanted = set(src_keys.itertuples(index=False, name=None))
    mask = [k in wanted for k in zip(*(pdf[k] for k in key_cols))]
    keep = [c for c in pdf.columns if c in source.columns]
    return pdf.loc[mask, keep].reset_index(drop=True)
