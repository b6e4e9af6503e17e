"""The pandas form of Table Integration (Alg 2), kept as the reference for
``repro.core.integrate`` (``test_integrate.py::TestMatchesReference``).

Each step is a frame operation: S's null labels are a ``groupby().first()``
merged into each table and filled with ``where``; InnerUnion is a
``pd.concat`` per schema; TakeMinimalForm, κ and β convert the
accumulated frame to row tuples per key group and back
(``per_key_group``); and each EIS guard scores the frame against the
labelled source with ``eis``, a copy of the frame-level metric. Only the
pairwise kernels (``operators.*_rows``) are shared with the module.
"""
from __future__ import annotations

from typing import Callable, Sequence

import pandas as pd

from repro.core import operators as ops
from repro.core.integrate import LABEL_PREFIX
from repro.core.metrics_core import _norm_col, error_aware_tuple_similarity

_KEY_SEP = "\x1f"


def _norm_rows(pdf: pd.DataFrame, cols: Sequence[str]) -> list[tuple]:
    return list(zip(*(_norm_col(pdf[c]) for c in cols)))


def eis(source: pd.DataFrame, reclaimed: pd.DataFrame, key_cols: Sequence[str]) -> float:
    cols = list(source.columns)
    kidx = [cols.index(k) for k in key_cols]
    nk_idx = [i for i in range(len(cols)) if i not in kidx]
    s_rows = _norm_rows(source, cols)
    reclaimed = reclaimed.reindex(columns=cols)
    r_rows = _norm_rows(reclaimed, cols) if len(reclaimed) else []
    by_key: dict[tuple, list[tuple]] = {}
    for r in r_rows:
        by_key.setdefault(tuple(r[i] for i in kidx), []).append(r)
    if not s_rows:
        return 0.0
    total = 0.0
    for s in s_rows:
        cands = by_key.get(tuple(s[i] for i in kidx), [])
        if cands:
            total += max(1 + error_aware_tuple_similarity(s, t, nk_idx) for t in cands)
    return 0.5 * total / len(s_rows)


def _rows(pdf: pd.DataFrame) -> list[tuple]:
    return [tuple(None if pd.isna(v) else v for v in r) for r in pdf.itertuples(index=False)]


def _frame(rows: list[tuple], columns) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=list(columns), dtype=object)


def per_key_group(
    pdf: pd.DataFrame, key_cols: Sequence[str], fn: Callable[[list[tuple]], list[tuple]]
) -> pd.DataFrame:
    cols = list(pdf.columns)
    kidx = [cols.index(k) for k in key_cols]
    groups: dict[tuple, list[tuple]] = {}
    for r in _rows(pdf):
        groups.setdefault(tuple(r[i] for i in kidx), []).append(r)
    return _frame([t for g in groups.values() for t in (g if len(g) == 1 else fn(g))], cols)


def inner_union_pdfs(pdfs: Sequence[pd.DataFrame]) -> list[pd.DataFrame]:
    groups: dict[frozenset, list[pd.DataFrame]] = {}
    for d in pdfs:
        groups.setdefault(frozenset(d.columns), []).append(d)
    return [pd.concat(g, ignore_index=True) for g in groups.values()]


def label_source_nulls(source: pd.DataFrame, key_cols: Sequence[str]) -> pd.DataFrame:
    src = source.reset_index(drop=True)
    key_str = pd.Series(LABEL_PREFIX, index=src.index)
    for i, k in enumerate(key_cols):
        key_str = key_str + ("" if i == 0 else _KEY_SEP) + src[k].fillna("")
    out = src.copy()
    for c in src.columns:
        if c not in key_cols:
            null = src[c].isna()
            out.loc[null, c] = key_str[null] + _KEY_SEP + c
    return out


def _null_labels(
    src: pd.DataFrame, labeled_source: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    nk = [c for c in src.columns if c not in key_cols]
    out = labeled_source.copy()
    out[nk] = out[nk].where(src[nk].isna(), None)
    return out.groupby(list(key_cols), sort=False).first().reset_index()


def _apply_labels(
    pdf: pd.DataFrame, labels: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    fill = pdf[list(key_cols)].merge(labels, on=list(key_cols), how="left")
    out = pdf.copy()
    for c in out.columns:
        if c not in key_cols:
            out[c] = out[c].where(out[c].notna(), fill[c].to_numpy())
    return out


def _revert_labels(
    pdf: pd.DataFrame, labels: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    cells = labels.drop(columns=list(key_cols)).to_numpy().ravel()
    produced = [v for v in cells if isinstance(v, str)]
    out = pdf.astype(object)
    return out.where(out.notna() & ~out.isin(produced), None)


def integrate(
    tables: Sequence[pd.DataFrame],
    source: pd.DataFrame,
    key_cols: Sequence[str],
) -> pd.DataFrame | None:
    src = source.reset_index(drop=True)
    key_cols = list(key_cols)
    pre = [t for t in tables if all(k in t.columns for k in key_cols)]
    if not pre:
        return None

    labeled_source = label_source_nulls(src, key_cols)
    labels = _null_labels(src, labeled_source, key_cols)
    minimal = [
        per_key_group(_apply_labels(t, labels, key_cols), key_cols, ops.minimal_form_rows)
        for t in inner_union_pdfs(pre)
    ]

    acc: pd.DataFrame | None = None
    for t in minimal:
        acc = t if acc is None else pd.concat([acc, t], ignore_index=True)
        base = eis(labeled_source, acc, key_cols)
        comp = per_key_group(acc, key_cols, ops.complement_rows)
        comp_eis = eis(labeled_source, comp, key_cols)
        if comp_eis >= base:
            acc, base = comp, comp_eis
        sub = per_key_group(acc, key_cols, ops.subsume_rows)
        if eis(labeled_source, sub, key_cols) >= base:
            acc = sub

    return _revert_labels(acc.reindex(columns=list(src.columns)), labels, key_cols)
