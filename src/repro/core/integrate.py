"""Table Integration (paper §V-B, Alg 2).

Pipeline per source table:
  1. ProjectSelect — π to S's columns, σ to S's key values (done by the
     caller: the tables are the key slices matrix encoding read);
  2. InnerUnion   — union tables sharing a schema;
  3. LabelSourceNulls — S's nulls become unique labelled non-null values in
     both a working copy of S and any key-aligned table null at the same
     position, so κ/β cannot over-combine through "correct" nulls
     (Example 10's Smith tuple);
  4. TakeMinimalForm — dedup + κ + β per key group;
  5. iterated outer union, applying κ / β only when they do not lower the
     EIS against the labelled source (Alg 2 lines 10-13);
  6. RemoveLabeledNulls + pad missing source columns.

After ProjectSelect every table is bounded by |S| × fan-out (§VI-A), so
the whole algorithm runs on the driver over pandas frames, with the
pairwise kernels applied per key group (DESIGN.md §4.3). It starts no
Spark job; the caller hands the result back to Spark once. The source
and the tables arrive canonical (``canon_str``), so nothing here
re-canonicalises them.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from repro.core import metrics_core as mc
from repro.core import operators as ops

LABEL_PREFIX = "##NULL##"
_KEY_SEP = "\x1f"


def label_source_nulls(source: pd.DataFrame, key_cols: Sequence[str]) -> pd.DataFrame:
    """Working copy of the canonical S with each null replaced by a unique
    label ``##NULL##<key values>\\x1f<column>``."""
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
    """S's distinct keys with, per non-key column, the label where S has a
    null there and null elsewhere."""
    nk = [c for c in src.columns if c not in key_cols]
    out = labeled_source.copy()
    out[nk] = out[nk].where(src[nk].isna(), None)
    return out.groupby(list(key_cols), sort=False).first().reset_index()


def _apply_labels(
    pdf: pd.DataFrame, labels: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    """Substitute S's labels into the table's nulls at S's null positions."""
    fill = pdf[list(key_cols)].merge(labels, on=list(key_cols), how="left")
    out = pdf.copy()
    for c in out.columns:
        if c not in key_cols:
            out[c] = out[c].where(out[c].notna(), fill[c].to_numpy())
    return out


def _revert_labels(
    pdf: pd.DataFrame, labels: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    """RemoveLabeledNulls: exactly the labels ``label_source_nulls`` made
    become null again; a lake value that merely looks like one stays."""
    cells = labels.drop(columns=list(key_cols)).to_numpy().ravel()
    produced = [v for v in cells if isinstance(v, str)]
    out = pdf.astype(object)
    return out.where(out.notna() & ~out.isin(produced), None)


def integrate(
    tables: Sequence[pd.DataFrame],
    source: pd.DataFrame,
    key_cols: Sequence[str],
) -> pd.DataFrame | None:
    """Alg 2 — integrate originating tables into a reclaimed table.

    ``source`` is canonical (``canon_str``) and ``tables`` are all-string
    pandas frames in integration order. Each table must already be
    ProjectSelect'ed (``operators.project_select_pdf``, as
    ``gent.reclaim_from_candidates`` cuts it): only S's columns, and only
    rows whose key is one of S's. Tables without S's key columns are
    skipped. Returns a frame with exactly S's columns, or None when no
    table can be integrated.
    """
    src = source.reset_index(drop=True)
    key_cols = list(key_cols)
    pre = [t for t in tables if all(k in t.columns for k in key_cols)]
    if not pre:
        return None

    labeled_source = label_source_nulls(src, key_cols)
    labels = _null_labels(src, labeled_source, key_cols)
    minimal = [
        ops.per_key_group(_apply_labels(t, labels, key_cols), key_cols, ops.minimal_form_rows)
        for t in ops.inner_union_pdfs(pre)
    ]

    acc: pd.DataFrame | None = None
    for t in minimal:
        acc = t if acc is None else pd.concat([acc, t], ignore_index=True)
        base = mc.eis(labeled_source, acc, key_cols)
        comp = ops.per_key_group(acc, key_cols, ops.complement_rows)
        comp_eis = mc.eis(labeled_source, comp, key_cols)
        if comp_eis >= base:
            acc, base = comp, comp_eis
        sub = ops.per_key_group(acc, key_cols, ops.subsume_rows)
        if mc.eis(labeled_source, sub, key_cols) >= base:
            acc = sub

    return _revert_labels(acc.reindex(columns=list(src.columns)), labels, key_cols)
