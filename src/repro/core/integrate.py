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
the whole algorithm runs in the calling Python process and starts no
Spark job. Each table is converted once into row tuples over S's column
order, None where a cell is null and where the table lacks the column;
every step then works on lists of those tuples, with the pairwise kernels
applied per key group (DESIGN.md §4.3), and one object frame with S's
columns is built at the end. The padding changes nothing: dedup, κ and β
compare tuples elementwise, so a column that is None in every row takes
no part in them. The source and the tables arrive canonical
(``canon_str``), so nothing here re-canonicalises them.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from repro.core import metrics_core as mc
from repro.core import operators as ops

LABEL_PREFIX = "##NULL##"
_KEY_SEP = "\x1f"

# per key of S without a null part: column index → the label of S's null there
Labels = dict[tuple, dict[int, str]]


def label_source_nulls(
    s_rows: list[tuple], cols: Sequence[str], kidx: Sequence[int]
) -> tuple[list[tuple], Labels]:
    """LabelSourceNulls over S's rows (``metrics_core.norm_rows``).

    Returns a working copy of the rows with each non-key null replaced by
    the unique label ``##NULL##<key values>\\x1f<column>``, and the labels
    per key of S. A key with a null part gets none: no table row can be
    aligned with it."""
    keyed = set(kidx)
    labeled: list[tuple] = []
    labels: Labels = {}
    for s in s_rows:
        key = tuple(s[i] for i in kidx)
        prefix = LABEL_PREFIX + _KEY_SEP.join("" if v is None else v for v in key) + _KEY_SEP
        nulls = {
            i: prefix + c for i, (c, v) in enumerate(zip(cols, s)) if v is None and i not in keyed
        }
        labeled.append(tuple(nulls.get(i, v) for i, v in enumerate(s)) if nulls else s)
        if nulls and None not in key:
            labels.setdefault(key, {}).update(nulls)
    return labeled, labels


def _apply_labels(
    rows: list[tuple], labels: Labels, kidx: Sequence[int], held: frozenset[int]
) -> list[tuple]:
    """Substitute S's labels into the nulls of a table that holds the
    columns ``held``, at S's null positions."""
    out = []
    for r in rows:
        lab = labels.get(tuple(r[i] for i in kidx))
        if lab:
            r = tuple(lab.get(i, v) if v is None and i in held else v for i, v in enumerate(r))
        out.append(r)
    return out


def _revert_labels(rows: list[tuple], labels: Labels) -> list[tuple]:
    """RemoveLabeledNulls: exactly the labels ``label_source_nulls`` made
    become null again; a lake value that merely looks like one stays."""
    produced = {v for lab in labels.values() for v in lab.values()}
    return [tuple(None if v in produced else v for v in r) for r in rows]


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
    skipped. Returns an object frame with exactly S's columns and None
    for every null, or None when no table can be integrated.
    """
    key_cols = list(key_cols)
    pre = [t for t in tables if all(k in t.columns for k in key_cols)]
    if not pre:
        return None
    cols = list(source.columns)
    kidx = [cols.index(k) for k in key_cols]
    nk_idx = [i for i in range(len(cols)) if i not in kidx]
    labeled, labels = label_source_nulls(mc.norm_rows(source, cols), cols, kidx)

    # InnerUnion: one row list per schema, in order of its first table
    unions: dict[frozenset[int], list[tuple]] = {}
    for t in pre:
        held = frozenset(i for i, c in enumerate(cols) if c in t.columns)
        unions.setdefault(held, []).extend(mc.norm_rows(t, cols))

    acc: list[tuple] = []
    for held, rows in unions.items():
        acc = acc + ops.per_key_group(
            _apply_labels(rows, labels, kidx, held), kidx, ops.minimal_form_rows
        )
        base = mc.eis_rows(labeled, acc, kidx, nk_idx)
        comp = ops.per_key_group(acc, kidx, ops.complement_rows)
        comp_eis = mc.eis_rows(labeled, comp, kidx, nk_idx)
        if comp_eis >= base:
            acc, base = comp, comp_eis
        sub = ops.per_key_group(acc, kidx, ops.subsume_rows)
        if mc.eis_rows(labeled, sub, kidx, nk_idx) >= base:
            acc = sub

    return pd.DataFrame(_revert_labels(acc, labels), columns=cols, dtype=object)
