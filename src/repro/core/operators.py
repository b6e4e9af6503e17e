"""Gen-T integration operators (paper §IV-B, Theorem 8).

The representative operator set is {⊎ outer union, σ select, π project,
β subsumption, κ complementation}. β and κ compare tuple *pairs*; after
Gen-T's ProjectSelect every tuple carries a non-null source-key value and
tuples with different keys can neither subsume nor complement each other
(they disagree on a shared non-null attribute). So the exact pairwise
kernels run per key group (``per_key_group``). Gen-T's own integration
works on row tuples of its |S|-bounded slices, in process (DESIGN.md
§4.3); the Spark operators below serve the baselines, whose outputs grow
with the lake (ALITE blocks κ on a value column through
``_apply_per_group``).

All inputs are all-string frames (lake canonical form); nulls are SQL
NULL / None.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


# Groups larger than this skip pairwise β/κ (returned unchanged) so one
# degenerate block cannot make the whole job quadratic; baselines that rely
# on unkeyed complementation (ALITE) hit this instead of hanging — the
# paper's analogue is their wall-clock timeout.
MAX_PAIRWISE_GROUP = 2000


def as_strings(df: DataFrame) -> DataFrame:
    """Cast every column to string; an all-string frame (every canonical
    lake table) is returned as it is."""
    if all(t == "string" for _, t in df.dtypes):
        return df
    return df.select([F.col(c).cast("string").alias(c) for c in df.columns])


def outer_union(left: DataFrame, right: DataFrame) -> DataFrame:
    """⊎ — natural outer union: union of columns, nulls where absent."""
    return as_strings(left).unionByName(as_strings(right), allowMissingColumns=True)


def outer_union_all(dfs: Sequence[DataFrame]) -> DataFrame:
    if not dfs:
        raise ValueError("outer_union_all needs at least one table")
    acc = as_strings(dfs[0])
    for d in dfs[1:]:
        acc = outer_union(acc, d)
    return acc


def project_select(
    df: DataFrame, source_cols: Sequence[str], key_cols: Sequence[str], source_keys: DataFrame
) -> DataFrame:
    """ProjectSelect (Alg 2 line 3): π to S's columns, σ to S's key values.

    ``source_keys`` is a DataFrame of the distinct key tuples of S. Tables
    reaching integration always contain the key columns (Expand guarantees
    it); we guard anyway.
    """
    missing = [k for k in key_cols if k not in df.columns]
    if missing:
        raise ValueError(f"table lacks source key columns {missing}")
    keep = [c for c in df.columns if c in set(source_cols)]
    proj = as_strings(df).select(keep)
    return proj.join(as_strings(source_keys).distinct(), on=list(key_cols), how="leftsemi")


# ---------------------------------------------------------------------------
# pure-pandas pairwise kernels (unit-testable without Spark)
# ---------------------------------------------------------------------------

def _rows(pdf: pd.DataFrame) -> list[tuple]:
    return [tuple(None if pd.isna(v) else v for v in r) for r in pdf.itertuples(index=False)]


def _subsumes(t1: tuple, t2: tuple) -> bool:
    """t1 subsumes t2: agree wherever both non-null, t1 ⊋ t2 on non-nulls."""
    strictly_more = False
    for a, b in zip(t1, t2):
        if a is not None and b is not None:
            if a != b:
                return False
        elif b is not None:  # a null where b non-null
            return False
        elif a is not None:  # a non-null where b null
            strictly_more = True
    return strictly_more


def _complements(t1: tuple, t2: tuple) -> bool:
    """t1, t2 complement: share ≥1 equal non-null, agree on all shared
    non-nulls, and each fills at least one null of the other."""
    shared = fills1 = fills2 = False
    for a, b in zip(t1, t2):
        if a is not None and b is not None:
            if a != b:
                return False
            shared = True
        elif a is not None:
            fills2 = True
        elif b is not None:
            fills1 = True
    return shared and fills1 and fills2


def _merge(t1: tuple, t2: tuple) -> tuple:
    return tuple(a if a is not None else b for a, b in zip(t1, t2))


def _frame(rows: list[tuple], columns: Iterable[str]) -> pd.DataFrame:
    return pd.DataFrame(rows, columns=list(columns), dtype=object)


def subsume_rows(rows: list[tuple]) -> list[tuple]:
    """β over row tuples: drop duplicates and subsumed tuples."""
    rows = list(dict.fromkeys(rows))
    if len(rows) > MAX_PAIRWISE_GROUP:
        return rows
    return [
        t2
        for i, t2 in enumerate(rows)
        if not any(i != j and _subsumes(t1, t2) for j, t1 in enumerate(rows))
    ]


def complement_rows(rows: list[tuple]) -> list[tuple]:
    """κ over row tuples: repeatedly merge complementing pairs to fixpoint."""
    rows = list(dict.fromkeys(rows))
    if len(rows) > MAX_PAIRWISE_GROUP:
        return rows
    changed = True
    while changed:
        changed = False
        n = len(rows)
        for i in range(n):
            for j in range(i + 1, n):
                if _complements(rows[i], rows[j]):
                    merged = _merge(rows[i], rows[j])
                    rows = [r for k, r in enumerate(rows) if k not in (i, j)]
                    if merged not in rows:
                        rows.append(merged)
                    changed = True
                    break
            if changed:
                break
    return rows


def minimal_form_rows(rows: list[tuple]) -> list[tuple]:
    """TakeMinimalForm (Alg 2 line 6): dedup, then κ, then β."""
    return subsume_rows(complement_rows(rows))


def _on_frame(kernel: Callable[[list[tuple]], list[tuple]]):
    """The pandas-frame form of a row kernel (unit tests, ALITE's blocks)."""
    return lambda pdf: _frame(kernel(_rows(pdf)), pdf.columns)


subsume_pdf = _on_frame(subsume_rows)
complement_pdf = _on_frame(complement_rows)
minimal_form_pdf = _on_frame(minimal_form_rows)


def null_none(col: pd.Series | np.ndarray) -> np.ndarray:
    """A column as an object array with None for every null (NaN, NaT, NA)."""
    out = np.array(col, dtype=object)
    out[pd.isna(out)] = None
    return out


def first_rows(pdf: pd.DataFrame, key_cols: Sequence[str]) -> dict[tuple, int]:
    """Each key's first row in ``pdf``; null key parts (None, NaN) are
    equal, as in a pandas ``merge``."""
    keys = list(zip(*(null_none(pdf[k]) for k in key_cols)))
    return dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))


def match_rates(
    tbl: pd.DataFrame,
    tbl_keys: Sequence[str],
    src: pd.DataFrame,
    src_first: dict[tuple, int],
    pairs: Iterable[tuple[str, str]],
) -> tuple[int, dict[tuple[str, str], float]]:
    """How well ``tbl`` agrees with the source under one key alignment.

    Each source key's first row (``src_first``, the source's
    ``first_rows``) is aligned with that key's first row in ``tbl`` on
    ``tbl_keys``. Returns the number of keys aligned and, per (table
    column, source column) pair, the cell match rate: the share of the
    aligned non-null source cells that the table's cell equals. A pair
    whose aligned source cells are all null gets no rate.
    """
    aligned = [(i, src_first[k]) for k, i in first_rows(tbl, tbl_keys).items() if k in src_first]
    rates: dict[tuple[str, str], float] = {}
    if not aligned:
        return 0, rates
    at, src_at = (np.array(p) for p in zip(*aligned))
    for c, s in pairs:
        s_vals = src[s].to_numpy(dtype=object)[src_at]
        nonnull = pd.notna(s_vals)
        denom = int(nonnull.sum())
        if denom:
            hits = (tbl[c].to_numpy(dtype=object)[at] == s_vals) & nonnull
            rates[c, s] = float(hits.sum()) / denom
    return len(aligned), rates


def project_select_pdf(
    pdf: pd.DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> pd.DataFrame:
    """ProjectSelect (Alg 2 line 3) on a pandas frame of canonical strings.

    ``source`` is canonical too (``canon_str``). Semi-join semantics, as
    ``project_select``'s ``leftsemi``: a row with a null key value never
    matches, duplicate source keys do not multiply rows, and the rows keep
    their order.
    """
    missing = [k for k in key_cols if k not in pdf.columns]
    if missing:
        raise ValueError(f"table lacks source key columns {missing}")
    src_keys = [source[k].to_numpy(dtype=object) for k in key_cols]
    full = np.logical_and.reduce([pd.notna(a) for a in src_keys])
    wanted = set(zip(*(a[full] for a in src_keys)))
    mask = np.fromiter(
        (k in wanted for k in zip(*(pdf[k].to_numpy(dtype=object) for k in key_cols))),
        dtype=bool,
        count=len(pdf),
    )
    keep = [c for c in pdf.columns if c in source.columns]
    rows = np.flatnonzero(mask)
    cells = np.column_stack([pdf[c].to_numpy(dtype=object)[rows] for c in keep])
    return pd.DataFrame(cells, columns=keep)


def per_key_group(
    rows: list[tuple], kidx: Sequence[int], fn: Callable[[list[tuple]], list[tuple]]
) -> list[tuple]:
    """Apply a pairwise row kernel (``*_rows``) to each key group of
    ``rows``, the key being the cells at ``kidx``. Groups keep the order
    of their first row and each group keeps its row order (κ is
    order-dependent). A one-row group is passed through: dedup, β and κ
    leave it unchanged. Cells are None where null, as the kernels expect."""
    groups: dict[tuple, list[tuple]] = {}
    for r in rows:
        groups.setdefault(tuple(r[i] for i in kidx), []).append(r)
    return [t for g in groups.values() for t in (g if len(g) == 1 else fn(g))]


CLOSURE_CAP = 400  # max tuples materialised per complementation closure


def complement_closure_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Complementation *closure*: all maximal merge combinations.

    Gen-T's κ replaces a complementing pair with its merge; Full
    Disjunction (ALITE) instead contains every maximal combination of
    join-consistent tuples — a tuple may combine with several mutually
    conflicting partners and all outcomes must appear. We grow the closure
    (originals + every pairwise merge) to a fixpoint, capped at
    ``CLOSURE_CAP`` tuples per block, then drop subsumed tuples.
    """
    rows = list(dict.fromkeys(_rows(pdf)))
    if len(rows) > MAX_PAIRWISE_GROUP:
        return _frame(rows, pdf.columns)
    all_rows: set[tuple] = set(rows)
    changed = True
    while changed and len(all_rows) < CLOSURE_CAP:
        changed = False
        lst = sorted(all_rows, key=lambda t: tuple((v is None, v or "") for v in t))
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                if _complements(lst[i], lst[j]):
                    m = _merge(lst[i], lst[j])
                    if m not in all_rows:
                        all_rows.add(m)
                        changed = True
                        if len(all_rows) >= CLOSURE_CAP:
                            break
            if len(all_rows) >= CLOSURE_CAP:
                break
    return _frame(subsume_rows(list(all_rows)), pdf.columns)


# ---------------------------------------------------------------------------
# Spark wrappers
# ---------------------------------------------------------------------------

def _apply_per_group(
    df: DataFrame, group_cols: Sequence[str], fn: Callable[[pd.DataFrame], pd.DataFrame]
) -> DataFrame:
    df = as_strings(df)
    cols = list(df.columns)

    def _f(pdf: pd.DataFrame) -> pd.DataFrame:
        out = fn(pdf[cols])
        return out[cols].astype(object).where(out[cols].notna(), None)

    return df.groupBy([F.col(c) for c in group_cols]).applyInPandas(_f, schema=df.schema)


def add_missing_null_columns(df: DataFrame, source_cols: Iterable[str]) -> DataFrame:
    """Alg 2 lines 15-16: pad T_result with null columns so schema matches S."""
    out = df
    for c in source_cols:
        if c not in out.columns:
            out = out.withColumn(c, F.lit(None).cast("string"))
    return out.select(list(source_cols))
