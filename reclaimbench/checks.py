"""Output checks applied to every reclaimed table, traced or not."""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from repro.core.integrate import LABEL_PREFIX
from repro.lake.repository import canon_str

TOL = 1e-9


def _tuples(pdf: pd.DataFrame, cols: Sequence[str]) -> set[tuple]:
    """Distinct rows; every non-string (NaN, None) reads as NULL = NULL."""
    return {
        tuple(v if isinstance(v, str) else None for v in row)
        for row in pdf[list(cols)].itertuples(index=False, name=None)
    }


def recall_precision(source: pd.DataFrame, reclaimed: pd.DataFrame) -> tuple[float, float]:
    cols = list(source.columns)
    s = _tuples(canon_str(source), cols)
    r = _tuples(reclaimed, cols)
    inter = len(s & r)
    return (inter / len(s) if s else 0.0), (inter / len(r) if r else 0.0)


def check_output(
    source: pd.DataFrame,
    key_cols: Sequence[str],
    reclaimed: pd.DataFrame | None,
    originating: Sequence[str],
    lake_tables: set[str],
    scores: dict,
) -> list[str]:
    """Problems with one reclamation; empty when it passes every check.

    ``reclaimed`` is the collected table (None when Gen-T returned
    nothing, which reads as an empty table); ``scores`` is what
    ``metrics.evaluate`` returned for it.
    """
    problems = []
    cols = list(source.columns)
    if reclaimed is None:
        reclaimed = pd.DataFrame(columns=cols)
    if list(reclaimed.columns) != cols:
        problems.append(f"columns {list(reclaimed.columns)} != source columns {cols}")
        return problems

    src_keys = _tuples(canon_str(source), key_cols)
    stray = _tuples(reclaimed, key_cols) - src_keys
    if stray:
        problems.append(f"{len(stray)} reclaimed keys not in the source, e.g. {sorted(stray, key=str)[0]}")

    labels = sum(
        int(reclaimed[c].map(lambda v: isinstance(v, str) and v.startswith(LABEL_PREFIX)).sum())
        for c in cols
    )
    if labels:
        problems.append(f"{labels} {LABEL_PREFIX} labels survive")

    for name in originating:
        if not all(part in lake_tables for part in name.split("+")):
            problems.append(f"originating {name!r} is not a lake table or Expand path")

    rec, pre = recall_precision(source, reclaimed)
    if abs(rec - scores["recall"]) > TOL or abs(pre - scores["precision"]) > TOL:
        problems.append(
            f"pandas recall/precision {rec:.6f}/{pre:.6f} != "
            f"evaluate {scores['recall']:.6f}/{scores['precision']:.6f}"
        )
    return problems
