"""The pandas ``drop_duplicates`` + ``merge`` key-option refinement, kept as
the reference for ``repro.core.discovery._refine_mapping``
(``test_discovery.py::TestRefineMapping``).

``refine_mapping`` takes the candidate table itself where the discovery
function takes a loader; its arguments and result are otherwise the same.
"""
from __future__ import annotations

import itertools

import pandas as pd

from repro.core.discovery import KEY_OPTION_EPS, MIN_COL_MATCH, MIN_KEY_MATCH

_SRC_SUFFIX = "\x00src"


def refine_mapping(
    tbl: pd.DataFrame,
    options: dict[str, list[tuple[str, float, float]]],
    src: pd.DataFrame,
    key_cols: list[str],
) -> dict[str, str] | None:
    nk_src = [s for s in options if s not in key_cols]

    def jac_mapping(exclude: set[str] = frozenset()) -> dict[str, str]:
        triples = sorted(
            (
                (s, col, jac)
                for s in nk_src
                for col, _ov, jac in options[s]
                if col not in exclude
            ),
            key=lambda t: (-t[2], t[0], t[1]),
        )
        used: set[str] = set()
        mapping: dict[str, str] = {}
        for s, col, _jac in triples:
            if s in mapping or col in used:
                continue
            mapping[s] = col
            used.add(col)
        return mapping

    if not all(k in options for k in key_cols) or not nk_src:
        return jac_mapping() or None

    per_key_opts: dict[str, list[str]] = {}
    for k in key_cols:
        best_ov = options[k][0][1]
        per_key_opts[k] = [
            col for col, ov, _j in options[k] if ov >= best_ov - KEY_OPTION_EPS
        ][:3]

    src_keyed = src.drop_duplicates(key_cols)
    best_score, best_result = -1.0, None

    for combo in itertools.product(*[per_key_opts[k] for k in key_cols]):
        if len(set(combo)) != len(combo):
            continue
        kcols = list(combo)
        opt_cols = sorted(
            {col for s in nk_src for col, *_ in options[s]} - set(combo)
        )
        if not opt_cols:
            continue
        sub = tbl[kcols + opt_cols].drop_duplicates(kcols)
        merged = sub.merge(
            src_keyed,
            left_on=kcols,
            right_on=key_cols,
            how="inner",
            suffixes=("", _SRC_SUFFIX),
        )
        if merged.empty:
            continue
        coverage = len(merged) / max(1, len(src_keyed))
        assign: dict[str, tuple[str, float]] = {}
        for s in nk_src:
            s_col = s + _SRC_SUFFIX if s + _SRC_SUFFIX in merged.columns else s
            svals = merged[s_col]
            nonnull = svals.notna()
            denom = int(nonnull.sum())
            if denom == 0:
                continue
            for col, _ov, _j in options[s]:
                if col in combo:
                    continue
                rate = float(((merged[col] == svals) & nonnull).sum()) / denom
                if rate >= MIN_COL_MATCH and (
                    s not in assign or rate > assign[s][1]
                ):
                    assign[s] = (col, rate)
        if not assign:
            continue
        by_col: dict[str, tuple[str, float]] = {}
        for s, (col, rate) in assign.items():
            if col not in by_col or rate > by_col[col][1]:
                by_col[col] = (s, rate)
        nk_map = {s: col for col, (s, _r) in by_col.items()}
        score = (
            sum(by_col[c][1] for c in by_col) / len(by_col)
        ) * min(1.0, coverage)
        if score > best_score:
            best_score = score
            best_result = (dict(zip(key_cols, combo)), nk_map)

    if best_result is None or best_score < MIN_KEY_MATCH:
        return jac_mapping() or None

    key_option, nk_map = best_result
    return {**key_option, **nk_map}
