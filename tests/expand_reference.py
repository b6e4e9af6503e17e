"""The whole-join Expand, kept as the reference for ``repro.core.expand``
(``test_expand.py::TestCutPaths``).

Each path joins its candidates' whole frames with pandas ``merge`` and
keeps the joined frame as the expanded candidate's ``pdf``; Gen-T's key
slice then cuts it to the source keys. ``expand`` takes the same arguments
as the module's and returns candidates with the same names, mappings and
key slices. Its constants are the module's.
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from repro.core.discovery import Candidate
from repro.core.expand import (
    HOP_PENALTY,
    MAX_EXPANSIONS,
    MAX_HOPS,
    MIN_JOIN_EXTENT,
    MIN_JOIN_JACCARD,
    TOP_PATHS,
    _SAMPLE,
)
from repro.core.operators import first_rows
from repro.lake.repository import to_spark

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def _value_sets(pdf: pd.DataFrame) -> dict[str, frozenset]:
    """Joinable-column value sets of a candidate (sampled).

    ``pdf`` is the candidate's renamed frame (``Candidate.pdf``). A column
    qualifies as a join candidate if it has at least MIN_JOIN_EXTENT
    distinct values *or* is near-unique within its table — the absolute
    floor rejects categorical domains in big tables without disqualifying
    the only (tiny) join column of a 3-row web table."""
    n_rows = max(1, len(pdf))
    out = {}
    for col in pdf.columns:
        vals = pdf[col].dropna().unique()
        if len(vals) < MIN_JOIN_EXTENT and len(vals) < 0.8 * n_rows:
            continue
        if len(vals) > _SAMPLE:
            vals = vals[:_SAMPLE]
        out[col] = frozenset(vals)
    return out


def _edge(
    a: Candidate, b: Candidate, vsets: dict[str, dict[str, frozenset]]
) -> tuple[str, str, float] | None:
    """Best join condition between two candidates: (colA, colB, weight).

    All column pairs compete on the Jaccard of their (full, sampled) value
    sets — ties go to the pair with the larger extents, so a dense FK
    column (custkey ↔ custkey) beats a small categorical domain that also
    happens to overlap. Columns below MIN_JOIN_EXTENT distinct values are
    never join candidates (a 5-value segment column would build a
    many-to-many mess)."""
    best: tuple[str, str, float, int] | None = None
    for ca, va in vsets.get(a.name, {}).items():
        for cb, vb in vsets.get(b.name, {}).items():
            inter = len(va & vb)
            if not inter:
                continue
            w = inter / (len(va) + len(vb) - inter)
            ext = min(len(va), len(vb))
            if w >= MIN_JOIN_JACCARD and (
                best is None or (w, ext) > (best[2], best[3])
            ):
                best = (ca, cb, w, ext)
    if best is None:
        return None
    return best[0], best[1], best[2]


def _best_paths(
    start: str,
    ends: set[str],
    adj: dict[str, list[tuple[str, float]]],
    *,
    top_p: int,
) -> list[list[str]]:
    """Hop-penalised DFS (Alg 5 with bounded depth).

    Returns the best path to each reachable end node, keeping the top-p end
    nodes by score. One path per end node matters because in a lake of
    corrupted variants (TP-TR) different end tables lose *different* join
    rows, and the traversal needs the alternatives to choose from."""
    best_per_end: dict[str, tuple[float, list[str]]] = {}

    def dfs(node: str, path: list[str], w: float) -> None:
        if node in ends:
            hops = len(path) - 1
            # bottleneck scoring: a join path keeps at most what its weakest
            # join keeps, and every extra hop costs — so a direct join beats
            # any detour through strongly-joined sibling tables
            score = w - HOP_PENALTY * (hops - 1)
            prev = best_per_end.get(node)
            if prev is None or score > prev[0] or (
                score == prev[0] and len(path) < len(prev[1])
            ):
                best_per_end[node] = (score, list(path))
            return  # a key-bearing node ends the path
        if len(path) - 1 >= MAX_HOPS:
            return
        for nxt, ew in sorted(adj.get(node, []), key=lambda t: (-t[1], t[0])):
            if nxt not in path:
                path.append(nxt)
                dfs(nxt, path, min(w, ew))
                path.pop()

    dfs(start, [start], float("inf"))
    ranked = sorted(
        best_per_end.items(), key=lambda kv: (-kv[1][0], len(kv[1][1]), kv[0])
    )
    return [p for _end, (_s, p) in ranked[:top_p]]


def expand(
    spark: SparkSession,
    cands: list[Candidate],
    key_cols: list[str],
    *,
    source: pd.DataFrame | None = None,
) -> list[Candidate]:
    """Replace keyless candidates by their best join-expansion to the key.

    Candidates with no path to a key-bearing candidate are dropped (their
    tuples can never align with the source). ``source``, when given, is
    the canonical source (``canon_str``); it prunes an expanded path's
    mapped columns that do not match it."""
    with_key = [c for c in cands if all(k in c.mapping for k in key_cols)]
    without = [c for c in cands if not all(k in c.mapping for k in key_cols)]
    if not without or not with_key:
        return with_key

    frames = {c.name: c.pdf for c in cands}
    vsets = {n: _value_sets(f) for n, f in frames.items()}
    by_name = {c.name: c for c in cands}
    adj: dict[str, list[tuple[str, float]]] = {}
    edges: dict[tuple[str, str], tuple[str, str, float]] = {}
    names = sorted(by_name)
    for i, na in enumerate(names):
        for nb in names[i + 1 :]:
            e = _edge(by_name[na], by_name[nb], vsets)
            if e:
                ca, cb, w = e
                adj.setdefault(na, []).append((nb, w))
                adj.setdefault(nb, []).append((na, w))
                edges[(na, nb)] = (ca, cb, w)
                edges[(nb, na)] = (cb, ca, w)

    ends = {c.name for c in with_key}
    out = list(with_key)
    n_expanded = 0
    # strongest keyless candidates expand first; global cap keeps the
    # downstream matrix/integration work bounded
    for c in sorted(without, key=lambda x: (-x.score, x.name)):
        if n_expanded >= MAX_EXPANSIONS:
            break
        for path in _best_paths(c.name, ends, adj, top_p=TOP_PATHS):
            cand = _materialise_path(
                spark, c, path, by_name, frames, edges, key_cols, source
            )
            if cand is not None:
                out.append(cand)
                n_expanded += 1
                if n_expanded >= MAX_EXPANSIONS:
                    break
    return out


def _join_pdfs(
    lp: pd.DataFrame, rp: pd.DataFrame, ca: str, cb: str
) -> pd.DataFrame:
    """Inner equi-join on one column pair, as SQL joins: a null join value
    matches nothing (pandas ``merge`` would pair null with null), and a
    column both sides share is coalesced, left first.

    Only the two join columns go through ``merge``, which gives the
    matching row positions in ``merge``'s row order; every output column
    is then taken once."""
    lk = lp[ca].to_numpy(dtype=object)
    rk = rp[cb].to_numpy(dtype=object)
    li, ri = np.flatnonzero(pd.notna(lk)), np.flatnonzero(pd.notna(rk))
    at = pd.DataFrame({"v": lk[li], "i": li}).merge(
        pd.DataFrame({"v": rk[ri], "j": ri}), on="v"
    )
    # pandas 2.2's inner merge restores the left order by a shortcut when
    # it returns as many rows as the left input, which is wrong if some
    # left row matched twice and another none: sort to (left, right) order
    at = at.sort_values(["i", "j"], kind="stable")
    i, j = at["i"].to_numpy(), at["j"].to_numpy()
    cols = {c: lp[c].to_numpy()[i] for c in lp.columns}
    for c in rp.columns:
        r = rp[c].to_numpy()[j]
        cols[c] = np.where(pd.isna(cols[c]), r, cols[c]) if c in cols else r
    return pd.DataFrame(cols)


def _materialise_path(
    spark: SparkSession,
    start: Candidate,
    path: list[str],
    by_name: dict[str, Candidate],
    frames: dict[str, pd.DataFrame],
    edges: dict[tuple[str, str], tuple[str, str, float]],
    key_cols: list[str],
    source: pd.DataFrame | None = None,
) -> Candidate | None:
    """Join along the path, then keep only the start table's mapped columns
    plus the key. The tables joined through are candidates in their own
    right — carrying their attribute columns through the chain would count
    their (possibly erroneous) values twice (DESIGN.md §6).

    ``frames`` holds each candidate's renamed pandas frame (``Candidate.pdf``);
    ``source`` is the canonical source, or None to skip the pruning."""
    pdf = frames[start.name]
    mapping = dict(start.mapping)
    overlaps = dict(start.col_overlaps)
    for prev, nxt in zip(path, path[1:]):
        ca, cb, _w = edges[(prev, nxt)]
        nxt_c = by_name[nxt]
        pdf = _join_pdfs(pdf, frames[nxt], ca, cb)
        for k in key_cols:
            if k not in mapping and k in nxt_c.mapping:
                mapping[k] = nxt_c.mapping[k]
                overlaps[k] = nxt_c.col_overlaps.get(k, 0.0)
    if not all(k in mapping for k in key_cols):
        return None
    keep = list(dict.fromkeys(list(key_cols) + [s for s in start.mapping]))
    keep = [c for c in keep if c in pdf.columns]
    if not all(k in keep for k in key_cols):
        return None
    # prune mapped columns that do not actually match the source under the
    # now-available key alignment (a keyless candidate's containment-only
    # mapping can be wrong; cheap to check once the chain has a key)
    if source is not None:
        src_first = first_rows(source, key_cols)
        pairs = [
            (i, src_first[k])
            for k, i in first_rows(pdf, key_cols).items()
            if k in src_first
        ]
        if pairs:
            at, src_at = (np.array(p) for p in zip(*pairs))
            for c in list(keep):
                if c in key_cols or c not in source.columns:
                    continue  # a column S lacks has nothing to contradict
                s_vals = source[c].to_numpy(dtype=object)[src_at]
                nonnull = pd.notna(s_vals)
                denom = int(nonnull.sum())
                if denom == 0:
                    continue
                hits = (pdf[c].to_numpy(dtype=object)[at] == s_vals) & nonnull
                if float(hits.sum()) / denom < 0.05:
                    keep.remove(c)
            if len(keep) <= len(key_cols):
                return None
    joined = pdf[keep]
    return Candidate(
        name="+".join(path),
        load=functools.partial(to_spark, spark, joined),
        mapping={s: c for s, c in mapping.items() if s in keep},
        col_overlaps={s: v for s, v in overlaps.items() if s in keep},
        score=start.score,
        pdf=joined,
    )
