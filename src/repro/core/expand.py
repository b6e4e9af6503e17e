"""Expand (Alg 5, App. C): give every candidate table the source key.

Candidates that do not map the source key columns (start nodes) are joined
through other candidates to ones that do (end nodes), along the best path
of a join graph. Edges connect candidates that share a joinable column;
following the paper, edge weights are the value overlap of the joinable
columns (a standard join-cardinality-style estimate). Edge weights and
joins both read each candidate's renamed pandas frame (``Candidate.pdf``),
so Expand reads no lake table. Edge weights use value sets sampled above
``_SAMPLE`` distinct values (the first ``_SAMPLE`` in row order), and
every column pair's overlap is counted in one pass through a value →
columns index. No edge is weighed between two key-bearing candidates: a
path ends at its first one.

A path is joined only over rows that can reach a source key, by a
semi-join reduction (Yannakakis, VLDB 1981): the source keys cut the
key-bearing end table, each cut table's join values cut the table one hop
earlier, and the joins then run over the cut tables, as an indexed hash
join on the driver. After each hop, and once more at the end, the joined
rows are cut to the source keys. The cut is exact for every row Gen-T
reads — its key slice, ``first_rows``, Combine and κ see the rows of the
whole join whose key is one of S's, in the same order:

* The hash join emits rows in (left row, right row) order, as pandas
  ``merge``'s inner join does (save for a pandas 2.2 shortcut, DESIGN.md
  §4.3), so filtering either input keeps the surviving rows in the same
  relative order. ``["x","y","x","z","y"]`` ⋈
  ``["y","x","x","y","q"]`` gives (0,1),(0,2),(1,0),(1,3),(2,1),(2,2),
  (4,0),(4,3); dropping left row 1 leaves the others in that order.
* A column both sides hold is coalesced, which only fills nulls. So a row
  whose *non-null* key part is not one of S's can be dropped at any hop,
  and a null key part drops the row only once no later table can fill it.
* A key part or join column that an earlier table on the path also holds
  cannot drive a cut on the later table alone: the earlier table's value
  wins wherever it is non-null. It cuts the first table that holds it
  instead, by that table's non-null values; the later holders are cut by
  the joined rows, after their hop.

An expanded candidate is named by its path (``"+".join(path)``) and keeps
its cut frame as ``pdf``, which Gen-T reads. Its ``load`` builds the
*whole* join on first read, so ``Candidate.df`` (Ver's view) keeps the
full view extent.

Path scoring departs from a plain max-sum DFS in one way: each extra hop
subtracts ``HOP_PENALTY``, and paths are capped at ``MAX_HOPS`` edges —
an unpenalised sum prefers absurd many-table chains, and the paper's own
sources join at most 3 tables. A keyless candidate keeps its best path to
each of at most ``TOP_PATHS`` end nodes, and one ``expand`` call keeps at
most ``MAX_EXPANSIONS`` paths.
"""
from __future__ import annotations

import collections
import functools
from typing import TYPE_CHECKING, Sequence

import numpy as np
import pandas as pd

from repro.core.discovery import Candidate
from repro.core.operators import first_rows, match_rates, null_none
from repro.lake.repository import to_spark

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

MIN_JOIN_JACCARD = 0.3
MIN_JOIN_EXTENT = 4  # never equi-join on a near-constant column
HOP_PENALTY = 0.1
MAX_HOPS = 3
MAX_EXPANSIONS = 16
TOP_PATHS = 4  # paths kept per keyless candidate, one per end node
_SAMPLE = 20_000
_PAIR_CHUNK = 1 << 18  # column pairs counted at once in ``_edges``

Columns = dict[str, np.ndarray]  # a frame's columns, in order


def _value_sets(frame: Columns) -> dict[str, np.ndarray]:
    """Joinable-column value sets of a candidate (sampled), as arrays of
    distinct values in row order.

    ``frame`` is the candidate's renamed frame (``Candidate.pdf``). A column
    qualifies as a join candidate if it has at least MIN_JOIN_EXTENT
    distinct values *or* is near-unique within its table — the absolute
    floor rejects categorical domains in big tables without disqualifying
    the only (tiny) join column of a 3-row web table. A column with more
    than ``_SAMPLE`` distinct values keeps its first ``_SAMPLE``."""
    n_rows = max(1, _rows(frame))
    out = {}
    for col, arr in frame.items():
        uniq = pd.unique(arr[pd.notna(arr)])
        if len(uniq) < MIN_JOIN_EXTENT and len(uniq) < 0.8 * n_rows:
            continue
        out[col] = uniq[:_SAMPLE]
    return out


def _edges(
    names: list[str], vsets: dict[str, dict[str, np.ndarray]], ends: set[str]
) -> dict[tuple[str, str], tuple[str, str, float]]:
    """Best join condition of every candidate pair: {(a, b): (colA, colB,
    weight)} for a < b, no pair of two key-bearing candidates.

    All column pairs compete on the Jaccard of their (full, sampled) value
    sets — ties go to the pair with the larger extents, then to the first
    pair in column order, so a dense FK column (custkey ↔ custkey) beats a
    small categorical domain that also happens to overlap. Columns below
    MIN_JOIN_EXTENT distinct values are never join candidates (a 5-value
    segment column would build a many-to-many mess).

    Every pair's overlap comes from one pass through a value → columns
    index: the columns' values are coded into one space and sorted by
    code, and each run of equal codes adds one to each pair of columns
    it holds, ``_PAIR_CHUNK`` pairs at a time."""
    cols = [(n, c) for n in names for c in vsets.get(n, {})]
    if not cols:
        return {}
    sizes = [len(vsets[n][c]) for n, c in cols]
    rank = {n: i for i, n in enumerate(names)}
    owner = np.array([rank[n] for n, _c in cols])
    is_end = np.array([n in ends for n, _c in cols])
    codes, _uniq = pd.factorize(np.concatenate([vsets[n][c] for n, c in cols]))
    order = np.argsort(codes, kind="stable")  # by code, then by column
    codes = codes[order]
    col_of = np.repeat(np.arange(len(cols)), sizes)[order]
    # each entry pairs with the later entries of its run
    run_end = np.searchsorted(codes, codes, side="right")
    later = run_end - np.arange(len(codes)) - 1
    done = np.concatenate([[0], np.cumsum(later)])
    inter: collections.Counter = collections.Counter()
    lo = 0
    while lo < len(codes):
        hi = max(lo + 1, int(np.searchsorted(done, done[lo] + _PAIR_CHUNK, side="right")) - 1)
        reps = later[lo:hi]
        i = np.repeat(np.arange(lo, hi), reps)
        j = i + 1 + np.arange(len(i)) - np.repeat(done[lo:hi] - done[lo], reps)
        a, b = col_of[i], col_of[j]
        keep = (owner[a] != owner[b]) & ~(is_end[a] & is_end[b])
        pair, count = np.unique(a[keep] * len(cols) + b[keep], return_counts=True)
        inter.update(dict(zip(pair.tolist(), count.tolist())))
        lo = hi
    best: dict[tuple[str, str], tuple[str, str, float, int]] = {}
    for pair in sorted(inter):  # (colA, colB) order, colA's table first
        ga, gb = divmod(pair, len(cols))
        n = inter[pair]
        w = n / (sizes[ga] + sizes[gb] - n)
        ext = min(sizes[ga], sizes[gb])
        (na, ca), (nb, cb) = cols[ga], cols[gb]
        prev = best.get((na, nb))
        if w >= MIN_JOIN_JACCARD and (prev is None or (w, ext) > prev[2:]):
            best[na, nb] = (ca, cb, w, ext)
    return {k: v[:3] for k, v in sorted(best.items())}


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


class _SourceKeys:
    """The canonical source's keys, as the cut reads them: each key's first
    row (``first_rows``: null key parts are equal) and, per key part, its
    non-null values and whether S holds a null there."""

    def __init__(self, source: pd.DataFrame, key_cols: Sequence[str]):
        self.first = first_rows(source, key_cols)
        self.values = {k: {t[i] for t in self.first} - {None} for i, k in enumerate(key_cols)}
        self.has_null = {k: any(t[i] is None for t in self.first) for i, k in enumerate(key_cols)}


def _isin(arr: np.ndarray, values: set, nulls: bool = False) -> np.ndarray:
    """Mask of ``arr``'s cells in ``values`` (which holds no null), or null
    if ``nulls``."""
    out = np.fromiter(map(values.__contains__, arr), dtype=bool, count=len(arr))
    return out | pd.isna(arr) if nulls else out


def expand(
    spark: SparkSession,
    cands: list[Candidate],
    key_cols: list[str],
    *,
    source: pd.DataFrame,
) -> list[Candidate]:
    """Replace keyless candidates by their best join-expansion to the key.

    Candidates with no path to a key-bearing candidate are dropped (their
    tuples can never align with the source). ``source`` is the canonical
    source (``canon_str``); it cuts each path's joined frame to its keys
    and prunes an expanded path's mapped columns that do not match it."""
    with_key = [c for c in cands if all(k in c.mapping for k in key_cols)]
    without = [c for c in cands if not all(k in c.mapping for k in key_cols)]
    if not without or not with_key:
        return with_key

    frames = {c.name: _columns(c.pdf) for c in cands}
    vsets = {n: _value_sets(f) for n, f in frames.items()}
    by_name = {c.name: c for c in cands}
    ends = {c.name for c in with_key}
    adj: dict[str, list[tuple[str, float]]] = {}
    edges: dict[tuple[str, str], tuple[str, str, float]] = {}
    # no path runs through a key-bearing candidate
    for (na, nb), (ca, cb, w) in _edges(sorted(by_name), vsets, ends).items():
        adj.setdefault(na, []).append((nb, w))
        adj.setdefault(nb, []).append((na, w))
        edges[(na, nb)] = (ca, cb, w)
        edges[(nb, na)] = (cb, ca, w)

    keys = _SourceKeys(source, key_cols)
    out = list(with_key)
    n_expanded = 0
    # strongest keyless candidates expand first; global cap keeps the
    # downstream matrix/integration work bounded
    for c in sorted(without, key=lambda x: (-x.score, x.name)):
        if n_expanded >= MAX_EXPANSIONS:
            break
        for path in _best_paths(c.name, ends, adj, top_p=TOP_PATHS):
            cand = _materialise_path(
                spark, c, path, by_name, frames, edges, key_cols, source, keys
            )
            if cand is not None:
                out.append(cand)
                n_expanded += 1
                if n_expanded >= MAX_EXPANSIONS:
                    break
    return out


def _match(lk: np.ndarray, rk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row positions (i, j) with ``lk[i] == rk[j]``, in (i, j) order: left
    rows in order, each with its matches in right-row order. A null
    matches nothing.

    Both columns are hashed to one code space (``factorize``); the right
    rows are indexed by code, and each left row takes its code's run."""
    codes, uniq = pd.factorize(np.concatenate([lk.astype(object), rk.astype(object)]))
    lc, rc = codes[: len(lk)], codes[len(lk) :]
    index = np.argsort(rc, kind="stable")  # right rows by code, in row order
    counts = np.bincount(rc[rc >= 0], minlength=len(uniq))
    starts = int((rc < 0).sum()) + np.cumsum(counts) - counts  # nulls sort first
    li = np.flatnonzero(lc >= 0)
    n = counts[lc[li]]
    i = np.repeat(li, n)
    run = np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
    return i, index[np.repeat(starts[lc[li]], n) + run]


def _join_cols(left: Columns, right: Columns, ca: str, cb: str) -> Columns:
    """Inner equi-join of two frames' columns on one column pair, as SQL
    joins: a null join value matches nothing (pandas ``merge`` would pair
    null with null), and a column both sides hold is coalesced, left
    first."""
    i, j = _match(left[ca], right[cb])
    cols = {c: v[i] for c, v in left.items()}
    for c, v in right.items():
        r = v[j]
        cols[c] = np.where(pd.isna(cols[c]), r, cols[c]) if c in cols else r
    return cols


def _columns(pdf: pd.DataFrame) -> Columns:
    return {c: pdf[c].to_numpy() for c in pdf.columns}


def _rows(frame: Columns) -> int:
    return len(next(iter(frame.values())))


def _join_path(tables: list[Columns], hops: list[tuple[str, str]]) -> pd.DataFrame:
    """The whole join of a path's frames (``hops[j]`` joins table j+1), in
    (left row, right row) order."""
    cols = tables[0]
    for t, (ca, cb) in zip(tables[1:], hops):
        cols = _join_cols(cols, t, ca, cb)
    return pd.DataFrame(cols)


def _cut_path(
    tables: list[Columns],
    hops: list[tuple[str, str]],
    key_cols: Sequence[str],
    keys: _SourceKeys,
) -> pd.DataFrame:
    """The rows of ``_join_path`` whose key is one of S's (null key parts
    equal), in the same order, joined over cut tables (module docstring)."""
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for j, t in enumerate(tables):
        for c in t:
            first.setdefault(c, j)
            last[c] = j
    # what each table's rows must hold: (column, values, whether null
    # passes), on the first table holding the column — its non-null value
    # is the joined one; a null passes while a later holder may fill it
    musts: list[list[tuple[str, set, bool]]] = [[] for _ in tables]
    for k in key_cols:
        musts[first[k]].append((k, keys.values[k], last[k] > first[k] or keys.has_null[k]))
    rows: list[np.ndarray] = [np.empty(0, np.int64)] * len(tables)
    for j in reversed(range(len(tables))):
        t = tables[j]
        if j + 1 < len(tables):
            ca, cb = hops[j]
            reach = tables[j + 1][cb][rows[j + 1]]
            musts[first[ca]].append((ca, set(reach[pd.notna(reach)]), first[ca] < j))
        keep = np.ones(_rows(t), dtype=bool)
        for c, values, null_passes in musts[j]:
            keep &= _isin(t[c], values, null_passes)
        rows[j] = np.flatnonzero(keep)

    cut = [{c: v[r] for c, v in t.items()} for t, r in zip(tables, rows)]
    cols = cut[0]
    for t, (ca, cb) in zip(cut[1:], hops):
        cols = _join_cols(cols, t, ca, cb)
        keep = np.ones(len(cols[ca]), dtype=bool)
        for k in key_cols:
            if k in cols:  # a non-null joined key part is final
                keep &= _isin(cols[k], keys.values[k], nulls=True)
        if not keep.all():
            cols = {c: v[keep] for c, v in cols.items()}
    at = np.fromiter(
        (t in keys.first for t in zip(*(null_none(cols[k]) for k in key_cols))),
        dtype=bool,
        count=len(cols[key_cols[0]]),
    )
    return pd.DataFrame({c: v[at] for c, v in cols.items()})


def _load_whole(
    spark: SparkSession,
    tables: list[Columns],
    hops: list[tuple[str, str]],
    keep: list[str],
):
    """An expanded candidate's Spark frame: its whole join (Ver's view)."""
    return to_spark(spark, _join_path(tables, hops)[keep])


def _materialise_path(
    spark: SparkSession,
    start: Candidate,
    path: list[str],
    by_name: dict[str, Candidate],
    frames: dict[str, Columns],
    edges: dict[tuple[str, str], tuple[str, str, float]],
    key_cols: list[str],
    source: pd.DataFrame,
    keys: _SourceKeys,
) -> Candidate | None:
    """Join along the path, then keep only the start table's mapped columns
    plus the key. The tables joined through are candidates in their own
    right — carrying their attribute columns through the chain would count
    their (possibly erroneous) values twice (DESIGN.md §6).

    ``frames`` holds each candidate's renamed frame (``Candidate.pdf``), as
    columns; ``source`` is the canonical source and ``keys`` its
    ``_SourceKeys``, built once per ``expand``."""
    mapping = dict(start.mapping)
    overlaps = dict(start.col_overlaps)
    for nxt in path[1:]:
        nxt_c = by_name[nxt]
        for k in key_cols:
            if k not in mapping and k in nxt_c.mapping:
                mapping[k] = nxt_c.mapping[k]
                overlaps[k] = nxt_c.col_overlaps.get(k, 0.0)
    if not all(k in mapping for k in key_cols):
        return None
    tables = [frames[n] for n in path]
    hops = [edges[(p, n)][:2] for p, n in zip(path, path[1:])]
    held = {c for t in tables for c in t}
    keep = list(dict.fromkeys(list(key_cols) + [s for s in start.mapping]))
    keep = [c for c in keep if c in held]
    if not all(k in keep for k in key_cols):
        return None
    pdf = _cut_path(tables, hops, key_cols, keys)
    # prune mapped columns that do not actually match the source under the
    # now-available key alignment (a keyless candidate's containment-only
    # mapping can be wrong; cheap to check once the chain has a key); a
    # column S lacks has nothing to contradict
    pairs = [(c, c) for c in keep if c not in key_cols and c in source.columns]
    n_aligned, rates = match_rates(pdf, key_cols, source, keys.first, pairs)
    if n_aligned:
        keep = [c for c in keep if (c, c) not in rates or rates[c, c] >= 0.05]
        if len(keep) <= len(key_cols):
            return None
    return Candidate(
        name="+".join(path),
        load=functools.partial(_load_whole, spark, tables, hops, keep),
        mapping={s: c for s, c in mapping.items() if s in keep},
        col_overlaps={s: v for s, v in overlaps.items() if s in keep},
        score=start.score,
        pdf=pdf[keep],
    )
