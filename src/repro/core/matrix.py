"""Matrix Traversal (paper §V-A2/3, Alg 1) — simulate integration cheaply.

Each candidate is encoded as a three-valued matrix aligned to the Source
Table (Eq 4): per (source tuple, source column),

    1   candidate agrees with S (null==null counts as agreement),
    0   candidate is null where S is non-null,
   -1   candidate has a non-null value that contradicts S (including
        non-null where S is null — the δ case of Def 4).

Because integration can keep contradicting tuples separate, a matrix holds
a *group* of code rows per source key (§V-A3): a ``Matrix`` is a key-group
index plus one int8 code array of shape [rows, source columns], a group's
rows contiguous. ``combine`` merges two matrices with the paper's
Combine(): rows that conflict (a 1 meets a −1 in some column) stay
separate, otherwise they merge by a sign-preserving OR. Encoding, Combine
and EIS are numpy over the code array; only the key lookup is a dict.

Matrix *initialisation* encodes the candidate's key-aligned slice, which
the caller cuts on the driver from the candidate's pandas frame (its
renamed lake table from discovery, or the cut join of an Expand path) with
``operators.project_select_pdf``, so Gen-T builds no Spark plan for a
candidate. Traversal itself is a driver-side greedy loop over |S|-sized
numpy arrays — exactly the point of the method: candidates are pruned
without executing real integrations. ``source`` is the canonical source
(``canon_str``) throughout: the caller canonicalises it once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd


@dataclass(frozen=True, eq=False)
class Matrix:
    """Eq 4 codes of one candidate, one group of rows per source key.

    Group ``g`` is the source key of S's row ``ids[g]`` (the key's last row,
    the one its codes compare against), and its rows are
    ``codes[starts[g]:starts[g + 1]]``. Groups come in first-appearance
    order and rows keep their order within a group: Combine is
    order-dependent (DESIGN.md §4.5).
    """

    ids: np.ndarray  # int64 [groups]
    starts: np.ndarray  # int64 [groups + 1]
    codes: np.ndarray  # int8 [rows, source columns]

    def __len__(self) -> int:
        return len(self.ids)


def _grouped(ids: np.ndarray, rank: np.ndarray, codes: np.ndarray) -> Matrix:
    """The matrix of code rows whose group is ``ids[rank[i]]``; rows of a
    group keep their order in ``codes``."""
    perm = np.argsort(rank, kind="stable")
    starts = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rank, minlength=len(ids)), out=starts[1:])
    return Matrix(ids, starts, codes[perm])


def _dedup(rank: np.ndarray, codes: np.ndarray, redo: np.ndarray) -> np.ndarray:
    """Keep-mask of rows: in each group flagged by ``redo``, identical rows
    are kept once, at their first position."""
    redo = redo & (np.bincount(rank, minlength=len(redo)) > 1)
    at = np.flatnonzero(redo[rank])
    rows = np.ascontiguousarray(np.column_stack([rank[at], codes[at]]))
    flat = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(flat, return_index=True)  # a stable sort: first wins
    keep = np.ones(len(rank), dtype=bool)
    keep[at] = False
    keep[at[first]] = True
    return keep


def _cells(pdf: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """``pdf``'s ``cols`` as an object array [rows, cols] of the strings the
    codes compare: None for a null or a missing column, else ``str``."""
    out = np.full((len(pdf), len(cols)), None, dtype=object)
    have = [j for j, c in enumerate(cols) if c in pdf.columns]
    vals = pdf.to_numpy(dtype=object)
    out[:, have] = vals[:, [pdf.columns.get_loc(cols[j]) for j in have]]
    out[pd.isna(out)] = None
    if pd.api.types.infer_dtype(out.ravel(), skipna=True) not in ("string", "empty"):
        out = np.array(
            [None if v is None else str(v) for v in out.ravel()], dtype=object
        ).reshape(out.shape)
    return out


def encode_matrix(
    source: pd.DataFrame, aligned: pd.DataFrame, key_cols: Sequence[str]
) -> Matrix:
    """Three-valued encoding (Eq 4) of key-aligned candidate tuples.

    ``source`` is canonical (``canon_str``); ``aligned`` holds rows of the
    candidate already renamed to source columns; missing source columns are
    treated as null. A key S holds twice compares against its last row; a
    null key part matches a null key part. Identical rows of a group are
    kept once, at their first appearance.
    """
    cols = list(source.columns)
    kidx = [cols.index(k) for k in key_cols]
    empty = Matrix(
        np.empty(0, np.int64), np.zeros(1, np.int64), np.empty((0, len(cols)), np.int8)
    )
    if not len(aligned):
        return empty
    s_vals, t_vals = _cells(source, cols), _cells(aligned, cols)
    lookup = dict(zip(zip(*(s_vals[:, i] for i in kidx)), range(len(source))))
    row = np.fromiter(
        (lookup.get(k, -1) for k in zip(*(t_vals[:, i] for i in kidx))),
        dtype=np.int64,
        count=len(aligned),
    )
    hit = np.flatnonzero(row >= 0)
    if not len(hit):
        return empty
    row = row[hit]
    sv, tv = s_vals[row], t_vals[hit]
    codes = np.where(sv == tv, 1, np.where(pd.notna(sv) & pd.isna(tv), 0, -1)).astype(np.int8)
    ids, first, rank = np.unique(row, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")  # groups by first appearance
    ids = ids[order]
    rank = np.argsort(order)[rank]
    keep = _dedup(rank, codes, np.ones(len(ids), dtype=bool))
    return _grouped(ids, rank[keep], codes[keep])


def matrix_for_candidate(
    sl: pd.DataFrame, source: pd.DataFrame, key_cols: Sequence[str]
) -> Matrix:
    """Eq 4 matrix of a candidate, from its key slice ``sl``
    (``operators.project_select_pdf`` of its frame)."""
    return encode_matrix(source, sl, key_cols)


def combine(m1: Matrix, m2: Matrix) -> Matrix:
    """Paper's Combine(): OR compatible rows, keep conflicting rows apart.

    Each row of ``m2``, in order, merges into the first row of its group it
    does not conflict with (a 1 meets a −1), by the sign-preserving OR, or
    is appended to the group. The paper words the merge as an elementwise
    max, but max(0, −1) = 0 would claim that merging a null cell with an
    erroneous cell erases the error — the real κ merge *keeps* the
    erroneous value. Since the matrix's contract is to equal the matrix
    encoding of the true integration result (§V-A3), the −1 is kept
    (DESIGN.md §4.5). Groups ``m2`` touched are then de-duplicated, first
    row kept. Groups keep ``m1``'s order, then new keys in ``m2``'s order.

    Round ``r`` takes the ``r``-th row of every ``m2`` group at once; the
    working rows are flat, so a group's rows are in array order.
    """
    where1 = np.full(int(max(m1.ids.max(initial=-1), m2.ids.max(initial=-1))) + 1, -1)
    where1[m1.ids] = np.arange(len(m1))
    rank2 = where1[m2.ids]  # each m2 group's output group
    new = rank2 < 0
    rank2[new] = len(m1) + np.arange(int(new.sum()))
    ids = np.concatenate([m1.ids, m2.ids[new]])
    rank = np.repeat(np.arange(len(m1)), np.diff(m1.starts))
    codes = m1.codes.copy()
    sizes2 = np.diff(m2.starts)
    slot = np.empty(len(ids), dtype=np.int64)  # group → its row this round
    for r in range(int(sizes2.max(initial=0))):
        sel = np.flatnonzero(sizes2 > r)
        t, g = m2.codes[m2.starts[sel] + r], rank2[sel]
        slot[:] = -1
        slot[g] = np.arange(len(sel))
        cand = np.flatnonzero(slot[rank] >= 0)
        a, b = codes[cand], t[slot[rank[cand]]]
        fits = cand[~np.any((a != b) & (a != 0) & (b != 0), axis=1)]
        # ``fits`` ascends, so a stable sort by group leads with its first row
        fg = rank[fits]
        order = np.argsort(fg, kind="stable")
        fits, fg = fits[order], fg[order]
        lead = np.ones(len(fg), dtype=bool)
        lead[1:] = fg[1:] != fg[:-1]
        at, done = fits[lead], fg[lead]
        codes[at] = np.where(codes[at] != 0, codes[at], t[slot[done]])
        slot[done] = -1
        rest = slot[g] >= 0
        codes = np.concatenate([codes, t[rest]])
        rank = np.concatenate([rank, g[rest]])
    touched = np.zeros(len(ids), dtype=bool)
    touched[rank2] = True
    keep = _dedup(rank, codes, touched)
    return _grouped(ids, rank[keep], codes[keep])


def evaluate_similarity(
    matrix: Matrix, source: pd.DataFrame, key_cols: Sequence[str]
) -> float:
    """EIS of the simulated integration (Eq 3 over matrix codes).

    Each key group scores its best row's α−δ (a grouped max), and the
    groups are added one at a time in group order, as a loop adds them: the
    traversal's strict ``>`` decides ties, so the float sum must not
    depend on a summation order."""
    cols = list(source.columns)
    nk_idx = [i for i, c in enumerate(cols) if c not in set(key_cols)]
    n = len(nk_idx)
    n_src = len(source)
    if n_src == 0 or n == 0 or not len(matrix):
        return 0.0
    nk = matrix.codes[:, nk_idx]
    diff = (nk == 1).sum(axis=1) - (nk == -1).sum(axis=1)
    best = np.maximum.reduceat(diff, matrix.starts[:-1])
    total = float(np.add.accumulate(1 + best / n)[-1])  # sequential, unlike np.sum
    return 0.5 * total / n_src


def matrix_traversal(
    matrices: dict[str, Matrix], source: pd.DataFrame, key_cols: Sequence[str]
) -> list[str]:
    """Alg 1: greedy traversal; returns originating table names in the
    order they were added (the order integration will use)."""
    if not matrices:
        return []
    names = list(matrices)

    def ev(m: Matrix) -> float:
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
            break  # integration did not find more of S's values
        chosen.append(best_next)
        current, most_correct = best_combined, best_score
    return chosen
