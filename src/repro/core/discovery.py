"""Candidate table retrieval — Set Similarity (Alg 3) + Diversify (Alg 4).

The part that grows with the lake is one filtered scan: the repository's
``(table, col, value)`` cells dataset (one relation per repository and
session), kept to the rows whose value is one of the source's distinct
values, collected flat in one Spark job. It is the only Spark query
discovery runs: column extents come from the manifest, and lake reads
carry the manifest's schema. Everything after that is bounded by the
source's values and runs on the driver in plain loops: the hits are matched
to their source columns through one dict from value to source columns and
counted per ``(table, col, src_col)``, then diversified, ranked, verified,
de-subsumed and renamed. A lake table is read only to align a key option
or for a kept candidate's pandas cache; a candidate its options settle
costs no read.

Two refinements beyond raw set containment (both deterministic, both in
the spirit of Alg 3's "verify overlap within aligned tuples" step; see
DESIGN.md §6):

* **Key-mapping disambiguation by pair match.** Dense integer domains make
  several candidate columns tie at containment 1.0 with the source key
  (o_orderkey ⊆ o_custkey ⊆ …). For every tied option we align the
  candidate on that option (each source key's first row against the
  table's first row on that key) and measure the *cell match rate* of the
  mapped non-key columns (the fraction of aligned source keys whose values
  agree). The best option wins; if even the best alignment matches almost
  nothing, the key mapping is rejected and the table is treated as
  keyless — Expand then joins it through a proper key-bearing candidate.
* **Within-aligned-tuples overlap check** (Alg 3 lines 11-14): mapped
  non-key columns whose set overlap restricted to aligned tuples falls
  below τ are unmapped; candidates with no surviving non-key column are
  discarded.

Diversification (Alg 4) measures ``prevColOverlap`` on the
source-overlapping value sets ``C ∩ c`` (bounded by |S|); exact duplicate
tables — Example 9's case — are penalised identically.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.operators import first_rows, null_none
from repro.lake.repository import TableRepository, canon_str

UNMAPPED_SEP = "__u__"  # unmapped columns keep "{table}__u__{col}" names
KEY_OPTION_EPS = 0.05  # containment slack for tied key-column options
MIN_KEY_MATCH = 0.15  # min mean cell-match rate to accept a key mapping
PANDAS_CAP = 300_000  # rows; larger candidate tables skip the pandas cache


@dataclass(eq=False)
class Candidate:
    """A candidate originating table, schema-matched to the source."""

    name: str
    load: Callable[[], DataFrame] = field(repr=False)  # builds ``df``
    mapping: dict[str, str]  # source col -> original lake col
    col_overlaps: dict[str, float]  # source col -> containment score
    matched_values: dict[str, frozenset] = field(default_factory=dict)
    score: float = 0.0
    provenance: tuple[str, ...] = ()  # underlying lake tables (for Expand)
    pdf: pd.DataFrame | None = field(default=None, repr=False)  # renamed pandas cache

    def __post_init__(self):
        if not self.provenance:
            self.provenance = (self.name,)

    @functools.cached_property
    def df(self) -> DataFrame:
        """The candidate as a Spark frame, built on first read: mapped
        columns renamed to source names, unmapped ones prefixed. Gen-T reads
        ``pdf``, or a filtered Parquet read where there is none; the
        baselines read this."""
        return self.load()


def _value_filter(src: pd.DataFrame) -> str | None:
    """SQL predicate keeping the cells whose value is in ``src``.

    ``src`` is the canonical source. Each distinct non-null value is written
    as a hex literal of its UTF-8 bytes and the cell is compared as binary,
    so no quote, backslash, newline or ``${...}`` in a value reaches the SQL
    text, and the whole list is parsed by Spark in one call. None when the
    source has no non-null value: ``IN ()`` would not parse.
    """
    cells = src.to_numpy(dtype=object).ravel()
    vals = sorted(set(cells[pd.notna(cells)]))
    if not vals:
        return None
    hexed = ", ".join(f"X'{v.encode().hex()}'" for v in vals)
    return f"cast(value AS binary) IN ({hexed})"


def coarse_retrieve(
    spark: SparkSession, repo: TableRepository, source: pd.DataFrame, *, top_k: int = 100
) -> list[str]:
    """Starmie-substitute pre-retrieval: rank lake tables by total distinct
    shared-value mass with the source, keep the top-k (DESIGN.md §6)."""
    pred = _value_filter(canon_str(source))
    if pred is None:
        return []
    hits = (
        repo.cells(spark)
        .where(pred)
        .groupBy("table")
        .agg(F.countDistinct("value").alias("n"))
        .orderBy(F.desc("n"), "table")
        .limit(top_k)
    )
    return [r["table"] for r in hits.collect()]


class _Hit(NamedTuple):
    """One (lake column, source column) pair sharing at least one value."""

    table: str
    col: str
    src_col: str
    overlap: float  # containment: shared / the source column's distinct values
    jac: float  # shared / |union of the two distinct value sets|
    vals: frozenset  # the shared values


def _column_containments(
    spark: SparkSession,
    repo: TableRepository,
    src: pd.DataFrame,
    restrict_to: list[str] | None,
) -> list[_Hit]:
    """Every (table, col, src_col) sharing a value, from one Spark job,
    sorted by (src_col, -overlap, table, col).

    ``src`` is the canonical source. The cells holding one of its values
    are collected flat as ``(table, col, value)``; the rest is plain Python
    over one dict from value to the source columns holding it. Cells are
    distinct per (table, col, value), so each hit adds one distinct shared
    value to each of its source columns.
    """
    pred = _value_filter(src)
    if pred is None:
        return []
    hits = repo.cells(spark).where(pred).toPandas()
    # the counts are per table, so restricting the hits is exact; in Spark,
    # an ``isin`` of ~1.5K table names costs more driver time than the query
    keep = None if restrict_to is None else set(restrict_to)
    src_cols_of: dict[str, list[str]] = {}
    size: dict[str, int] = {}
    for s in src.columns:
        distinct = {v for v in src[s] if v is not None}
        size[s] = len(distinct)
        for v in distinct:
            src_cols_of.setdefault(v, []).append(s)
    shared: dict[tuple[str, str, str], list[str]] = {}
    for t, c, v in zip(hits["table"].tolist(), hits["col"].tolist(), hits["value"].tolist()):
        if keep is not None and t not in keep:
            continue
        for s in src_cols_of.get(v, ()):
            shared.setdefault((t, c, s), []).append(v)
    out = []
    for (t, c, s), vals in shared.items():
        # the full column extent gives the Jaccard-style specificity signal:
        # a dense id column "contains" every small-int source column, but its
        # huge extent gives it a near-zero Jaccard
        n = len(vals)
        union = max(1, size[s] + repo.extent(t, c) - n)
        out.append(_Hit(t, c, s, n / size[s], n / union, frozenset(vals)))
    out.sort(key=lambda h: (h.src_col, -h.overlap, h.table, h.col))
    return out


def diversify_candidates(ranked: list[dict]) -> list[dict]:
    """Alg 4: re-score each candidate column against the previous one.

    ``ranked`` is a list of {table, overlap, vals} sorted by overlap desc.
    Returns the list re-sorted by diverseOverlapScore desc.
    """
    scored = []
    for i, cand in enumerate(ranked):
        if i == 0:
            score = cand["overlap"]
        else:
            prev = ranked[i - 1]
            denom = max(1, len(cand["vals"]))
            prev_overlap = len(cand["vals"] & prev["vals"]) / denom
            score = cand["overlap"] - prev_overlap
        scored.append({**cand, "div_score": score})
    return sorted(scored, key=lambda d: (-d["div_score"], d["table"]))


MIN_COL_MATCH = 0.1  # min per-column cell-match rate to keep a mapping


def _refine_mapping(
    load: Callable[[], pd.DataFrame],
    options: dict[str, list[tuple[str, float, frozenset, float]]],
    src: pd.DataFrame,
    key_cols: list[str],
) -> dict[str, str] | None:
    """Pick the best column mapping for one candidate (see module doc).

    ``load`` returns the candidate's lake table; it is called only when a
    key option is aligned, so a candidate settled from its options alone
    costs no read. ``src`` is the canonical source (``canon_str``).

    ``options[src_col]`` lists (lake_col, containment, matched_vals,
    jaccard) by containment desc. Key mappings are scored by aligning the
    candidate on each near-tied key option and measuring per-column cell
    match rates against the source — every non-key option is tried and the
    best-matching one wins its source column (this is Alg 3's
    within-aligned-tuples verification, strengthened to positional
    matching; DESIGN.md §6). An option aligns each source key's first row
    with the table's first row on the same key, null key parts equal (the
    inner ``merge`` of both sides' ``drop_duplicates``). Keyless candidates
    fall back to a Jaccard-greedy assignment (containment alone is blind to
    a dense id column that "contains" every small-int source column).
    Returns {src_col: lake_col} or None to discard the candidate.
    """
    nk_src = [s for s in options if s not in key_cols]

    def jac_mapping() -> dict[str, str]:
        triples = sorted(
            ((s, col, jac) for s in nk_src for col, _ov, _vals, jac in options[s]),
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
            col for col, ov, _v, _j in options[k] if ov >= best_ov - KEY_OPTION_EPS
        ][:3]

    opt_cols = {col for s in nk_src for col, *_ in options[s]}
    src_first = first_rows(src, key_cols)
    src_vals = {s: src[s].to_numpy(dtype=object) for s in nk_src}
    tbl = None
    best_score, best_result = -1.0, None
    for combo in itertools.product(*[per_key_opts[k] for k in key_cols]):
        if len(set(combo)) != len(combo) or not opt_cols - set(combo):
            continue
        if tbl is None:
            tbl = load()
        pairs = [
            (i, src_first[k]) for k, i in first_rows(tbl, combo).items() if k in src_first
        ]
        if not pairs:
            continue
        at, src_at = (np.array(p) for p in zip(*pairs))
        # coverage factor: matching 4 of 10 source keys is weak evidence of
        # a real key alignment, however well those 4 rows agree
        coverage = len(pairs) / max(1, len(src_first))
        # per source col: best-matching option column by cell match rate
        assign: dict[str, tuple[str, float]] = {}
        for s in nk_src:
            svals = src_vals[s][src_at]
            nonnull = pd.notna(svals)
            denom = int(nonnull.sum())
            if denom == 0:
                continue
            for col, _ov, _vals, _j in options[s]:
                if col in combo:
                    continue
                hits = (tbl[col].to_numpy(dtype=object)[at] == svals) & nonnull
                rate = float(hits.sum()) / denom
                if rate >= MIN_COL_MATCH and (
                    s not in assign or rate > assign[s][1]
                ):
                    assign[s] = (col, rate)
        if not assign:
            continue
        # one source col per lake col: higher rate wins
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
        # no credible key alignment: treat as keyless (Expand's job)
        return jac_mapping() or None

    key_option, nk_map = best_result
    return {**key_option, **nk_map}


def set_similarity(
    spark: SparkSession,
    repo: TableRepository,
    source: pd.DataFrame,
    key_cols: list[str],
    *,
    tau: float = 0.2,
    k_per_col: int = 10,
    max_candidates: int = 25,
    restrict_to: list[str] | None = None,
) -> list[Candidate]:
    """Alg 3: retrieve, diversify, verify, de-subsume and rename candidates."""
    src = canon_str(source)
    stats = [h for h in _column_containments(spark, repo, src, restrict_to) if h.overlap >= tau]
    if not stats:
        return []

    # per source column: options per table, ranked + diversified
    table_scores: dict[str, list[float]] = {}
    options: dict[str, dict[str, list[tuple[str, float, frozenset, float]]]] = {}
    for src_col, grp in itertools.groupby(stats, key=lambda h: h.src_col):
        ranked: list[dict] = []
        seen: set[str] = set()
        for h in grp:
            options.setdefault(h.table, {}).setdefault(src_col, []).append(
                (h.col, h.overlap, h.vals, h.jac)
            )
            # each table's best column, for the first ``k_per_col`` tables
            if h.table not in seen:
                seen.add(h.table)
                if len(ranked) < k_per_col:
                    ranked.append(
                        {"table": h.table, "col": h.col, "overlap": h.overlap, "vals": h.vals}
                    )
        for d in diversify_candidates(ranked):
            table_scores.setdefault(d["table"], []).append(d["div_score"])

    order = sorted(
        table_scores,
        key=lambda t: (-(sum(table_scores[t]) / len(table_scores[t])), t),
    )[:max_candidates]

    cands: list[Candidate] = []
    for name in order:
        load = functools.cache(functools.partial(repo.load_pdf, name))
        mapping = _refine_mapping(load, options[name], src, list(key_cols))
        if not mapping:
            continue
        opt = options[name]
        overlaps = {
            s: next((ov for c, ov, _v, _j in opt.get(s, []) if c == col), 0.0)
            for s, col in mapping.items()
        }
        matched = {
            s: next((v for c, _ov, v, _j in opt.get(s, []) if c == col), frozenset())
            for s, col in mapping.items()
        }
        cands.append(
            Candidate(
                name=name,
                load=functools.partial(_load_renamed, spark, repo, name, mapping),
                mapping=mapping,
                col_overlaps=overlaps,
                matched_values=matched,
                score=sum(table_scores[name]) / len(table_scores[name]),
                pdf=(
                    _rename_pdf(load(), name, mapping)
                    if repo.rows(name) <= PANDAS_CAP
                    else None
                ),
            )
        )

    return _remove_subsumed(cands, repo)


def renamed_columns(columns: list[str], name: str, mapping: dict[str, str]) -> list[str]:
    """Mapped columns take source names; unmapped ones are prefixed."""
    inv = {c: s for s, c in mapping.items()}
    return [inv.get(c, f"{name}{UNMAPPED_SEP}{c}") for c in columns]


def _load_renamed(
    spark: SparkSession, repo: TableRepository, name: str, mapping: dict[str, str]
) -> DataFrame:
    df = repo.load(spark, name)
    return df.toDF(*renamed_columns(df.columns, name, mapping))


def _rename_pdf(pdf: pd.DataFrame, name: str, mapping: dict[str, str]) -> pd.DataFrame:
    out = pdf.copy()
    out.columns = renamed_columns(list(pdf.columns), name, mapping)
    return out


def renamed_frame(cand: Candidate, repo: TableRepository) -> pd.DataFrame:
    """The candidate's renamed pandas frame: its cache, else the lake table."""
    if cand.pdf is not None:
        return cand.pdf
    return _rename_pdf(repo.load_pdf(cand.name), cand.name, cand.mapping)


def _row_set(pdf: pd.DataFrame, cols: list[str]) -> frozenset:
    return frozenset(zip(*(null_none(pdf[c]) for c in cols)))


def _remove_subsumed(cands: list[Candidate], repo: TableRepository) -> list[Candidate]:
    """Alg 3 line 15: drop candidates whose mapped columns and column
    values are contained in another candidate's.

    Checked at *row* level on the mapped-column projections (a candidate is
    redundant only if every one of its mapped tuples appears in the other —
    the Example 9 duplicate case). Value-set containment alone would also
    kill complementary corrupted variants whose low-cardinality columns
    happen to share extents. A candidate too large for the pandas cache is
    loaded in pandas when a comparison needs its rows.
    """
    frames: dict[int, pd.DataFrame] = {}
    row_sets: dict[tuple[int, tuple[str, ...]], frozenset] = {}

    def rows_of(k: int, cols: tuple[str, ...]) -> frozenset:
        if (k, cols) not in row_sets:
            if k not in frames:
                frames[k] = renamed_frame(cands[k], repo)
            row_sets[k, cols] = _row_set(frames[k], list(cols))
        return row_sets[k, cols]

    keep: list[Candidate] = []
    for i, a in enumerate(cands):
        subsumed = False
        a_cols = tuple(sorted(a.mapping))
        for j, b in enumerate(cands):
            if i == j or not (set(a.mapping) <= set(b.mapping)):
                continue
            ra, rb = rows_of(i, a_cols), rows_of(j, a_cols)
            if ra <= rb and (set(a.mapping) != set(b.mapping) or ra < rb or j < i):
                subsumed = True
                break
        if not subsumed:
            keep.append(a)
    return keep
