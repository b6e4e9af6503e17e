"""Gen-T end-to-end pipeline (paper Fig 2).

Source Table → [coarse retrieval] → Set Similarity → Expand →
Matrix Traversal → Table Integration → reclaimed table + originating set.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import discovery as disc
from repro.core import expand as exp
from repro.core import integrate as integ
from repro.core import matrix as mtx
from repro.lake.repository import TableRepository, canon_str, to_spark


@dataclass
class GenTResult:
    reclaimed: DataFrame | None
    originating: list[str]
    candidates: list[str]
    timings: dict[str, float] = field(default_factory=dict)


def reclaim(
    spark: SparkSession,
    repo: TableRepository,
    source: pd.DataFrame,
    key_cols: list[str],
    *,
    tau: float = 0.2,
    k_per_col: int = 10,
    max_candidates: int = 25,
    coarse_k: int | None = None,
) -> GenTResult:
    """Run Gen-T for one source table.

    ``coarse_k`` switches on the Starmie-substitute pre-retrieval for large
    lakes (paper §VI-B runs Starmie then Set Similarity on SANTOS Large).
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    restrict = None
    if coarse_k is not None:
        restrict = disc.coarse_retrieve(spark, repo, source, top_k=coarse_k)
        timings["coarse_retrieve"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    cands = disc.set_similarity(
        spark,
        repo,
        source,
        key_cols,
        tau=tau,
        k_per_col=k_per_col,
        max_candidates=max_candidates,
        restrict_to=restrict,
    )
    timings["set_similarity"] = time.perf_counter() - t1
    if not cands:
        timings["total"] = time.perf_counter() - t0
        return GenTResult(None, [], [], timings)

    res = reclaim_from_candidates(spark, repo, cands, source, key_cols)
    res.timings.update(timings)
    res.timings["total"] = time.perf_counter() - t0
    return res


def reclaim_from_candidates(
    spark: SparkSession,
    repo: TableRepository,
    cands: list,
    source: pd.DataFrame,
    key_cols: list[str],
) -> GenTResult:
    """Gen-T's pruning + integration given an already-retrieved candidate
    set (the runner hands the same set to every method, paper §VI-B).

    The source is canonicalised once, here; Expand, the matrices and
    integration all read that frame. A candidate with a pandas frame is
    never turned into a Spark plan: the only Spark frame built is the
    reclaimed table's."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    source = canon_str(source)
    cands = exp.expand(spark, repo, cands, key_cols, source=source)
    timings["expand"] = time.perf_counter() - t0
    if not cands:
        timings["total"] = time.perf_counter() - t0
        return GenTResult(None, [], [], timings)

    t3 = time.perf_counter()
    # one |S|-bounded slice per candidate, shared by encoding and integration
    slices = {c.name: mtx.key_slice(repo, c, source, key_cols) for c in cands}
    matrices = {n: mtx.matrix_for_candidate(sl, source, key_cols) for n, sl in slices.items()}
    orig_names = mtx.matrix_traversal(matrices, source, key_cols)
    timings["matrix_traversal"] = time.perf_counter() - t3

    originating = [n for n in orig_names if matrices.get(n)]
    if not originating:
        timings["total"] = time.perf_counter() - t0
        return GenTResult(None, [], [c.name for c in cands], timings)

    t4 = time.perf_counter()
    out = integ.integrate([slices[n] for n in originating], source, key_cols)
    reclaimed = None if out is None else to_spark(spark, out)
    timings["integrate"] = time.perf_counter() - t4
    timings["total"] = time.perf_counter() - t0
    return GenTResult(reclaimed, originating, [c.name for c in cands], timings)
