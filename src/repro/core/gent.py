"""Gen-T's pipeline after candidate retrieval (paper Fig 2).

Set Similarity's candidates → Expand → Matrix Traversal → Table
Integration → reclaimed table + originating set. Retrieval itself
(``discovery.coarse_retrieve``, then ``discovery.set_similarity``) runs
first, in the caller: the runner hands the same candidates to every method
(paper §VI-B). Everything here is bounded by the source and runs on the
driver, the reclaimed table included (``metrics.LocalTable``).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import expand as exp
from repro.core import integrate as integ
from repro.core import matrix as mtx
from repro.core import operators as ops
from repro.core.metrics import LocalTable
from repro.lake.repository import TableRepository, canon_str


@dataclass
class GenTResult:
    reclaimed: LocalTable | None
    originating: list[str]
    candidates: list[str]


def reclaim_from_candidates(
    spark: SparkSession,
    repo: TableRepository,
    cands: list,
    source: pd.DataFrame,
    key_cols: list[str],
) -> GenTResult:
    """Gen-T's pruning + integration given an already-retrieved candidate
    set (the runner hands the same set to every method, paper §VI-B).

    ``repo`` is unused: every candidate carries its renamed frame
    (``Candidate.pdf``), so nothing here reads the lake. The source is
    canonicalised once, here; Expand, the matrices and integration all read
    that frame. No Spark plan is built: the reclaimed table is the
    canonical frame ``integrate`` returns, held on the driver."""
    source = canon_str(source)
    cands = exp.expand(spark, cands, key_cols, source=source)
    if not cands:
        return GenTResult(None, [], [])

    # one |S|-bounded slice per candidate, shared by encoding and integration
    slices = {c.name: ops.project_select_pdf(c.pdf, source, key_cols) for c in cands}
    matrices = {n: mtx.matrix_for_candidate(sl, source, key_cols) for n, sl in slices.items()}
    orig_names = mtx.matrix_traversal(matrices, source, key_cols)

    originating = [n for n in orig_names if matrices.get(n)]
    if not originating:
        return GenTResult(None, [], [c.name for c in cands])

    out = integ.integrate([slices[n] for n in originating], source, key_cols)
    reclaimed = None if out is None else LocalTable(canon_str(out))
    return GenTResult(reclaimed, originating, [c.name for c in cands])
