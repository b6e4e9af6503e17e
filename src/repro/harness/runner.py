"""Experiment runner: one (source, method) cell of an evaluation table.

Per the paper (§VI-C), runtimes start from ingestion of the candidate
tables: Set Similarity retrieval is shared across methods, then each
method is timed on what it does with the candidates — Gen-T on pruning +
integration, the baselines on integration only. A method exceeding its
wall-clock budget is recorded as a timeout (the paper's "—" cells).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.alite import alite
from repro.baselines.autopipeline import auto_pipeline
from repro.baselines.ver import ver
from repro.core import discovery as disc
from repro.core import metrics as met
from repro.core.gent import reclaim_from_candidates
from repro.lake.repository import TableRepository


@dataclass
class CellResult:
    method: str
    source: str
    recall: float = 0.0
    precision: float = 0.0
    inst_div: float = 1.0
    d_kl: float = float("nan")
    eis: float = 0.0
    perfect: bool = False
    runtime_s: float = 0.0
    output_cells: int = 0
    source_cells: int = 0
    timeout: bool = False
    empty: bool = False
    # more distinct key-aligned tuples than metrics.MAX_ALIGNED_COLLECT
    capped: bool = False
    # "Type: message" of the exception a baseline raised (scored as empty)
    error: str | None = None
    originating: list[str] = field(default_factory=list)


def _finish(
    spark: SparkSession,
    method: str,
    src_name: str,
    reclaimed,
    source: pd.DataFrame,
    key_cols: Sequence[str],
    elapsed: float,
    budget_s: float | None,
    originating: list[str] | None = None,
    error: str | None = None,
) -> CellResult:
    timeout = budget_s is not None and elapsed >= budget_s * 0.98
    cell = CellResult(
        method=method,
        source=src_name,
        runtime_s=elapsed,
        timeout=timeout,
        source_cells=int(source.size),
        error=error,
        originating=originating or [],
    )
    if reclaimed is None or timeout:
        cell.empty = reclaimed is None and not timeout
        # scored as an empty reclamation
        m = met.evaluate(spark, None, source, key_cols)
    else:
        m = met.evaluate(spark, reclaimed, source, key_cols)
        cell.output_cells = m["rows"] * len(reclaimed.columns)
    cell.capped = m["capped"]
    cell.recall, cell.precision = m["recall"], m["precision"]
    cell.inst_div, cell.d_kl = m["inst_div"], m["d_kl"]
    cell.eis, cell.perfect = m["eis"], m["perfect"]
    return cell


def run_source(
    spark: SparkSession,
    repo: TableRepository,
    src_name: str,
    source: pd.DataFrame,
    key_cols: list[str],
    methods: Sequence[str],
    *,
    tau: float = 0.2,
    coarse_k: int | None = None,
    int_set: list[str] | None = None,
    exclude: list[str] | None = None,
    budget_s: float | None = None,
) -> list[CellResult]:
    """Run the requested methods on one source table.

    ``int_set`` feeds the "w/ int. set" variants; ``exclude`` removes
    tables from discovery (T2D: a source may not reclaim from itself);
    ``coarse_k`` enables the Starmie-substitute pre-retrieval. A baseline
    that raises is scored as an empty output with its error kept; an
    exception from Gen-T propagates.
    """
    restrict = None
    if coarse_k is not None:
        restrict = disc.coarse_retrieve(repo, source, top_k=coarse_k)
    if exclude:
        pool = restrict if restrict is not None else repo.names()
        restrict = [t for t in pool if t not in set(exclude)]

    def discover(restrict_to):
        return disc.set_similarity(
            spark, repo, source, key_cols, tau=tau, restrict_to=restrict_to
        )

    cands = None
    cands_int = None
    results = []
    for method in methods:
        wants_int = method.endswith("_int")
        if wants_int:
            if int_set is None:
                continue
            if cands_int is None:
                cands_int = discover(int_set)
            use = cands_int
        else:
            if cands is None:
                cands = discover(restrict)
            use = cands

        t0 = time.perf_counter()
        originating: list[str] = []
        error = None
        try:
            if method == "gen_t":
                res = reclaim_from_candidates(spark, repo, use, source, key_cols)
                reclaimed, originating = res.reclaimed, res.originating
            elif method in ("alite", "alite_int"):
                reclaimed = alite(
                    spark, use, source, key_cols, budget_s=budget_s
                )
            elif method in ("alite_ps", "alite_ps_int"):
                reclaimed = alite(
                    spark, use, source, key_cols,
                    project_select=True, budget_s=budget_s,
                )
            elif method in ("auto_pipeline", "auto_pipeline_int"):
                reclaimed = auto_pipeline(
                    spark, use, source, key_cols, budget_s=budget_s
                )
            elif method == "ver_int":
                reclaimed = ver(
                    spark, repo, source, key_cols,
                    tau=tau, restrict_to=int_set, budget_s=budget_s,
                )
            else:
                raise ValueError(f"unknown method {method!r}")
        except Exception as e:  # a crashing baseline scores as empty, with its error kept
            if method == "gen_t":
                raise  # Gen-T is the system under test: its crash is an error
            error = f"{type(e).__name__}: {e}"
            print(f"[runner] {method} failed on {src_name}: {error}")
            reclaimed = None
        elapsed = time.perf_counter() - t0
        results.append(
            _finish(
                spark, method, src_name, reclaimed, source, key_cols,
                elapsed, budget_s, originating, error,
            )
        )
    return results


def aggregate(cells: list[CellResult]) -> pd.DataFrame:
    """Per-method averages over sources — one row per evaluation-table row.

    Timeout cells are excluded from the quality averages (the paper
    reports "—" when a method times out on most sources; the ``timeouts``
    column says how often that happened).
    """
    rows = []
    df = pd.DataFrame([c.__dict__ for c in cells])
    for method, grp in df.groupby("method", sort=False):
        ok = grp[~grp["timeout"]]
        rows.append(
            {
                "method": method,
                "sources": len(grp),
                "timeouts": int(grp["timeout"].sum()),
                "errors": int(grp["error"].notna().sum()),
                "recall": ok["recall"].mean() if len(ok) else float("nan"),
                "precision": ok["precision"].mean() if len(ok) else float("nan"),
                "inst_div": ok["inst_div"].mean() if len(ok) else float("nan"),
                "d_kl": ok["d_kl"].mean() if len(ok) else float("nan"),
                "eis": ok["eis"].mean() if len(ok) else float("nan"),
                "perfect": int(ok["perfect"].sum()),
                "runtime_s": grp["runtime_s"].mean(),
                "output_ratio": (
                    (ok["output_cells"] / ok["source_cells"]).replace(
                        [float("inf")], float("nan")
                    ).mean()
                    if len(ok)
                    else float("nan")
                ),
            }
        )
    return pd.DataFrame(rows)


def format_table(agg: pd.DataFrame, title: str) -> str:
    """Paper-style fixed-width text table."""
    lines = [title, "-" * len(title)]
    hdr = (
        f"{'Method':<18}{'Rec':>7}{'Pre':>7}{'Inst-Div':>10}{'D_KL':>9}"
        f"{'EIS':>7}{'Perfect':>9}{'Time(s)':>9}{'Out/Src':>9}{'TO':>4}"
    )
    lines.append(hdr)
    for _, r in agg.iterrows():
        lines.append(
            f"{r['method']:<18}{r['recall']:>7.3f}{r['precision']:>7.3f}"
            f"{r['inst_div']:>10.3f}{r['d_kl']:>9.3f}{r['eis']:>7.3f}"
            f"{int(r['perfect']):>9d}{r['runtime_s']:>9.2f}"
            f"{r['output_ratio']:>9.2f}{int(r['timeouts']):>4d}"
        )
    return "\n".join(lines)
