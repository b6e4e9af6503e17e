"""Benchmark construction + the four evaluation tables (paper §VI).

Lakes are cached as repositories under ``data/`` keyed by their build
parameters and rebuilt when incomplete or stale (see ``_cached``). A TP-TR
lake keeps its sources next to its tables; web-table sources are lake
tables themselves.

Scale map (DESIGN.md §6): TP-TR Small/Med/Large at SF 0.001/0.01/0.1,
SANTOS Large → 400 synthetic open-data distractors around TP-TR Med,
WDC Sample → 1.5K synthetic web-table distractors around the T2D-like
corpus.
"""
from __future__ import annotations

import json
from pathlib import Path

import pandas as pd
import pyarrow.parquet as pq
from pyspark.sql import SparkSession

from repro.bench import noise, tptr, webtables
from repro.harness import runner
from repro.lake.repository import StaleLakeError, TableRepository, canon_arrow

DATA_ROOT = Path(__file__).resolve().parents[3] / "data"

TPTR_SCALES: dict[str, dict] = {
    "tptr_small": dict(sf=0.001, target_rows=30, budget_s=120.0, n_noise=0),
    "tptr_med": dict(sf=0.01, target_rows=1000, budget_s=420.0, n_noise=0),
    "tptr_large": dict(sf=0.1, target_rows=1000, budget_s=900.0, n_noise=0),
    "santos_med": dict(sf=0.01, target_rows=1000, budget_s=420.0, n_noise=400),
}

WEB_SCALES: dict[str, dict] = {
    "t2d": dict(n_noise=0, budget_s=120.0),
    "wdc_t2d": dict(n_noise=1500, budget_s=120.0),
}


def _cached(root: Path, params: dict) -> bool:
    """Whether ``root`` holds a complete lake built with ``params``.

    Besides the parameters, every manifest table's Parquet file, a
    non-empty cells dataset and the manifest's column extents must be
    there; anything less is rebuilt.
    """
    marker = root / "params.json"
    if not (marker.exists() and json.loads(marker.read_text()) == params):
        return False
    try:
        repo = TableRepository(root)
    except (FileNotFoundError, StaleLakeError):
        return False
    return all(Path(repo.table_path(n)).exists() for n in repo.names()) and any(
        repo.cells_path().glob("*.parquet")
    )


def _mark(root: Path, params: dict) -> None:
    (root / "params.json").write_text(json.dumps(params))


def _save_sources(root: Path, sources: list[tptr.SourceSpec]) -> None:
    """Write a TP-TR lake's sources under its root: one all-string Parquet
    file each, and their key columns, base tables and operator counts."""
    out = root / "sources"
    out.mkdir(exist_ok=True)
    for s in sources:
        pq.write_table(canon_arrow(s.table), out / f"{s.name}.parquet")
    specs = [
        {"name": s.name, "key_cols": s.key_cols, "base_tables": s.base_tables, "n_ops": s.n_ops}
        for s in sources
    ]
    (out / "specs.json").write_text(json.dumps(specs, indent=1))


def _load_sources(root: Path) -> list[tptr.SourceSpec] | None:
    """The sources ``_save_sources`` wrote, or None when there are none."""
    src = root / "sources"
    try:
        specs = json.loads((src / "specs.json").read_text())
        return [
            tptr.SourceSpec(**spec, table=pq.read_table(src / f"{spec['name']}.parquet").to_pandas())
            for spec in specs
        ]
    except FileNotFoundError:
        return None


def get_tptr(spark: SparkSession, name: str, *, seed: int = 0) -> tptr.TPTRBench:
    """Build-or-load one of the TP-TR-family lakes.

    A built lake keeps its sources (``_save_sources``), so a cache hit reads
    them back and generates nothing; a lake without them is rebuilt."""
    cfg = TPTR_SCALES[name]
    root = DATA_ROOT / name
    params = {"sf": cfg["sf"], "seed": seed, "n_noise": cfg["n_noise"]}
    if _cached(root, params) and (sources := _load_sources(root)) is not None:
        int_sets = {
            s.name: [f"{b}__{sfx}" for b in s.base_tables for sfx in tptr.VARIANT_SUFFIXES]
            for s in sources
        }
        return tptr.TPTRBench(repo=TableRepository(root), sources=sources, int_sets=int_sets)
    extra = (
        noise.santos_noise(cfg["n_noise"], seed=seed + 1000)
        if cfg["n_noise"]
        else None
    )
    bench = tptr.build_tptr(
        spark, root, sf=cfg["sf"], target_rows=cfg["target_rows"], seed=seed,
        extra_tables=extra,
    )
    _save_sources(root, bench.sources)
    _mark(root, params)
    return bench


def get_webbench(name: str, *, seed: int = 0) -> webtables.WebBench:
    cfg = WEB_SCALES[name]
    root = DATA_ROOT / name
    params = {"seed": seed, "n_noise": cfg["n_noise"]}
    if _cached(root, params):
        _tables, key_of, duplicates = webtables.corpus_tables(seed=seed)
        return webtables.WebBench(
            repo=TableRepository(root), key_of=key_of, duplicates=duplicates
        )
    extra = noise.wdc_noise(cfg["n_noise"], seed=seed + 2000) if cfg["n_noise"] else None
    bench = webtables.build_webtables(root, seed=seed, extra_tables=extra)
    _mark(root, params)
    return bench


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1_stats(spark: SparkSession, bench_names: list[str] | None = None) -> pd.DataFrame:
    """Lake statistics for every benchmark (paper Table I)."""
    names = bench_names or (list(TPTR_SCALES) + list(WEB_SCALES))
    rows = []
    for n in names:
        if n in TPTR_SCALES:
            repo = get_tptr(spark, n).repo
        else:
            repo = get_webbench(n).repo
        s = repo.stats()
        rows.append({"benchmark": n, **s})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Tables II and III (TP-TR effectiveness)
# ---------------------------------------------------------------------------

def run_tptr_benchmark(
    spark: SparkSession,
    name: str,
    methods: list[str],
    *,
    n_sources: int | None = None,
    budget_s: float | None = None,
    tau: float = 0.2,
    verbose: bool = True,
) -> tuple[pd.DataFrame, list[runner.CellResult]]:
    """One column-block of Table II/III: all methods on one TP-TR lake."""
    cfg = TPTR_SCALES[name]
    bench = get_tptr(spark, name)
    budget = cfg["budget_s"] if budget_s is None else budget_s
    coarse_k = 100 if cfg["n_noise"] else None
    cells: list[runner.CellResult] = []
    sources = bench.sources[:n_sources] if n_sources else bench.sources
    for s in sources:
        res = runner.run_source(
            spark, bench.repo, s.name, s.table, s.key_cols, methods,
            tau=tau, coarse_k=coarse_k, int_set=bench.int_sets[s.name],
            budget_s=budget,
        )
        cells.extend(res)
        if verbose:
            for c in res:
                print(
                    f"[{name}] {s.name} {c.method:<16} rec={c.recall:.3f} "
                    f"pre={c.precision:.3f} eis={c.eis:.3f} t={c.runtime_s:.1f}s"
                    f"{' TIMEOUT' if c.timeout else ''}",
                    flush=True,
                )
    return runner.aggregate(cells), cells


TABLE2_METHODS = ["alite", "alite_int", "alite_ps", "alite_ps_int", "gen_t"]
TABLE3_METHODS = [
    "alite", "alite_int", "alite_ps", "alite_ps_int",
    "auto_pipeline", "auto_pipeline_int", "ver_int", "gen_t",
]


# ---------------------------------------------------------------------------
# Table IV (WDC Sample + T2D Gold)
# ---------------------------------------------------------------------------

TABLE4_METHODS = ["alite", "alite_ps", "auto_pipeline", "gen_t"]


def run_table4(
    spark: SparkSession,
    *,
    bench_name: str = "wdc_t2d",
    n_sources: int | None = 24,
    budget_s: float | None = None,
    tau: float = 0.35,
    verbose: bool = True,
) -> tuple[pd.DataFrame, list[runner.CellResult]]:
    """Table IV: iterate corpus tables as sources over the noisy web lake,
    aggregate over sources where ALL methods produced non-empty output
    (the paper's "common sources" protocol)."""
    cfg = WEB_SCALES[bench_name]
    bench = get_webbench(bench_name)
    budget = cfg["budget_s"] if budget_s is None else budget_s
    corpus = sorted(bench.key_of)
    sources = corpus[:n_sources] if n_sources else corpus
    cells: list[runner.CellResult] = []
    for name in sources:
        source = bench.repo.load_pdf(name)
        res = runner.run_source(
            spark, bench.repo, name, source, ["c0"], TABLE4_METHODS,
            tau=tau, exclude=[name], budget_s=budget,
        )
        cells.extend(res)
        if verbose:
            for c in res:
                print(
                    f"[{bench_name}] {name} {c.method:<14} rec={c.recall:.3f} "
                    f"pre={c.precision:.3f} t={c.runtime_s:.1f}s"
                    f"{' EMPTY' if c.empty else ''}{' TIMEOUT' if c.timeout else ''}",
                    flush=True,
                )
    # common sources: every method non-empty and non-timeout
    by_src: dict[str, list[runner.CellResult]] = {}
    for c in cells:
        by_src.setdefault(c.source, []).append(c)
    common = [
        src for src, cs in by_src.items()
        if len(cs) == len(TABLE4_METHODS) and all(not c.empty and not c.timeout for c in cs)
    ]
    kept = [c for c in cells if c.source in set(common)]
    agg = runner.aggregate(kept) if kept else pd.DataFrame()
    return agg, cells
