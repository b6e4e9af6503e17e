"""The benchmark's workloads: a lake built fresh from the seed, plus sources.

Each lake holds the repository's canonical tables (generator seed 0, the
lake ``harness.experiments`` builds and ROADMAP's baseline measured). The
run's seed permutes the row order of every lake table and source: each
seed is a different physical input with the same content, so Gen-T's work
and results should not move with it. Drawing new table contents per seed
changes which variants Gen-T picks, and with it each source's Spark job
count and quality, by far more than a run of a few sources can average
out.

Every run measures the same named sources (``measured``); one further
source (``warmup``) runs untimed during set-up, but is checked and scored
like them. On TP-TR Small the warm-up is q16, a 3-table join that Gen-T
reclaims with recall 0 (ROADMAP's multi-hop defect), so that the quality
metrics move when that defect is fixed. All 70 T2D-like sources reclaim
perfectly, so ``wdc_t2d`` has no imperfect source to score.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pandas as pd

LAKE_SEED = 0


@dataclass
class Source:
    name: str
    table: pd.DataFrame
    key_cols: list[str]
    restrict_to: list[str] | None = None  # discovery pool (None: whole lake)


@dataclass
class Workload:
    name: str
    tau: float
    warmup: str
    measured: list[str]
    build: Callable  # (spark, root, rng) -> (TableRepository, {name: Source})

    def make(self, spark, root: Path, seed: int):
        """The lake and the sources, rows permuted by ``seed``."""
        return self.build(spark, root, np.random.default_rng(seed))


def _permuted(pdf: pd.DataFrame, rng: np.random.Generator) -> pd.DataFrame:
    return pdf.iloc[rng.permutation(len(pdf))].reset_index(drop=True)


@contextlib.contextmanager
def _rows_permuted_on_write(rng: np.random.Generator):
    """Every table added to a RepositoryBuilder is written in permuted order."""
    from repro.lake.repository import RepositoryBuilder

    add = RepositoryBuilder.add

    def permuted_add(self, name, pdf, **kwargs):
        return add(self, name, _permuted(pdf, rng), **kwargs)

    RepositoryBuilder.add = permuted_add
    try:
        yield
    finally:
        RepositoryBuilder.add = add


def _build_tptr_small(spark, root: Path, rng: np.random.Generator):
    from repro.bench import tptr

    with _rows_permuted_on_write(rng):
        b = tptr.build_tptr(spark, root, sf=0.001, target_rows=30, seed=LAKE_SEED)
    sources = {
        s.name: Source(s.name, _permuted(s.table, rng), s.key_cols) for s in b.sources
    }
    return b.repo, sources


def _build_wdc_t2d(spark, root: Path, rng: np.random.Generator):
    from repro.bench import noise, webtables

    with _rows_permuted_on_write(rng):
        b = webtables.build_webtables(
            root, seed=LAKE_SEED, extra_tables=noise.wdc_noise(1500, seed=LAKE_SEED + 2000)
        )
    names = b.repo.names()
    # as in experiments.run_table4: key c0, and no source reclaims from itself
    sources = {
        n: Source(n, b.repo.load_pdf(n), ["c0"], [t for t in names if t != n])
        for n in sorted(b.key_of)
    }
    return b.repo, sources


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tptr_small",
            tau=0.2,
            warmup="q16",
            measured=["q09"],
            build=_build_tptr_small,
        ),
        Workload(
            name="wdc_t2d",
            tau=0.35,
            warmup="animals__part0",
            measured=["films__part1"],
            build=_build_wdc_t2d,
        ),
    )
}
