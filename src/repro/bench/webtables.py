"""T2D-Gold substitute: a keyed web-table corpus (DESIGN.md §6).

T2D Gold is 515 real web tables matched to DBpedia; the paper iterates
each as a potential Source, finding a handful reclaimable from partitions
/ duplicates of sibling tables. We build a synthetic corpus with the same
reclaimability structure:

* 8 entity domains, each with a keyed base relation;
* per domain: the base table, a 3-way row partition of it, 2 column
  projections, and 2 overlapping row slices (so base tables are
  reclaimable by unioning partitions, partitions by selecting the base,
  and projections by projecting it);
* exact duplicates of one derived table in 6 domains (the paper's
  "6 sets of duplicates").

~70 tables stand in for 515 (scaled ~7×, documented in EXPERIMENTS.md).
Every table's key is its first column.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.lake.repository import RepositoryBuilder, TableRepository

DOMAINS = [
    ("countries", ["country", "capital", "population", "continent", "currency"]),
    ("films", ["film", "director", "year", "genre"]),
    ("companies", ["company", "hq_city", "industry", "founded"]),
    ("players", ["player", "team", "position", "goals"]),
    ("geo_lakes", ["lake", "country", "area_km2"]),
    ("universities", ["university", "city", "country", "established"]),
    ("animals", ["animal", "class", "lifespan"]),
    ("books", ["book", "author", "year", "publisher"]),
]

_CONTINENTS = ["Europe", "Asia", "Africa", "Americas", "Oceania"]
_GENRES = ["Drama", "Comedy", "Action", "Documentary", "Thriller"]
_INDUSTRY = ["Tech", "Finance", "Retail", "Energy", "Media"]
_POSITIONS = ["Forward", "Midfielder", "Defender", "Goalkeeper"]
_CLASSES = ["Mammal", "Bird", "Reptile", "Fish", "Amphibian"]


def _base_table(domain: str, cols: list[str], n: int, g: np.random.Generator) -> pd.DataFrame:
    data: dict[str, list] = {}
    key = cols[0]
    data[key] = [f"{domain[:-1].title()}_{i:03d}" for i in range(n)]
    for c in cols[1:]:
        if c in ("capital", "hq_city", "city"):
            data[c] = [f"City_{v:03d}" for v in g.integers(0, 300, n)]
        elif c in ("population", "area_km2", "goals", "lifespan"):
            data[c] = [str(v) for v in g.integers(1, 100_000, n)]
        elif c in ("year", "founded", "established"):
            data[c] = [str(v) for v in g.integers(1850, 2023, n)]
        elif c == "continent":
            data[c] = g.choice(_CONTINENTS, n).tolist()
        elif c == "currency":
            data[c] = [f"CUR_{v:02d}" for v in g.integers(0, 40, n)]
        elif c in ("director", "author", "team", "country"):
            data[c] = [f"{c.title()}_{v:03d}" for v in g.integers(0, 120, n)]
        elif c == "genre":
            data[c] = g.choice(_GENRES, n).tolist()
        elif c == "industry":
            data[c] = g.choice(_INDUSTRY, n).tolist()
        elif c == "position":
            data[c] = g.choice(_POSITIONS, n).tolist()
        elif c == "class":
            data[c] = g.choice(_CLASSES, n).tolist()
        elif c == "publisher":
            data[c] = [f"Press_{v:02d}" for v in g.integers(0, 30, n)]
        else:
            data[c] = [f"{c}_{v}" for v in g.integers(0, 500, n)]
    return pd.DataFrame(data, columns=cols)


@dataclass
class WebBench:
    repo: TableRepository
    key_of: dict[str, str]  # table name -> key column (original name)
    duplicates: dict[str, str]  # table -> its exact duplicate


def corpus_tables(*, seed: int = 0) -> tuple[dict[str, pd.DataFrame], dict[str, str], dict[str, str]]:
    """Generate the corpus as pandas frames with real column names.

    Returns (tables, key_of, duplicates).
    """
    g = np.random.default_rng(seed)
    tables: dict[str, pd.DataFrame] = {}
    key_of: dict[str, str] = {}
    duplicates: dict[str, str] = {}

    for di, (domain, cols) in enumerate(DOMAINS):
        n = int(g.integers(60, 121))
        base = _base_table(domain, cols, n, g)
        key = cols[0]

        def put(name: str, pdf: pd.DataFrame):
            tables[name] = pdf.reset_index(drop=True)
            key_of[name] = key

        put(f"{domain}__base", base)
        # 3-way row partition
        idx = np.arange(n)
        g.shuffle(idx)
        parts = np.array_split(idx, 3)
        for pi, p in enumerate(parts):
            put(f"{domain}__part{pi}", base.iloc[np.sort(p)])
        # 2 column projections (key + half the attrs each)
        attrs = cols[1:]
        half = max(1, len(attrs) // 2)
        put(f"{domain}__proj0", base[[key] + attrs[:half]])
        put(f"{domain}__proj1", base[[key] + attrs[half:]])
        # 2 overlapping row slices
        put(f"{domain}__slice0", base.iloc[: int(n * 0.6)])
        put(f"{domain}__slice1", base.iloc[int(n * 0.4) :])
        # exact duplicate in 6 of the 8 domains
        if di < 6:
            dup_src = f"{domain}__part1"
            put(f"{domain}__part1_dup", tables[dup_src].copy())
            duplicates[f"{domain}__part1_dup"] = dup_src
            duplicates[dup_src] = f"{domain}__part1_dup"

    return tables, key_of, duplicates


def build_webtables(
    root: str | Path,
    *,
    seed: int = 0,
    extra_tables: dict[str, pd.DataFrame] | None = None,
) -> WebBench:
    """Materialise the corpus (plus optional WDC-style noise) as a lake.

    Column names are anonymized in the lake (data-driven discovery);
    ``key_of`` maps to the original key name so sources know their key
    as ``c0`` (the key is always the first column).
    """
    tables, key_of, duplicates = corpus_tables(seed=seed)
    builder = RepositoryBuilder(root)
    for name, pdf in tables.items():
        anon = pdf.copy()
        anon.columns = [f"c{i}" for i in range(len(pdf.columns))]
        builder.add(name, anon, meta={"columns": list(pdf.columns), "key": key_of[name]})
    if extra_tables:
        for name, pdf in extra_tables.items():
            builder.add(name, pdf)
    return WebBench(repo=builder.finish(), key_of=key_of, duplicates=duplicates)
