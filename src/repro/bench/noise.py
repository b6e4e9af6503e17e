"""Distractor lakes: SANTOS-Large and WDC-Sample substitutes (DESIGN.md §6).

The paper embeds TP-TR Med into SANTOS Large (11K real open-data tables)
and T2D Gold into a 15K-table WDC web-table sample to test whether
discovery + matrix traversal prune irrelevant-but-colliding candidates.
We synthesize distractors with the same role:

* ``santos_noise`` — open-data-shaped tables (hundreds to thousands of
  rows) whose value domains deliberately collide with TPC-H: small-int
  key ranges, 1992-1998 ISO dates, money-like decimals, segment words;
* ``wdc_noise`` — small web tables (avg ~14 rows, like Table I's WDC row)
  over entity-ish string vocabularies.

Counts are scaled down ~10× from the paper (documented in EXPERIMENTS.md);
the discovery path they exercise is identical.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

_SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE",
             "RETAIL", "WHOLESALE", "ONLINE"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW", "0-NONE"]
_WORDS = [
    "alpha", "beta", "gamma", "delta", "omega", "north", "south", "east",
    "west", "prime", "metro", "rural", "urban", "basin", "ridge", "valley",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _noise_column(g: np.random.Generator, kind: str, n: int) -> list:
    if kind == "int_key":
        return [str(v) for v in g.integers(1, 20_000, n)]
    if kind == "small_int":
        return [str(v) for v in g.integers(1, 51, n)]
    if kind == "date":
        base = np.datetime64("1992-01-01")
        return [str(base + np.timedelta64(int(d), "D")) for d in g.integers(0, 2500, n)]
    if kind == "money":
        return [f"{v:.2f}".rstrip("0").rstrip(".") for v in g.random(n) * 90000 + 900]
    if kind == "segment":
        return g.choice(_SEGMENTS, n).tolist()
    if kind == "priority":
        return g.choice(_PRIORITIES, n).tolist()
    return [f"{a}_{b}" for a, b in zip(g.choice(_WORDS, n), g.integers(0, 999, n))]


_KINDS = ["int_key", "small_int", "date", "money", "segment", "priority", "word"]


def santos_noise(
    n_tables: int, *, seed: int = 0, min_rows: int = 200, max_rows: int = 3000
) -> dict[str, pd.DataFrame]:
    """Open-data-shaped distractor tables with TPC-H-colliding domains."""
    g = _rng(seed)
    out = {}
    for i in range(n_tables):
        n = int(g.integers(min_rows, max_rows + 1))
        n_cols = int(g.integers(3, 9))
        kinds = g.choice(_KINDS, n_cols)
        data = {f"c{j}": _noise_column(g, kinds[j], n) for j in range(n_cols)}
        out[f"santos_noise_{i:05d}"] = pd.DataFrame(data)
    return out


def wdc_noise(
    n_tables: int, *, seed: int = 0, min_rows: int = 4, max_rows: int = 25
) -> dict[str, pd.DataFrame]:
    """Small web-table distractors (avg ~14 rows)."""
    g = _rng(seed)
    out = {}
    for i in range(n_tables):
        n = int(g.integers(min_rows, max_rows + 1))
        n_cols = int(g.integers(2, 6))
        data = {
            "c0": [f"entity_{v}" for v in g.integers(0, 5000, n)],
        }
        for j in range(1, n_cols):
            kind = g.choice(["word", "small_int", "date"])
            data[f"c{j}"] = _noise_column(g, kind, n)
        out[f"wdc_noise_{i:05d}"] = pd.DataFrame(data)
    return out
