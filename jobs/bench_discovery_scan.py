"""Discovery's cells filter per lake, written to ``BENCH_discovery_scan.json``.

Usage: python jobs/bench_discovery_scan.py [--lakes NAME ...] [--out PATH]

For each seed-0 lake (default: ``tptr_small``, ``tptr_med`` and the
T2D-like ``wdc_t2d``; ``tptr_large`` on request), built or loaded under
``data/`` by ``harness.experiments``, a fresh Python process opens the
repository and calls ``TableRepository.cells_with_values`` once with the
first source's values, then once more with every source's, in order. A
source's values are discovery's: ``_source_values(canon_str(source))``.
The sources are the lake's 26 TP-TR queries, or the 70 T2D-like corpus
tables (``key_of``). Per lake it records:

* ``first_call_ms``: the first call, which reads the cells dataset;
* ``per_source_ms``: median and maximum of the later calls, one a source;
* ``resident_bytes``: what Arrow's pool still holds after the first call,
  its result dropped (the batches the repository keeps);
* ``vm_hwm_mb``: the measuring process's peak RSS (``VmHWM``), and
  ``vm_hwm_before_mb``, the same before the first call (imports and the
  loaded sources).

Every call runs in one thread; nothing starts Spark but a TP-TR lake's
first build.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

DEFAULT_LAKES = ["tptr_small", "tptr_med", "wdc_t2d"]


def _vm_hwm_mb() -> float:
    """This process's peak resident set, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _sources(name: str):
    """The lake's repository and its sources as pandas frames, in name
    order. The lake is built already, so a TP-TR cache hit needs no Spark."""
    from repro.harness import experiments

    if name.startswith("tptr_"):
        bench = experiments.get_tptr(None, name)
        return bench.repo, [s.table for s in sorted(bench.sources, key=lambda s: s.name)]
    bench = experiments.get_webbench(name)
    return bench.repo, [bench.repo.load_pdf(n) for n in sorted(bench.key_of)]


def measure(name: str) -> dict:
    """One lake's record, measured in this process."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from repro.core.discovery import _source_values
    from repro.lake.repository import canon_str

    repo, sources = _sources(name)
    values = [_source_values(canon_str(s)) for s in sources]
    parts = sorted(repo.cells_path().glob("part-*.parquet"))
    hwm_before = _vm_hwm_mb()
    pool_before = pa.total_allocated_bytes()
    t0 = time.perf_counter()
    hits = repo.cells_with_values(values[0])
    first_ms = (time.perf_counter() - t0) * 1e3
    del hits
    resident = pa.total_allocated_bytes() - pool_before
    times, n_hits = [], []
    for v in values:
        t0 = time.perf_counter()
        hits = repo.cells_with_values(v)
        times.append((time.perf_counter() - t0) * 1e3)
        n_hits.append(hits.num_rows)
    return {
        "tables": len(repo.names()),
        "cells": sum(pq.ParquetFile(p).metadata.num_rows for p in parts),
        "parts": len(parts),
        "sources": len(values),
        "first_call_ms": round(first_ms, 2),
        "per_source_ms": {
            "median": round(statistics.median(times), 2),
            "max": round(max(times), 2),
        },
        "hits_per_source": {"median": statistics.median(n_hits), "max": max(n_hits)},
        "resident_bytes": resident,
        "vm_hwm_before_mb": round(hwm_before, 1),
        "vm_hwm_mb": round(_vm_hwm_mb(), 1),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lakes", nargs="+", default=DEFAULT_LAKES)
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_discovery_scan.json")
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # one lake, in this process
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return

    from repro.harness import experiments

    spark = None
    for name in args.lakes:  # build what is missing before any measuring
        if name.startswith("tptr_"):
            if spark is None:
                from repro.session import get_spark

                spark = get_spark("bench_discovery_scan")
            experiments.get_tptr(spark, name)
        else:
            experiments.get_webbench(name)
    if spark is not None:
        spark.stop()

    import pyarrow as pa

    record = {
        "what": "TableRepository.cells_with_values per source, seed-0 lakes",
        "cpus": os.cpu_count(),
        "pyarrow": pa.__version__,
        "lakes": {},
    }
    for name in args.lakes:
        cmd = [sys.executable, __file__, "--measure", name]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        record["lakes"][name] = json.loads(out.strip().splitlines()[-1])
        print(name, json.dumps(record["lakes"][name]))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
