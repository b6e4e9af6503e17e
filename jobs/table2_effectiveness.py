"""Table II — effectiveness on the larger TP-TR benchmarks.

Usage:
    python jobs/table2_effectiveness.py [bench ...] [--sources N] [--budget S]

bench ∈ {tptr_med, santos_med, tptr_large} (default: all three).
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("benches", nargs="*", default=None)
    ap.add_argument("--sources", type=int, default=None)
    ap.add_argument("--budget", type=float, default=None)
    args = ap.parse_args()
    benches = args.benches or ["tptr_med", "santos_med", "tptr_large"]

    spark = get_spark("table2")
    from repro.harness.experiments import TABLE2_METHODS, run_tptr_benchmark
    from repro.harness.runner import format_table

    for b in benches:
        agg, _cells = run_tptr_benchmark(
            spark, b, TABLE2_METHODS, n_sources=args.sources, budget_s=args.budget
        )
        print()
        print(format_table(agg, f"Table II — {b}"))


if __name__ == "__main__":
    main()
