"""Table III — all methods (incl. Auto-Pipeline*, Ver) on TP-TR Small.

Usage: python jobs/table3_small.py [--sources N] [--budget S]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sources", type=int, default=None)
    ap.add_argument("--budget", type=float, default=None)
    args = ap.parse_args()

    spark = get_spark("table3")
    from repro.harness.experiments import TABLE3_METHODS, run_tptr_benchmark
    from repro.harness.runner import format_table

    agg, _cells = run_tptr_benchmark(
        spark, "tptr_small", TABLE3_METHODS,
        n_sources=args.sources, budget_s=args.budget,
    )
    print()
    print(format_table(agg, "Table III — TP-TR Small"))


if __name__ == "__main__":
    main()
