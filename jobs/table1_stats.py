"""Table I — data lake statistics for every benchmark.

Usage: python jobs/table1_stats.py [bench ...]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.session import get_spark


def main() -> None:
    spark = get_spark("table1-stats")
    from repro.harness.experiments import table1_stats

    names = sys.argv[1:] or None
    df = table1_stats(spark, names)
    print("\nTable I — benchmark lake statistics")
    print(f"{'Benchmark':<14}{'# Tables':>10}{'# Cols':>9}{'Avg Rows':>11}{'Size (MB)':>11}")
    for _, r in df.iterrows():
        print(
            f"{r['benchmark']:<14}{int(r['tables']):>10d}{int(r['cols']):>9d}"
            f"{r['avg_rows']:>11.1f}{r['size_mb']:>11.2f}"
        )


if __name__ == "__main__":
    main()
