"""Table IV — WDC Sample + T2D Gold common-source comparison.

Usage: python jobs/table4_wdc.py [--bench wdc_t2d|t2d] [--sources N] [--budget S]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="wdc_t2d")
    ap.add_argument("--sources", type=int, default=24)
    ap.add_argument("--budget", type=float, default=None)
    args = ap.parse_args()

    spark = get_spark("table4")
    from repro.harness.experiments import run_table4
    from repro.harness.runner import format_table

    agg, cells = run_table4(
        spark, bench_name=args.bench, n_sources=args.sources, budget_s=args.budget
    )
    print()
    if len(agg):
        print(format_table(agg, f"Table IV — {args.bench} (common non-empty sources)"))
    else:
        print("No common sources where all methods produced non-empty output.")
    n_perfect = len({c.source for c in cells if c.method == "gen_t" and c.perfect})
    print(f"\nGen-T perfectly reclaimed sources: {n_perfect}")


if __name__ == "__main__":
    main()
