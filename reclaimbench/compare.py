"""Name the sources and layers where two run records disagree.

    python3 reclaimbench/compare.py .reclaimbench_runs/A.json .reclaimbench_runs/B.json

Compares, source by source and pass by pass, the quality scores, the
originating tables and (for traced records) the Spark jobs of every layer.
Exits 1 when anything differs, so two runs of the same code and seed can
be checked for exact repeatability.
"""
from __future__ import annotations

import json
import sys

EXACT = ("recall", "precision", "eis", "perfect", "originating", "output_rows", "error")


def _key(rec: dict) -> tuple:
    return rec["source"], rec["pass"], "span" in rec


def differences(a: dict, b: dict) -> list[str]:
    ra = {_key(r): r for r in a["sources"]}
    rb = {_key(r): r for r in b["sources"]}
    out = []
    for k in sorted(set(ra) | set(rb), key=str):
        name = f"{k[0]} pass {k[1]}{' traced' if k[2] else ''}"
        if k not in ra or k not in rb:
            out.append(f"{name}: only in {'first' if k in ra else 'second'} record")
            continue
        x, y = ra[k], rb[k]
        for f in EXACT:
            if x.get(f) != y.get(f):
                out.append(f"{name}: {f} {x.get(f)!r} != {y.get(f)!r}")
        jx, jy = x.get("jobs_by_layer", {}), y.get("jobs_by_layer", {})
        for layer in sorted(set(jx) & set(jy)):
            if jx[layer] != jy[layer]:
                out.append(f"{name}: layer {layer} ran {jx[layer]} vs {jy[layer]} Spark jobs")
    return out


def main(argv: list[str]) -> int:
    a, b = (json.loads(open(p).read()) for p in argv)
    diffs = differences(a, b)
    for d in diffs:
        print(d)
    print("identical" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
