"""Gen-T reclamation benchmark: one workload, one seed, one run.

    python3 reclaimbench/run.py --workload tptr_small --seed 1 --seconds 13 --trace 0

Builds the workload's lake fresh from the seed in a temporary directory
inside the checkout, starts Spark, reclaims one untimed warm-up source,
then runs the workload's measured sources one at a time (a closed loop with
one client) through the runner's Gen-T path:
``discovery.set_similarity`` -> ``gent.reclaim_from_candidates`` ->
reclaimed table collected to the driver -> ``metrics.evaluate``. Whole
passes over the measured sources repeat until ``--seconds`` have passed.
Every output is checked. The last stdout line is a JSON object with the
end-to-end metrics (``--trace 0``) or, after one more pass with every
layer wrapped in spans, the per-layer metrics (``--trace 1``). A run
record (and, when traced, the spans) is written under
``.reclaimbench_runs/``. The exit code is 1 when any source raised or
failed a check, and 2 when the repository sources are missing.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".reclaimbench_runs"
TMP = ROOT / ".reclaimbench_tmp"


def parse(argv):
    from reclaimbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One run: the session, the lake and the records of every source."""

    def __init__(self, spark, workload, repo, sources):
        self.spark = spark
        self.wl = workload
        self.repo = repo
        self.sources = sources
        self.lake_tables = set(repo.names())

    def run_source(self, name: str, pass_no: int, tracer=None) -> dict:
        from repro.core import discovery as disc
        from repro.core import gent
        from repro.core import metrics as met

        from reclaimbench import checks

        src = self.sources[name]
        rec = {"source": name, "pass": pass_no, "error": None, "problems": []}
        span = tracer.span if tracer else (lambda *a, **k: contextlib.nullcontext())
        stage = "discovery"
        try:
            with span("source", source=name, pass_no=pass_no) as root:
                t0 = time.perf_counter()
                cands = disc.set_similarity(
                    self.spark, self.repo, src.table, src.key_cols,
                    tau=self.wl.tau, restrict_to=src.restrict_to,
                )
                t1 = time.perf_counter()
                stage = "gent"
                if cands:
                    res = gent.reclaim_from_candidates(
                        self.spark, self.repo, cands, src.table, src.key_cols
                    )
                else:
                    res = gent.GenTResult(None, [], [])
                stage = "collect"
                with span("collect"):
                    pdf = res.reclaimed.toPandas() if res.reclaimed is not None else None
                t2 = time.perf_counter()
                stage = "metrics"
                scores = met.evaluate(self.spark, res.reclaimed, src.table, src.key_cols)
                t3 = time.perf_counter()
                stage = "checks"
                with span("checks"):
                    problems = checks.check_output(
                        src.table, src.key_cols, pdf, res.originating,
                        self.lake_tables, scores,
                    )
        except Exception as e:  # a raising source is a counted failure, not a crash
            rec["error"] = f"{stage}: {type(e).__name__}: {e}"
            print(f"[reclaimbench] {name} failed in {stage}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return rec
        rec.update(
            reclaim_s=t2 - t0, gent_s=t2 - t1, discovery_s=t1 - t0, metrics_s=t3 - t2,
            recall=scores["recall"], precision=scores["precision"], eis=scores["eis"],
            perfect=bool(scores["perfect"]), candidates=len(cands),
            expanded=len(res.candidates), paths_added=sum("+" in n for n in res.candidates),
            originating=list(res.originating),
            output_rows=0 if pdf is None else len(pdf), problems=problems,
        )
        if tracer:
            rec["span"] = root.id
        return rec

    def passes(self, seconds: float, tracer=None) -> tuple[list[dict], float]:
        """Whole passes over the measured sources until ``seconds`` pass."""
        recs: list[dict] = []
        t0 = time.perf_counter()
        p = 0
        while p == 0 or time.perf_counter() - t0 < seconds:
            for name in self.wl.measured:
                recs.append(self.run_source(name, p, tracer))
            p += 1
        return recs, time.perf_counter() - t0


def failed(rec: dict) -> bool:
    return bool(rec["error"] or rec["problems"])


def end_to_end(recs, wall, setup_s, driver_mb, jvm_mb) -> tuple[dict, dict]:
    """name -> (value, unit), plus notes.

    Times come from the timed passes; quality from the warm-up source
    (pass -1) and the first timed pass, so every distinct source is scored
    once.
    """
    from reclaimbench import stats

    timed = [r for r in recs if r["pass"] >= 0]
    ok = [r for r in timed if not failed(r)]
    if not ok:
        return {}, {}
    lat = [r["reclaim_s"] for r in ok]
    tail, tail_label = stats.tail(lat)
    scored = [r for r in recs if r["pass"] <= 0]

    def mean(key):  # a source that raised scores 0
        return sum(r.get(key, 0.0) for r in scored) / len(scored)

    values = {
        "setup_s": (setup_s, "s"),
        "reclaim_s.p50": (stats.median(lat), "s"),
        "reclaim_s.tail": (tail, "s"),
        "gent_s.p50": (stats.median([r["gent_s"] for r in ok]), "s"),
        "sources_per_min": (len(ok) / (wall / 60), "1/min"),
        "recall": (mean("recall"), "ratio"),
        "precision": (mean("precision"), "ratio"),
        "eis": (mean("eis"), "ratio"),
        "perfect": (sum(bool(r.get("perfect")) for r in scored), "count"),
        "driver_peak_rss_mb": (driver_mb, "MB"),
        "jvm_peak_rss_mb": (jvm_mb, "MB"),
    }
    notes = {
        "reclaim_s.tail": tail_label,
        "latency_samples": len(lat),
        "scored_sources": [r["source"] for r in scored],
    }
    return values, notes


def run(args, tmp: Path, t_start: float) -> tuple[dict, dict]:
    from reclaimbench import layers, procstat, spark_env, tracing
    from reclaimbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    record: dict = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured": wl.measured,
        "warmup": wl.warmup,
    }
    steal0 = procstat.steal_s()
    spark = spark_env.start_session()
    try:
        sc = spark.sparkContext
        record["spark"] = spark_env.live_conf(spark)
        jvm = spark_env.jvm_pid(spark)
        t_session = time.perf_counter()
        tracer = None
        if args.trace:
            bus = sc._jsc.sc().listenerBus()
            tracer = tracing.Tracer(sc, jvm_pid=jvm, drain=lambda: bus.waitUntilEmpty(10_000))
        with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
            repo, sources = wl.make(spark, tmp / "lake", args.seed)
        t_built = time.perf_counter()
        bench = Bench(spark, wl, repo, sources)
        recs = [bench.run_source(wl.warmup, -1)]
        setup = {
            "session_start_s": t_session - t_start,
            "build_s": t_built - t_session,
            "warmup_s": time.perf_counter() - t_built,
        }
        setup_s = time.perf_counter() - t_start
        steal1 = procstat.steal_s()
        timed, wall = bench.passes(args.seconds)
        # host CPU stolen by other guests: explains runs slowed from outside
        record["host_steal_s"] = {
            "setup": steal1 - steal0, "timed": procstat.steal_s() - steal1,
        }
        recs += timed
        values, notes = end_to_end(
            recs, wall, setup_s, procstat.self_peak_rss_mb(), procstat.vm_hwm_mb(jvm)
        )
        if tracer:
            with tracing.instrument(tracer):
                traced, _ = bench.passes(0, tracer)
            recs += traced
            values = layers.per_layer(tracer, repo, traced, timed, setup)
            record["spans_file"] = str(write_spans(args, tracer))
        record.update(setup=setup, timed_wall_s=wall, notes=notes, sources=recs)
    finally:
        spark_env.stop_session(spark)

    n_failed = sum(failed(r) for r in recs)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {
        "correct": n_failed == 0 and bool(metrics),
        "attempted": len(recs),
        "failed": n_failed,
        "metrics": metrics,
    }
    record["result"] = result
    return result, record


def write_spans(args, tracer) -> Path:
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as f:
        for r in tracer.to_records():
            f.write(json.dumps(r) + "\n")
    return path


def main(argv=None) -> int:
    t_start = time.perf_counter()
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} is missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse(argv)
    from reclaimbench import spark_env

    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    spark_env.prepare_env(SRC, tmp)
    try:
        result, record = run(args, tmp, t_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    for r in record["sources"]:
        if failed(r):
            print(f"FAILED {r['source']} pass {r['pass']}: {r['error'] or r['problems']}")
    for k, m in result["metrics"].items():
        note = record["notes"].get(k, "")
        print(f"{k:<28} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
