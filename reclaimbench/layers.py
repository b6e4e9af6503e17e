"""Per-layer metrics of one traced pass, summed over its sources."""
from __future__ import annotations

from reclaimbench import stats
from reclaimbench.tracing import Tracer, self_time

# the spans directly under each source span; whatever they leave uncovered
# is the benchmark's own glue (trace.uncovered_s)
TOP_LEVEL = ("discovery", "gent", "collect", "metrics", "checks")

# layer -> span names whose outermost spans make up the layer
LAYERS = {
    "discovery": {"discovery"},
    "gent": {"gent"},
    "expand": {"expand"},
    "matrix": {"matrix.encode", "matrix.traverse"},
    "integrate": {"integrate"},
    "collect": {"collect"},
    "metrics": {"metrics"},
}


def jobs_by_layer(tracer: Tracer, root) -> dict[str, float]:
    """Spark jobs per layer under one source span (for run-to-run diffs)."""
    return {
        layer: sum(tracer.inclusive(s, "jobs") for s in tracer.outermost([root], names))
        for layer, names in LAYERS.items()
    }


def per_layer(tracer: Tracer, repo, traced: list[dict], untraced: list[dict], setup: dict) -> dict:
    """name -> (value, unit) for the traced pass ``traced``."""
    by_id = {s.id: s for s in tracer.spans}
    roots = [by_id[r["span"]] for r in traced if "span" in r]
    for r in traced:
        if "span" in r:
            r["jobs_by_layer"] = jobs_by_layer(tracer, by_id[r["span"]])
            r["uncovered_s"] = self_time(by_id[r["span"]], tracer.children(by_id[r["span"]]))

    def spans(layer):
        return tracer.outermost(roots, LAYERS[layer])

    def wall(names):
        return sum(s.wall for s in tracer.outermost(roots, set(names)))

    def cpu(layer, kind):
        return sum(s.cpu.get(kind, 0.0) for s in spans(layer))

    def count(layer, key):
        return sum(tracer.inclusive(s, key) for s in spans(layer))

    def total(key):
        return sum(tracer.inclusive(s, key) for s in roots)

    def rec_sum(key):
        return sum(r.get(key, 0) for r in traced)

    writes = [s for s in tracer.spans if s.name == "lake.write" and s.parent is None]
    write_s = sum(s.wall for s in writes)
    m: dict[str, tuple[float, str]] = {
        "session.start_s": (setup["session_start_s"], "s"),
        "bench.generate_s": (setup["build_s"] - write_s, "s"),
        "lake.write_s": (write_s, "s"),
        "lake.tables": (len(repo.names()), "count"),
        "lake.bytes": (sum(f.stat().st_size for f in repo.root.rglob("*") if f.is_file()), "bytes"),
        "lake.load_calls": (total("load_calls"), "count"),
        "lake.load_rows": (total("load_rows"), "rows"),
    }
    for layer in ("discovery", "integrate"):
        w, d = wall([*LAYERS[layer]]), cpu(layer, "driver")
        m[f"{layer}.wall_s"] = (w, "s")
        m[f"{layer}.driver_cpu_s"] = (d, "s")
        m[f"{layer}.jvm_cpu_s"] = (cpu(layer, "jvm"), "s")
        if layer == "integrate":
            m["integrate.pyworker_cpu_s"] = (cpu(layer, "pyworker"), "s")
        m[f"{layer}.wait_s"] = (w - d, "s")
        m[f"{layer}.spark_jobs"] = (count(layer, "jobs"), "count")
        m[f"{layer}.spark_tasks"] = (count(layer, "tasks"), "count")
        m[f"{layer}.rows_collected"] = (count(layer, "rows"), "rows")
    m["discovery.candidates"] = (rec_sum("candidates"), "count")
    m["expand.wall_s"] = (wall(["expand"]), "s")
    m["expand.driver_cpu_s"] = (cpu("expand", "driver"), "s")
    m["expand.spark_jobs"] = (count("expand", "jobs"), "count")
    m["expand.paths_added"] = (rec_sum("paths_added"), "count")
    m["matrix.encode_s"] = (wall(["matrix.encode"]), "s")
    m["matrix.traverse_s"] = (wall(["matrix.traverse"]), "s")
    m["matrix.spark_jobs"] = (count("matrix", "jobs"), "count")
    m["matrix.rows_collected"] = (count("matrix", "rows"), "rows")
    m["matrix.combine_calls"] = (count("matrix", "combine_calls"), "count")
    m["matrix.originating"] = (sum(len(r.get("originating", [])) for r in traced), "count")
    m["integrate.local_checkpoints"] = (count("integrate", "local_checkpoints"), "count")
    m["integrate.eis_guards"] = (count("integrate", "eis_calls"), "count")
    m["integrate.output_rows"] = (rec_sum("output_rows"), "rows")
    m["gent.wall_s"] = (wall(["gent"]), "s")
    m["gent.spark_jobs"] = (count("gent", "jobs"), "count")
    expanded = rec_sum("expanded")
    m["gent.originating_ratio"] = (
        m["matrix.originating"][0] / expanded if expanded else 0.0, "ratio"
    )
    m["collect.wall_s"] = (wall(["collect"]), "s")
    m["metrics.wall_s"] = (wall(["metrics"]), "s")
    m["metrics.spark_jobs"] = (count("metrics", "jobs"), "count")
    m["metrics.rows_collected"] = (count("metrics", "rows"), "rows")
    m["spark.jobs"] = (total("jobs"), "count")
    m["spark.failed_tasks"] = (total("failed_tasks"), "count")
    m["trace.uncovered_s"] = (sum(r.get("uncovered_s", 0.0) for r in traced), "s")
    ok_t = [r["reclaim_s"] for r in traced if "reclaim_s" in r]
    ok_u = [r["reclaim_s"] for r in untraced if "reclaim_s" in r]
    m["trace.overhead_s"] = (
        stats.median(ok_t) - stats.median(ok_u) if ok_t and ok_u else 0.0, "s"
    )
    return m
