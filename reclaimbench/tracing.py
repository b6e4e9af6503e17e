"""Spans and counters around the public functions of each ``repro`` layer.

Nothing under ``src/`` is edited: :func:`instrument` swaps module and class
attributes for wrappers while a traced pass runs and restores them after.
Each span records wall time, driver CPU and JVM CPU across the call (and
the JVM's Python workers' CPU where asked), the Spark jobs it ran, and the
rows it pulled to the driver. Jobs are attributed through one fresh Spark
job group per span, read back as soon as the span ends; the status
tracker keeps only ``spark.ui.retainedJobs`` jobs, so reading late loses
them.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

from reclaimbench import procstat

@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    group: str | None = None
    # measured across the call, so already inclusive of child spans
    cpu: dict[str, float] = field(default_factory=dict)
    # attributed to this span only (innermost open span); see Tracer.inclusive
    counts: dict[str, float] = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    ivs = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    covered, cur_s, cur_e = 0.0, None, None
    for s, e in ivs:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return span.wall - covered


class Tracer:
    """In-memory span tree for one process.

    ``sc`` is a SparkContext (or anything with ``setJobGroup``,
    ``setLocalProperty`` and ``statusTracker``); ``drain`` blocks until
    Spark's listener bus has delivered pending job events, so that a job
    group read right after a call is complete.
    """

    def __init__(
        self,
        sc=None,
        *,
        jvm_pid: int | None = None,
        drain: Callable[[], None] | None = None,
    ):
        self.sc = sc
        self.jvm_pid = jvm_pid
        self.drain = drain
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._kids: dict[int, list[Span]] = {}
        self._seen_stages: set[int] = set()
        self._collect_depth = 0

    # -- recording ---------------------------------------------------------

    def _cpu(self, pyworker: bool) -> dict[str, float]:
        out = {"driver": time.process_time()}
        if self.jvm_pid is not None:
            out["jvm"] = procstat.cpu_s(self.jvm_pid)
            if pyworker:
                out["pyworker"] = procstat.tree_cpu_s(self.jvm_pid)
        return out

    def _set_group(self, span: Span | None) -> None:
        if span is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(span.group, span.name)

    def _read_group(self, span: Span) -> None:
        if self.drain is not None:
            self.drain()
        st = self.sc.statusTracker()
        jobs = sorted(st.getJobIdsForGroup(span.group))
        tasks = failed = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for sid in info.stageIds if info else ():
                if sid in self._seen_stages:
                    continue  # a stage reused by a later job ran once
                self._seen_stages.add(sid)
                si = st.getStageInfo(sid)
                if si is not None:
                    tasks += si.numCompletedTasks
                    failed += si.numFailedTasks
        span.attrs["job_ids"] = jobs
        span.counts["jobs"] = span.counts.get("jobs", 0) + len(jobs)
        span.counts["tasks"] = span.counts.get("tasks", 0) + tasks
        span.counts["failed_tasks"] = span.counts.get("failed_tasks", 0) + failed

    @contextlib.contextmanager
    def span(self, name: str, *, jobs: bool = True, pyworker: bool = False, **attrs):
        parent = self.stack[-1] if self.stack else None
        sp = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            name=name,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        if parent is not None:
            self._kids.setdefault(parent.id, []).append(sp)
        if jobs and self.sc is not None:
            sp.group = f"reclaimbench-{sp.id}"
            self._set_group(sp)
        before = self._cpu(pyworker)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            self.stack.pop()
            after = self._cpu(pyworker)
            sp.end = time.perf_counter()
            sp.cpu = {k: after[k] - before[k] for k in after}
            if sp.group is not None:
                self._read_group(sp)
                # jobs after this span belong to the nearest grouped ancestor
                self._set_group(next((s for s in reversed(self.stack) if s.group), None))

    def count(self, key: str, n: float = 1) -> None:
        """Add to a counter on the innermost open span (if any)."""
        if self.stack:
            c = self.stack[-1].counts
            c[key] = c.get(key, 0) + n

    @contextlib.contextmanager
    def collecting(self):
        """Mark a collect; yields True only for the outermost one."""
        self._collect_depth += 1
        try:
            yield self._collect_depth == 1
        finally:
            self._collect_depth -= 1

    # -- reading -----------------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return self._kids.get(span.id, [])

    def subtree(self, span: Span) -> list[Span]:
        out, todo = [], [span]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children(s))
        return out

    def inclusive(self, span: Span, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.subtree(span))

    def outermost(self, roots: list[Span], names: set[str]) -> list[Span]:
        """Spans named in ``names`` under ``roots`` with no such ancestor."""
        out = []
        todo = list(roots)
        while todo:
            s = todo.pop()
            if s.name in names:
                out.append(s)
            else:
                todo.extend(self.children(s))
        return sorted(out, key=lambda s: s.id)

    def to_records(self) -> list[dict]:
        return [
            {
                "id": s.id, "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end,
                "self_s": self_time(s, self.children(s)),
                "cpu": s.cpu, "counts": s.counts, "attrs": s.attrs,
            }
            for s in self.spans
        ]


# -- instrumentation -------------------------------------------------------

def _resolve(target: str):
    mod, _, cls = target.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def _lake_rows(args, result) -> dict:
    if hasattr(result, "shape"):
        return {"load_calls": 1, "load_rows": len(result)}
    repo, name = args[0], args[-1]  # load(spark, name) is lazy: use the manifest
    return {"load_calls": 1, "load_rows": repo.rows(name)}


# (owner, attribute, span name, span options, per-call counters from result)
SPANS: list[tuple[str, str, str, dict, Callable | None]] = [
    ("repro.core.discovery", "set_similarity", "discovery", {}, None),
    ("repro.core.gent", "reclaim_from_candidates", "gent", {}, None),
    ("repro.core.expand", "expand", "expand", {}, None),
    ("repro.core.matrix", "matrix_for_candidate", "matrix.encode", {}, None),
    ("repro.core.matrix", "matrix_traversal", "matrix.traverse", {}, None),
    ("repro.core.integrate", "integrate", "integrate", {"pyworker": True}, None),
    ("repro.core.metrics", "evaluate", "metrics", {}, None),
    ("repro.lake.repository:TableRepository", "load", "lake.load", {"jobs": False}, _lake_rows),
    ("repro.lake.repository:TableRepository", "load_pdf", "lake.load", {"jobs": False}, _lake_rows),
    ("repro.lake.repository:RepositoryBuilder", "add", "lake.write", {"jobs": False}, None),
    ("repro.lake.repository:RepositoryBuilder", "finish", "lake.write", {"jobs": False}, None),
]

# (owner, attribute, counter): calls counted on the innermost span
COUNTERS: list[tuple[str, str, str]] = [
    ("repro.core.matrix", "combine", "combine_calls"),
    ("repro.core.metrics_core", "eis", "eis_calls"),
    ("pyspark.sql.classic.dataframe:DataFrame", "localCheckpoint", "local_checkpoints"),
]

# driver collects; a non-Arrow toPandas calls collect itself, so only the
# outermost one counts its rows
COLLECTS: list[tuple[str, str]] = [
    ("pyspark.sql.classic.dataframe:DataFrame", "toPandas"),
    ("pyspark.sql.classic.dataframe:DataFrame", "collect"),
]


def _span_wrapper(tracer: Tracer, fn, name: str, opts: dict, counter):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with tracer.span(name, **opts) as sp:
            result = fn(*args, **kwargs)
            if counter is not None:
                for k, v in counter(args, result).items():
                    sp.counts[k] = sp.counts.get(k, 0) + v
            return result

    return wrapped


def _count_wrapper(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return wrapped


def _collect_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with tracer.collecting() as outermost:
            result = fn(*args, **kwargs)
            if outermost:
                tracer.count("rows", len(result))
            return result

    return wrapped


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry of SPANS, COUNTERS and COLLECTS; restore on exit."""
    saved = []

    def swap(obj, attr, wrap):
        fn = getattr(obj, attr)
        own = attr in vars(obj)  # else inherited: delete the shadow on exit
        saved.append((obj, attr, fn, own))
        setattr(obj, attr, wrap(fn))

    try:
        for owner, attr, name, opts, counter in SPANS:
            swap(_resolve(owner), attr,
                 lambda fn: _span_wrapper(tracer, fn, name, opts, counter))
        for owner, attr, key in COUNTERS:
            swap(_resolve(owner), attr, lambda fn: _count_wrapper(tracer, fn, key))
        for owner, attr in COLLECTS:
            swap(_resolve(owner), attr, lambda fn: _collect_wrapper(tracer, fn))
        yield tracer
    finally:
        for obj, attr, fn, own in reversed(saved):
            if own:
                setattr(obj, attr, fn)
            else:
                delattr(obj, attr)
