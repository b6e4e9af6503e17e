"""Unit tests for the benchmark's own helpers (no Spark needed).

    python3 -m pytest reclaimbench -q -p no:cacheprovider
"""
from types import SimpleNamespace

import pytest

from reclaimbench import stats
from reclaimbench.tracing import Span, Tracer, _collect_wrapper, self_time


def _span(start, end, id=0):
    return Span(id=id, parent=None, name="s", start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0.0, 10.0)
    kids = [_span(1.0, 3.0), _span(2.0, 5.0), _span(7.0, 8.0)]  # cover [1,5] and [7,8]
    assert self_time(parent, kids) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span(2.0, 6.0)
    assert self_time(parent, [_span(0.0, 3.0), _span(5.0, 9.0)]) == pytest.approx(2.0)
    assert self_time(parent, []) == pytest.approx(4.0)


def test_tail_keeps_ten_samples_above():
    xs = [float(i) for i in range(1, 27)]  # 26 samples
    value, label = stats.tail(xs)
    assert value == 16.0  # rank 16 of 26: ten samples above it
    assert sum(x > value for x in xs) == 10
    assert label.startswith("p61.5")
    value, label = stats.tail([float(i) for i in range(11)])
    assert value == 0.0 and label.startswith("p9.09")


def test_tail_without_enough_samples_reports_the_maximum():
    value, label = stats.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("max (n=3")
    with pytest.raises(ValueError):
        stats.tail([])


class FakeSparkContext:
    """Runs fake jobs into whatever job group is current."""

    def __init__(self):
        self.group = None
        self.jobs: list[tuple[int, str | None]] = []

    def setJobGroup(self, group, description):
        self.group = group

    def setLocalProperty(self, key, value):
        if key == "spark.jobGroup.id":
            self.group = value

    def run_job(self):
        self.jobs.append((len(self.jobs), self.group))

    def statusTracker(self):
        sc = self
        return SimpleNamespace(
            getJobIdsForGroup=lambda g: [j for j, grp in sc.jobs if grp == g],
            getJobInfo=lambda j: SimpleNamespace(stageIds=[100 + j, 0]),  # stage 0 shared
            getStageInfo=lambda s: SimpleNamespace(numCompletedTasks=4, numFailedTasks=0),
        )


def test_jobs_go_to_the_innermost_grouped_span():
    sc = FakeSparkContext()
    tr = Tracer(sc)
    with tr.span("outer") as outer:
        sc.run_job()
        with tr.span("inner") as inner:
            sc.run_job()
            with tr.span("lake.load", jobs=False):
                sc.run_job()  # no group of its own: counts for "inner"
        sc.run_job()  # the outer group is current again
    sc.run_job()  # after the last span: no group
    assert inner.counts["jobs"] == 2
    assert outer.counts["jobs"] == 2
    assert tr.inclusive(outer, "jobs") == 4
    assert sc.group is None and sc.jobs[-1] == (4, None)
    # the shared stage 0 is counted once, at the first span that read it
    assert tr.inclusive(outer, "tasks") == 4 * 4 + 4


def test_only_the_outermost_collect_counts_rows():
    class Frame:
        def collect(self):
            return [1, 2, 3]

        def toPandas(self):  # like a non-Arrow toPandas, collects inside
            return self.collect()

    tr = Tracer()
    Frame.collect = _collect_wrapper(tr, Frame.collect)
    Frame.toPandas = _collect_wrapper(tr, Frame.toPandas)
    with tr.span("matrix.encode") as sp:
        Frame().toPandas()
        Frame().collect()
    assert sp.counts["rows"] == 6
