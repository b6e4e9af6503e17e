"""Shared fixtures: the paper's running example (Figure 3 / Example 6).

The Figure-3 universe — Source Table S (key ``ID``) plus lake tables
A, B, C, D and the two integration results Ŝ1 (full disjunction) and
Ŝ2 (an outer-join order) — is reused across metric, matrix, discovery and
end-to-end tests, because the paper states exact expected numbers for it.
"""
import contextlib
import json
import shutil
import uuid

import pandas as pd
import pytest


@pytest.fixture(scope="session")
def fig3_source() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "ID": ["0", "1", "2"],
            "Name": ["Smith", "Brown", "Wang"],
            "Age": ["27", "24", "32"],
            "Gender": [None, "Male", "Female"],
            "Education Level": ["Bachelors", "Masters", "High School"],
        }
    )


@pytest.fixture(scope="session")
def fig3_tables() -> dict[str, pd.DataFrame]:
    a = pd.DataFrame(
        {
            "ID": ["0", "1", "2"],
            "Name": ["Smith", "Brown", "Wang"],
            "Education Level": ["Bachelors", None, "High School"],
        }
    )
    b = pd.DataFrame({"Name": ["Smith", "Brown", "Wang"], "Age": ["27", "24", "32"]})
    c = pd.DataFrame({"Name": ["Smith", "Brown", "Wang"], "Gender": ["Male", "Male", "Male"]})
    d = pd.DataFrame(
        {
            "Name": ["Smith", "Brown", "Wang"],
            "Age": ["27", "24", "32"],
            "Gender": [None, "Male", "Female"],
            "Education Level": [None, "Masters", None],
        }
    )
    return {"A": a, "B": b, "C": c, "D": d}


@pytest.fixture(scope="session")
def fig3_repo(tmp_path_factory, fig3_tables):
    """A small data lake built from the Fig-3 tables with anonymized column
    names (data-driven discovery must recover the schema matching), an
    exact duplicate of D (Example 9's Table E) and an unrelated junk table."""
    from repro.lake.repository import RepositoryBuilder

    root = tmp_path_factory.mktemp("fig3_lake")
    b = RepositoryBuilder(root)
    for name, pdf in fig3_tables.items():
        anon = pdf.copy()
        anon.columns = [f"c{i}" for i in range(len(pdf.columns))]
        b.add(name, anon)
    dup = fig3_tables["D"].copy()
    dup.columns = [f"c{i}" for i in range(len(dup.columns))]
    b.add("E", dup)
    b.add(
        "junk",
        pd.DataFrame({"c0": ["zzz", "yyy"], "c1": ["qqq", "rrr"]}),
    )
    return b.finish()


@pytest.fixture(scope="session")
def fig3_s1hat() -> pd.DataFrame:
    """Ŝ1 — the full-disjunction integration of A, B, C, D (Fig 3 top-right)."""
    return pd.DataFrame(
        {
            "ID": ["0", "1", "2", "2"],
            "Name": ["Smith", "Brown", "Wang", "Wang"],
            "Age": ["27", "24", "32", "32"],
            "Gender": ["Male", "Male", "Female", "Male"],
            "Education Level": ["Bachelors", "Masters", None, "High School"],
        }
    )


@pytest.fixture(scope="session")
def fig3_s2hat() -> pd.DataFrame:
    """Ŝ2 — the outer-join-order integration (Fig 3 bottom-right)."""
    return pd.DataFrame(
        {
            "ID": ["0", "0", "0", "1", "1", "1", "2", "2", "2"],
            "Name": ["Smith"] * 3 + ["Brown"] * 3 + ["Wang"] * 3,
            "Age": [None, "27", None, None, "24", None, None, "32", None],
            "Gender": [None, None, "Male", None, "Male", "Male", None, "Female", "Male"],
            "Education Level": [
                "Bachelors", None, "Bachelors", None, "Masters", None,
                "High School", None, "High School",
            ],
        }
    )


@pytest.fixture(scope="session")
def tptr_small(spark, tmp_path_factory):
    """The seed-0 TP-TR Small lake and sources, as ``experiments.get_tptr``
    builds them under a temporary data root. Returns (data root, bench)."""
    from repro.harness import experiments

    root = tmp_path_factory.mktemp("data")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "DATA_ROOT", root)
        return root, experiments.get_tptr(spark, "tptr_small")


def stale_layout(root, params: dict):
    """Strip a built lake down to a stale layout: a manifest without
    extents and ``params.json``, no tables, no cells (what ``data/``'s
    tracked manifests used to leave in a fresh checkout)."""
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest.values():
        del entry["extents"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "params.json").write_text(json.dumps(params))
    shutil.rmtree(root / "tables")
    shutil.rmtree(root / "cells")
    return root


_JOB_GROUP_PROPERTIES = (
    "spark.jobGroup.id",
    "spark.job.description",
    "spark.job.interruptOnCancel",
)


@contextlib.contextmanager
def job_group(sc, group: str, description: str):
    """Run the body under Spark job group ``group``, then restore the
    thread's job-group properties as they were. ``setJobGroup`` sets all
    three, and a later test may read any of them (ALITE's deadline test
    asserts ``spark.job.interruptOnCancel`` is unset)."""
    saved = {p: sc.getLocalProperty(p) for p in _JOB_GROUP_PROPERTIES}
    sc.setJobGroup(group, description)
    try:
        yield
    finally:
        for p, v in saved.items():
            sc.setLocalProperty(p, v)


def jobs_started(spark, fn):
    """Run ``fn`` under a fresh Spark job group; return (result, job ids)."""
    sc = spark.sparkContext
    group = f"jobs-started-{uuid.uuid4().hex}"
    with job_group(sc, group, "jobs_started"):
        out = fn()
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)  # job events are async
    return out, list(sc.statusTracker().getJobIdsForGroup(group))


def reclaim_spark_free(spark, repo, source, key_cols, monkeypatch, **kw):
    """``set_similarity``, then the benchmark's per-source protocol after
    it: ``gent.reclaim_from_candidates``, ``reclaimed.toPandas()`` and
    ``metrics.evaluate``, recording every ``TableRepository.load`` call
    (discovery's included), every ``load_pdf`` call after discovery and
    every Spark job the protocol starts.

    Returns (candidates, result, scores, {"loads": [...], "jobs": [...]}).
    """
    from repro.core import discovery as disc
    from repro.core import gent
    from repro.core import metrics as met
    from repro.lake.repository import TableRepository

    loads: list[str] = []

    def counting(real):
        def wrapped(self, *args):
            loads.append(args[-1])
            return real(self, *args)
        return wrapped

    monkeypatch.setattr(TableRepository, "load", counting(TableRepository.load))
    cands = disc.set_similarity(spark, repo, source, key_cols, **kw)
    monkeypatch.setattr(TableRepository, "load_pdf", counting(TableRepository.load_pdf))

    def protocol():
        res = gent.reclaim_from_candidates(spark, repo, cands, source, key_cols)
        if res.reclaimed is not None:
            res.reclaimed.toPandas()
        return res, met.evaluate(spark, res.reclaimed, source, key_cols)

    (res, scores), jobs = jobs_started(spark, protocol)
    return cands, res, scores, {"loads": loads, "jobs": jobs}


def reclaimed_rows(res) -> list[tuple]:
    pdf = res.reclaimed.toPandas()
    return sorted(pdf.itertuples(index=False, name=None), key=repr)


def assert_same_reclamation(spark, repo, typed, key_cols, tau):
    """A typed source reclaims exactly as its canonical form does."""
    from repro.core import discovery as disc
    from repro.core import gent
    from repro.lake.repository import canon_str

    cands = disc.set_similarity(spark, repo, typed, key_cols, tau=tau)
    got = gent.reclaim_from_candidates(spark, repo, cands, typed, key_cols)
    want = gent.reclaim_from_candidates(spark, repo, cands, canon_str(typed), key_cols)
    assert want.reclaimed is not None
    assert got.candidates == want.candidates
    assert got.originating == want.originating
    assert reclaimed_rows(got) == reclaimed_rows(want)
