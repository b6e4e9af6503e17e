"""Shared fixtures: the paper's running example (Figure 3 / Example 6).

The Figure-3 universe — Source Table S (key ``ID``) plus lake tables
A, B, C, D and the two integration results Ŝ1 (full disjunction) and
Ŝ2 (an outer-join order) — is reused across metric, matrix, discovery and
end-to-end tests, because the paper states exact expected numbers for it.
"""
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


def stale_layout(root, params: dict):
    """Strip a built lake down to what ``data/tptr_small`` holds in git: a
    manifest without extents and ``params.json``, no tables, no cells."""
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest.values():
        del entry["extents"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "params.json").write_text(json.dumps(params))
    shutil.rmtree(root / "tables")
    shutil.rmtree(root / "cells")
    return root


def jobs_started(spark, fn):
    """Run ``fn`` under a fresh Spark job group; return (result, job ids)."""
    sc = spark.sparkContext
    group = f"jobs-started-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "jobs_started")
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)  # job events are async
    return out, list(sc.statusTracker().getJobIdsForGroup(group))
