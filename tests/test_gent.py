"""Gen-T after discovery: no Spark plan for a candidate, the source
canonicalised once at ``reclaim_from_candidates``, and the reclaimed table
held on the driver."""
import numpy as np
import pandas as pd
import pytest

from repro.core import discovery as disc
from repro.core import gent
from repro.core import integrate as integ
from repro.core import metrics as met
from repro.lake.repository import to_spark
from tests.conftest import assert_same_reclamation, reclaim_spark_free

KEY = ["ID"]
TAU = 0.3
TPTR_SOURCES = [f"q{i:02d}" for i in range(1, 27)]


class TestSparkFree:
    def test_fig3_whole_call_no_load_no_job(
        self, spark, fig3_repo, fig3_source, monkeypatch
    ):
        cands, res, scores, seen = reclaim_spark_free(
            spark, fig3_repo, fig3_source, KEY, monkeypatch, tau=TAU
        )
        assert any(c.pdf is not None for c in cands)
        assert isinstance(res.reclaimed, met.LocalTable)
        # Fig 3's keyless D is reclaimed through an Expand path
        assert any("+" in n for n in res.candidates), res.candidates
        assert scores["perfect"]
        assert seen == {"loads": [], "jobs": []}


def _reclaim_with_integrated(spark, repo, source, key_cols, tau, monkeypatch):
    """``reclaim_from_candidates`` and the frame ``integrate`` returned
    inside it (None when it was not reached or returned None)."""
    seen = {"out": None}
    real = integ.integrate

    def spy(*args, **kwargs):
        seen["out"] = real(*args, **kwargs)
        return seen["out"]

    cands = disc.set_similarity(spark, repo, source, key_cols, tau=tau)
    monkeypatch.setattr(integ, "integrate", spy)
    res = gent.reclaim_from_candidates(spark, repo, cands, source, key_cols)
    return res, seen["out"]


def _assert_same_as_to_spark(spark, res, out):
    """``LocalTable.toPandas()`` equals what ``to_spark(spark, out)
    .toPandas()`` returns: columns and rows in order, ``None`` for nulls."""
    if out is None:
        assert res.reclaimed is None
        return
    got = res.reclaimed.toPandas()
    want = to_spark(spark, out).toPandas()
    pd.testing.assert_frame_equal(got, want)  # columns, index and dtypes in order
    assert got.values.tolist() == want.values.tolist()  # NaN != None here
    assert all(v is None or isinstance(v, str) for v in got.values.ravel())


class TestLocalTable:
    """The driver-held reclaimed table against the Spark frame it replaced."""

    def test_fig3_same_as_to_spark(self, spark, fig3_repo, fig3_source, monkeypatch):
        res, out = _reclaim_with_integrated(
            spark, fig3_repo, fig3_source, KEY, TAU, monkeypatch
        )
        assert out is not None
        _assert_same_as_to_spark(spark, res, out)

    @pytest.mark.parametrize("name", TPTR_SOURCES)
    def test_tptr_small_same_as_to_spark(self, spark, tptr_small, name, monkeypatch):
        _root, bench = tptr_small
        s = next(s for s in bench.sources if s.name == name)
        res, out = _reclaim_with_integrated(
            spark, bench.repo, s.table, s.key_cols, 0.2, monkeypatch
        )
        _assert_same_as_to_spark(spark, res, out)

    def test_mutating_the_copy_changes_nothing(self, spark, fig3_repo, fig3_source):
        cands = disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=TAU)
        res = gent.reclaim_from_candidates(spark, fig3_repo, cands, fig3_source, KEY)
        first = res.reclaimed.toPandas()
        scores = met.evaluate(spark, res.reclaimed, fig3_source, KEY)
        kept = first.copy()
        first.iloc[:, :] = "x"
        first.drop(index=first.index[:1], inplace=True)
        first["Extra"] = "e"
        pd.testing.assert_frame_equal(res.reclaimed.toPandas(), kept)
        assert res.reclaimed.columns == list(fig3_source.columns)
        assert met.evaluate(spark, res.reclaimed, fig3_source, KEY) == scores


class TestBenchmarkProtocol:
    def test_fig3_passes_the_output_checks(self, spark, fig3_repo, fig3_source):
        """The benchmark's per-source protocol, as ``reclaimbench/run.py``
        runs it, on Fig 3: an interface change that would fail every
        benchmark source fails here first."""
        from reclaimbench import checks

        cands = disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=TAU)
        res = gent.reclaim_from_candidates(spark, fig3_repo, cands, fig3_source, KEY)
        pdf = res.reclaimed.toPandas() if res.reclaimed is not None else None
        scores = met.evaluate(spark, res.reclaimed, fig3_source, KEY)
        problems = checks.check_output(
            fig3_source, KEY, pdf, res.originating, set(fig3_repo.names()), scores
        )
        assert pdf is not None and res.originating
        assert problems == []
        assert scores["perfect"]


class TestTypedSource:
    def test_int_key_float_column_and_nan(self, spark, fig3_repo, fig3_source):
        typed = fig3_source.assign(
            ID=fig3_source["ID"].astype(int),
            Age=[27.0, 24.0, np.nan],
        )
        assert typed["ID"].dtype.kind == "i" and typed["Age"].dtype.kind == "f"
        assert_same_reclamation(spark, fig3_repo, typed, KEY, TAU)
