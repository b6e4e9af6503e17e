"""Baselines on the Fig-3 lake: ALITE(-PS), Auto-Pipeline*, Ver."""
import time

import pandas as pd
import pytest

from repro.baselines.alite import alite, full_disjunction
from repro.baselines.autopipeline import auto_pipeline
from repro.baselines.ver import ver
from repro.core import discovery as disc
from repro.core import metrics_core as mc
from repro.core import operators as ops
from repro.lake.repository import to_spark

KEY = ["ID"]
TAU = 0.3
BUDGET_S = 5.0  # above a warm pass's start, far below the slowed pass
BUDGET_SLACK_S = 8.0  # a cancelled job's teardown on a loaded host


@pytest.fixture(scope="module")
def cands(spark, fig3_repo, fig3_source):
    return disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=TAU)


@pytest.fixture(scope="module")
def cands_with_c(spark, fig3_repo, cands):
    """Discovery itself prunes Table C (its value sets are subsumed by D's),
    so to exercise ALITE's not-target-driven failure mode we re-inject C —
    the input the paper's Example 3 assumes ALITE receives."""
    from pyspark.sql import functions as F

    c_df = fig3_repo.load(spark, "C").select(
        F.col("c0").alias("Name"), F.col("c1").alias("Gender")
    )
    c_cand = disc.Candidate(
        name="C",
        load=lambda: c_df,
        mapping={"Name": "c0", "Gender": "c1"},
        col_overlaps={"Name": 1.0, "Gender": 0.5},
        pdf=c_df.toPandas(),
    )
    return list(cands) + [c_cand]


class TestFullDisjunction:
    def test_complementary_rows_fuse(self, spark):
        t = to_spark(
            spark,
            pd.DataFrame(
                {"k": ["1", "1"], "a": ["x", None], "b": [None, "y"]}
            ),
        )
        out = full_disjunction(t, block_cols=["k", "a", "b"])
        got = {tuple(r) for r in out.select("k", "a", "b").collect()}
        assert got == {("1", "x", "y")}

    def test_fuses_through_non_key_block(self, spark):
        # rows share no key but share a Name value: second blocking pass
        # must merge them (the reason ALITE blocks on every column)
        t = to_spark(
            spark,
            pd.DataFrame(
                {
                    "ID": ["0", None],
                    "Name": ["Smith", "Smith"],
                    "Age": [None, "27"],
                }
            ),
        )
        out = full_disjunction(t, block_cols=["ID", "Name", "Age"])
        got = {tuple(r) for r in out.select("ID", "Name", "Age").collect()}
        assert got == {("0", "Smith", "27")}

    def test_timeout_returns_none(self, spark):
        t = to_spark(spark, pd.DataFrame({"k": ["1"], "a": ["x"]}))
        assert full_disjunction(t, block_cols=["k", "a"], deadline=0.0) is None

    def test_deadline_stops_a_running_pass(self, spark, monkeypatch):
        t = to_spark(spark, pd.DataFrame({"k": ["1", "1"], "a": ["x", None]}))
        out = full_disjunction(t, block_cols=["k", "a"], deadline=time.monotonic() + 300)
        assert {tuple(r) for r in out.select("k", "a").collect()} == {("1", "x")}

        # now the first pass's one block takes a minute, far above the
        # budget: the pass must be cancelled at the deadline
        closure = ops.complement_closure_pdf

        def slow_closure(pdf):
            import time as _time

            _time.sleep(60)
            return closure(pdf)

        monkeypatch.setattr(ops, "complement_closure_pdf", slow_closure)
        sc = spark.sparkContext
        t0 = time.monotonic()
        out = full_disjunction(t, block_cols=["k", "a"], deadline=t0 + BUDGET_S)
        elapsed = time.monotonic() - t0
        assert out is None
        assert elapsed < BUDGET_S + BUDGET_SLACK_S
        sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)  # job events are async
        assert list(sc.statusTracker().getActiveJobsIds()) == []
        assert list(sc.getJobTags()) == []
        assert sc.getLocalProperty("spark.job.interruptOnCancel") is None


class TestAlite:
    def test_alite_reclaims_most_but_imprecise(self, spark, cands_with_c, fig3_source):
        out = alite(spark, cands_with_c, fig3_source, KEY)
        assert out is not None
        pdf = out.toPandas()
        rec, pre = mc.recall_precision(fig3_source, pdf)
        # FD fuses A+D info (recall of at least Brown's tuple) but C's
        # erroneous genders keep precision below 1
        assert rec >= 1 / 3
        assert pre < 1.0

    def test_alite_ps_more_precise(self, spark, cands, fig3_source):
        plain = alite(spark, cands, fig3_source, KEY).toPandas()
        ps = alite(spark, cands, fig3_source, KEY, project_select=True).toPandas()
        _, pre_plain = mc.recall_precision(fig3_source, plain)
        _, pre_ps = mc.recall_precision(fig3_source, ps)
        assert pre_ps >= pre_plain

    def test_alite_not_target_driven(self, spark, cands_with_c, fig3_source):
        # given the misleading Table C, ALITE integrates it blindly and
        # pays in EIS, while Gen-T's traversal drops C (Example 3)
        a = alite(spark, cands_with_c, fig3_source, KEY).toPandas()
        assert mc.eis(fig3_source, a, KEY) < 1.0

    def test_schema_padded(self, spark, cands, fig3_source):
        out = alite(spark, cands, fig3_source, KEY)
        assert out.columns == list(fig3_source.columns)

    def test_budget_timeout(self, spark, cands, fig3_source):
        assert alite(spark, cands, fig3_source, KEY, budget_s=0.0) is None

    def test_empty_candidates(self, spark, fig3_source):
        assert alite(spark, [], fig3_source, KEY) is None


class TestAutoPipeline:
    def test_produces_reasonable_table(self, spark, cands, fig3_source):
        out = auto_pipeline(spark, cands, fig3_source, KEY)
        assert out is not None
        pdf = out.toPandas()
        rec, _pre = mc.recall_precision(fig3_source, pdf)
        assert mc.eis(fig3_source, pdf, KEY) >= 0.5
        assert out.columns == list(fig3_source.columns)

    def test_timeout_handled(self, spark, cands, fig3_source):
        out = auto_pipeline(spark, cands, fig3_source, KEY, budget_s=0.0)
        assert out is None

    def test_empty_candidates(self, spark, fig3_source):
        assert auto_pipeline(spark, [], fig3_source, KEY) is None


class TestVer:
    def test_output_contains_source_keys_plus_extras(
        self, spark, fig3_repo, fig3_source
    ):
        out = ver(spark, fig3_repo, fig3_source, KEY, tau=TAU)
        assert out is not None
        pdf = out.toPandas()
        # views keep their full extents: every source key appears
        assert set(fig3_source["ID"]) <= set(pdf["ID"].dropna())

    def test_restrict_to_int_set(self, spark, fig3_repo, fig3_source):
        out = ver(spark, fig3_repo, fig3_source, KEY, tau=TAU, restrict_to=["A"])
        assert out is not None
        pdf = out.toPandas()
        assert "Bachelors" in set(pdf["Education Level"].dropna())

    def test_timeout(self, spark, fig3_repo, fig3_source):
        assert ver(spark, fig3_repo, fig3_source, KEY, tau=TAU, budget_s=0.0) is None
