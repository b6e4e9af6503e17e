"""Table Integration (Alg 2): labelling, minimal forms, the full loop."""
from types import SimpleNamespace

import pandas as pd
import pytest

from repro.core import integrate as integ
from repro.core import matrix as mtx
from repro.core import metrics_core as mc

KEY = ["ID"]


class TestLabelSourceNulls:
    def test_nulls_become_labels(self, fig3_source):
        lab = integ.label_source_nulls(fig3_source, KEY)
        v = lab.loc[0, "Gender"]
        assert isinstance(v, str) and v.startswith(integ.LABEL_PREFIX)
        # non-null values untouched
        assert lab.loc[1, "Gender"] == "Male"

    def test_labels_unique_per_position(self):
        src = pd.DataFrame({"ID": ["0", "1"], "a": [None, None], "b": [None, "x"]})
        lab = integ.label_source_nulls(src, KEY)
        labels = {lab.loc[0, "a"], lab.loc[1, "a"], lab.loc[0, "b"]}
        assert len(labels) == 3

    def test_key_never_labeled(self):
        src = pd.DataFrame({"ID": ["0"], "a": [None]})
        lab = integ.label_source_nulls(src, KEY)
        assert lab.loc[0, "ID"] == "0"


class TestApplyRemoveLabels:
    def test_roundtrip(self, fig3_source, fig3_tables):
        lab = integ.label_source_nulls(fig3_source, KEY)
        labels = integ._null_labels(fig3_source, lab, KEY)
        # give A a Gender column with a null where S is null (Smith)
        a = fig3_tables["A"].assign(Gender=None)
        labeled = integ._apply_labels(a, labels, KEY)
        smith = labeled[labeled["ID"] == "0"].iloc[0]
        assert smith["Gender"].startswith(integ.LABEL_PREFIX)
        # Brown's Gender is non-null in S, so his table-null stays null
        brown = labeled[labeled["ID"] == "1"].iloc[0]
        assert brown["Gender"] is None
        # and removal restores nulls
        restored = integ._revert_labels(labeled, labels, KEY)
        assert restored[restored["ID"] == "0"].iloc[0]["Gender"] is None

    def test_only_produced_labels_revert(self):
        src = pd.DataFrame({"ID": ["0", "1"], "a": [None, "##NULL##x"]})
        lab = integ.label_source_nulls(src, KEY)
        labels = integ._null_labels(src, lab, KEY)
        restored = integ._revert_labels(lab, labels, KEY)
        assert restored["a"].tolist() == [None, "##NULL##x"]


def _keyed_d(fig3_tables):
    ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
    d = fig3_tables["D"].copy()
    d.insert(0, "ID", d["Name"].map(ids))
    return d


class TestIntegrate:
    def test_perfect_reclamation_from_complementary_tables(self, fig3_source, fig3_tables):
        tables = [fig3_tables["A"], _keyed_d(fig3_tables)]
        out = integ.integrate(tables, fig3_source, KEY)
        assert mc.is_perfect(fig3_source, out)

    def test_erroneous_table_does_not_corrupt_source_tuples(self, fig3_source, fig3_tables):
        ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
        c = fig3_tables["C"].copy()  # all-Male Gender, partly wrong
        c.insert(0, "ID", c["Name"].map(ids))
        tables = [fig3_tables["A"], _keyed_d(fig3_tables), c]
        out = integ.integrate(tables, fig3_source, KEY)
        rec, pre = mc.recall_precision(fig3_source, out)
        # every source tuple is still reclaimed; C's contradictions may add
        # extra tuples but must not overwrite correct ones
        assert rec == 1.0
        assert mc.eis(fig3_source, out, KEY) >= 0.9

    def test_missing_column_padded(self, fig3_source, fig3_tables):
        out = integ.integrate([fig3_tables["A"]], fig3_source, KEY)
        assert list(out.columns) == list(fig3_source.columns)
        assert out["Age"].isna().all()

    def test_select_drops_foreign_keys(self, fig3_source, fig3_tables):
        # integrate takes key slices: ProjectSelect cuts the foreign key
        # while the slice is made, before integration
        a = fig3_tables["A"].copy()
        a.loc[len(a)] = ["99", "Stranger", "PhD"]
        sl = mtx.key_slice(None, SimpleNamespace(pdf=a), fig3_source, KEY)
        assert "99" not in set(sl["ID"])
        out = integ.integrate([sl], fig3_source, KEY)
        assert "99" not in set(out["ID"])

    def test_empty_input(self, fig3_source):
        assert integ.integrate([], fig3_source, KEY) is None

    def test_table_without_key_skipped(self, fig3_source, fig3_tables):
        assert integ.integrate([fig3_tables["B"]], fig3_source, KEY) is None

    def test_no_labeled_values_leak(self, fig3_source, fig3_tables):
        out = integ.integrate(
            [fig3_tables["A"], _keyed_d(fig3_tables)], fig3_source, KEY
        )
        for c in out.columns:
            assert not out[c].astype(str).str.startswith(integ.LABEL_PREFIX).any()

    def test_label_lookalike_lake_value_survives(self):
        # a genuine value that starts with the label prefix is data, not a
        # label: integration must return it unchanged
        src = pd.DataFrame({"ID": ["0", "1"], "a": ["##NULL##x", None], "b": ["p", "q"]})
        t1 = pd.DataFrame({"ID": ["0", "1"], "a": ["##NULL##x", None]})
        t2 = pd.DataFrame({"ID": ["0", "1"], "b": ["p", "q"]})
        out = integ.integrate([t1, t2], src, KEY)
        assert mc.is_perfect(src, out)
        assert out.loc[out["ID"] == "0", "a"].tolist() == ["##NULL##x"]

    def test_runs_no_spark_job(self, spark, fig3_source, fig3_tables):
        # integration works on |S|-bounded slices on the driver; any Spark
        # work creeping back in shows up as a job in this group
        sc = spark.sparkContext
        group = "integrate-no-spark"
        sc.setJobGroup(group, "integrate must not start Spark jobs")
        try:
            ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
            c = fig3_tables["C"].copy()
            c.insert(0, "ID", c["Name"].map(ids))
            out = integ.integrate(
                [fig3_tables["A"], _keyed_d(fig3_tables), c], fig3_source, KEY
            )
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)  # job events are async
        assert len(out) >= len(fig3_source)
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


class TestGenTEndToEnd:
    def test_fig3_full_pipeline(self, spark, fig3_repo, fig3_source):
        from repro.core.gent import reclaim

        res = reclaim(spark, fig3_repo, fig3_source, KEY, tau=0.3)
        assert res.reclaimed is not None
        out = res.reclaimed.toPandas()
        rec, pre = mc.recall_precision(fig3_source, out)
        assert rec == 1.0
        assert pre == 1.0
        # Table C's misleading Gender column must have been pruned
        assert not any(n.startswith("C") for n in res.originating)

    def test_timings_recorded(self, spark, fig3_repo, fig3_source):
        from repro.core.gent import reclaim

        res = reclaim(spark, fig3_repo, fig3_source, KEY, tau=0.3, coarse_k=5)
        assert {"set_similarity", "total"} <= set(res.timings)
        assert res.timings["total"] > 0
