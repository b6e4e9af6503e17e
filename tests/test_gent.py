"""Gen-T after discovery: no Spark plan for a candidate, and the
source canonicalised once at ``reclaim_from_candidates``."""
import numpy as np

from tests.conftest import assert_same_reclamation, reclaim_spark_free

KEY = ["ID"]
TAU = 0.3


class TestSparkFree:
    def test_fig3_no_load_no_job_until_to_spark(
        self, spark, fig3_repo, fig3_source, monkeypatch
    ):
        cands, res, seen = reclaim_spark_free(
            spark, fig3_repo, fig3_source, KEY, monkeypatch, tau=TAU
        )
        assert any(c.pdf is not None for c in cands)
        assert res.reclaimed is not None
        # Fig 3's keyless D is reclaimed through an Expand path
        assert any("+" in n for n in res.candidates), res.candidates
        assert seen == {"loads": [], "jobs": []}


class TestTypedSource:
    def test_int_key_float_column_and_nan(self, spark, fig3_repo, fig3_source):
        typed = fig3_source.assign(
            ID=fig3_source["ID"].astype(int),
            Age=[27.0, 24.0, np.nan],
        )
        assert typed["ID"].dtype.kind == "i" and typed["Age"].dtype.kind == "f"
        assert_same_reclamation(spark, fig3_repo, typed, KEY, TAU)
