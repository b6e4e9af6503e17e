"""End-to-end Gen-T + baselines on a miniature TP-TR benchmark.

This is the integration surface behind Tables II/III: the lake holds only
corrupted variants (2 complementary-nullified + 2 erroneous per TPC-H
table) and the pipeline must pick the nullified ones and κ them back
together.
"""
import numpy as np
import pytest

from repro.bench import tptr
from repro.harness import runner
from tests.conftest import assert_same_reclamation, reclaim_spark_free


@pytest.fixture(scope="module")
def bench(spark, tmp_path_factory):
    root = tmp_path_factory.mktemp("tptr_e2e")
    return tptr.build_tptr(spark, root, sf=0.001, target_rows=20, seed=0)


def source(bench, qname):
    return next(x for x in bench.sources if x.name == qname)


def run(spark, bench, qname, methods):
    s = source(bench, qname)
    return runner.run_source(
        spark, bench.repo, s.name, s.table, s.key_cols, methods,
        int_set=bench.int_sets[s.name], budget_s=300,
    )


class TestGenTOnTptr:
    def test_simple_select_project_perfect(self, spark, bench):
        (cell,) = run(spark, bench, "q01", ["gen_t"])
        assert cell.perfect, (cell.recall, cell.precision)

    def test_composite_key_source(self, spark, bench):
        # q05 is keyed on (l_orderkey, l_linenumber)
        (cell,) = run(spark, bench, "q05", ["gen_t"])
        assert cell.recall >= 0.9
        assert cell.eis >= 0.9

    def test_join_source_reclaimed_via_expand(self, spark, bench):
        # q09 = orders ⋈ customer: customer variants lack the source key
        # and must be expanded through orders on the (unmapped) custkey
        (cell,) = run(spark, bench, "q09", ["gen_t"])
        assert cell.eis >= 0.8
        assert cell.recall >= 0.25

    def test_union_source(self, spark, bench):
        (cell,) = run(spark, bench, "q19", ["gen_t"])
        assert cell.recall >= 0.9

    def test_originating_prefers_nullified_variants(self, spark, bench):
        (cell,) = run(spark, bench, "q01", ["gen_t"])
        flat = "+".join(cell.originating)
        assert "null" in flat

    def test_gen_t_beats_alite_ps_on_precision(self, spark, bench):
        cells = run(spark, bench, "q02", ["gen_t", "alite_ps"])
        by = {c.method: c for c in cells}
        assert by["gen_t"].precision >= by["alite_ps"].precision
        assert by["gen_t"].eis >= by["alite_ps"].eis

    def test_int_set_restriction(self, spark, bench):
        cells = run(spark, bench, "q03", ["alite_ps_int"])
        assert len(cells) == 1
        assert cells[0].recall > 0.5


class TestAfterDiscovery:
    def test_expand_path_builds_no_spark_plan(self, spark, bench, monkeypatch):
        # q09's customer columns come from keyless candidates joined through
        # orders: the guard covers Expand, not only keyed candidates
        s = source(bench, "q09")
        cands, res, _scores, seen = reclaim_spark_free(
            spark, bench.repo, s.table, s.key_cols, monkeypatch, tau=0.2
        )
        assert all(c.pdf is not None for c in cands)
        assert any("+" in n for n in res.candidates), res.candidates
        assert res.reclaimed is not None
        assert seen == {"loads": [], "jobs": []}

    def test_typed_composite_key_source(self, spark, bench):
        # q05 is keyed on (l_orderkey, l_linenumber)
        s = source(bench, "q05")
        typed = s.table.assign(
            l_orderkey=s.table["l_orderkey"].astype(int),
            l_linenumber=s.table["l_linenumber"].astype(int),
            l_extendedprice=s.table["l_extendedprice"].astype(float),
        )
        typed.loc[0, "l_extendedprice"] = np.nan
        assert_same_reclamation(spark, bench.repo, typed, s.key_cols, 0.2)


class TestAblationVariants:
    """Fig-7-style knobs: benchmark regenerates at other corruption rates."""

    def test_high_error_rate_lake_builds(self, spark, tmp_path):
        b = tptr.build_tptr(
            spark, tmp_path / "hi_err", sf=0.001, target_rows=10, seed=1,
            pct_err=0.9,
        )
        assert len(b.repo.names()) == 32

    def test_low_null_rate_lake_builds(self, spark, tmp_path):
        b = tptr.build_tptr(
            spark, tmp_path / "lo_null", sf=0.001, target_rows=10, seed=1,
            pct_null=0.1,
        )
        assert len(b.repo.names()) == 32
