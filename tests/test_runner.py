"""Harness: run_source / aggregate / format_table on the Fig-3 lake."""
import math

import pandas as pd
import pytest

from repro.core import discovery as disc
from repro.harness import runner
from tests.conftest import jobs_started

KEY = ["ID"]


@pytest.fixture(scope="module")
def cells(spark, fig3_repo, fig3_source):
    return runner.run_source(
        spark, fig3_repo, "fig3", fig3_source, KEY,
        ["gen_t", "alite_ps"], tau=0.3, budget_s=300,
    )


class TestRunSource:
    def test_one_cell_per_method(self, cells):
        assert [c.method for c in cells] == ["gen_t", "alite_ps"]

    def test_gen_t_perfect_on_fig3(self, cells):
        g = next(c for c in cells if c.method == "gen_t")
        assert g.perfect
        assert g.recall == 1.0 and g.precision == 1.0
        assert g.originating

    def test_runtimes_recorded(self, cells):
        assert all(c.runtime_s > 0 for c in cells)

    def test_output_cells_counted(self, cells):
        g = next(c for c in cells if c.method == "gen_t")
        assert g.output_cells == g.source_cells  # perfect → same size

    def test_no_error_or_cap(self, cells):
        assert all(c.error is None and not c.capped for c in cells)

    def test_gen_t_cell_starts_only_discoverys_job(self, spark, fig3_repo, fig3_source):
        # discovery, Gen-T and the scoring of its driver-resident table start
        # none
        _, disc_jobs = jobs_started(
            spark, lambda: disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=0.3)
        )
        out, jobs = jobs_started(
            spark,
            lambda: runner.run_source(
                spark, fig3_repo, "fig3", fig3_source, KEY, ["gen_t"], tau=0.3
            ),
        )
        assert out[0].perfect
        assert disc_jobs == []
        assert jobs == []

    def test_raising_method_records_error(self, spark, fig3_repo, fig3_source, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "alite", boom)
        out = runner.run_source(
            spark, fig3_repo, "fig3", fig3_source, KEY, ["alite"], tau=0.3
        )
        (cell,) = out
        assert cell.error == "RuntimeError: boom"
        assert cell.empty and not cell.timeout
        assert (cell.recall, cell.precision, cell.eis, cell.inst_div) == (0.0, 0.0, 0.0, 1.0)
        assert cell.output_cells == 0
        assert runner.aggregate(out).set_index("method").loc["alite", "errors"] == 1

    def test_raising_gen_t_is_an_error(self, spark, fig3_repo, fig3_source, monkeypatch):
        # Gen-T is the system under test: a crash must not read as an empty
        # reclamation
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "reclaim_from_candidates", boom)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run_source(spark, fig3_repo, "fig3", fig3_source, KEY, ["gen_t"], tau=0.3)

    def test_int_methods_skipped_without_int_set(self, spark, fig3_repo, fig3_source):
        out = runner.run_source(
            spark, fig3_repo, "fig3", fig3_source, KEY, ["alite_int"], tau=0.3
        )
        assert out == []

    def test_unknown_method_scores_empty(self, spark, fig3_repo, fig3_source):
        out = runner.run_source(
            spark, fig3_repo, "fig3", fig3_source, KEY, ["nonsense"], tau=0.3
        )
        assert len(out) == 1 and out[0].recall == 0.0
        assert out[0].error == "ValueError: unknown method 'nonsense'"

    def test_exclude_self(self, spark, fig3_repo, fig3_source):
        # excluding every relevant table leaves nothing to reclaim from
        out = runner.run_source(
            spark, fig3_repo, "fig3", fig3_source, KEY, ["gen_t"],
            tau=0.3, exclude=["A", "B", "C", "D", "E"],
        )
        assert out[0].recall == 0.0


class TestAggregate:
    def test_shape(self, cells):
        agg = runner.aggregate(cells)
        assert set(agg["method"]) == {"gen_t", "alite_ps"}
        assert (agg["sources"] == 1).all()
        assert (agg["errors"] == 0).all()

    def test_perfect_count(self, cells):
        agg = runner.aggregate(cells).set_index("method")
        assert agg.loc["gen_t", "perfect"] == 1

    def test_timeout_excluded_from_quality(self):
        a = runner.CellResult(method="m", source="s1", recall=1.0, timeout=False)
        b = runner.CellResult(method="m", source="s2", recall=0.0, timeout=True)
        agg = runner.aggregate([a, b]).set_index("method")
        assert agg.loc["m", "recall"] == 1.0
        assert agg.loc["m", "timeouts"] == 1

    def test_all_timeout_gives_nan(self):
        b = runner.CellResult(method="m", source="s", timeout=True)
        agg = runner.aggregate([b]).set_index("method")
        assert math.isnan(agg.loc["m", "recall"])

    def test_format_table_renders(self, cells):
        out = runner.format_table(runner.aggregate(cells), "T")
        assert "gen_t" in out and "Rec" in out
