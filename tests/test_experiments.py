"""Lake caches under ``data/``: a stale or incomplete cache is rebuilt."""
import json
import shutil

import pandas as pd
import pytest

from repro.bench import tptr
from repro.harness import experiments
from repro.lake.repository import RepositoryBuilder
from tests.conftest import jobs_started, stale_layout

PARAMS = {"seed": 0, "n_noise": 0}


@pytest.fixture()
def lake(tmp_path):
    b = RepositoryBuilder(tmp_path / "lake")
    b.add("t1", pd.DataFrame({"k": [1, 2], "v": ["x", None]}))
    b.add("t2", pd.DataFrame({"a": ["y"]}))
    b.finish()
    (tmp_path / "lake" / "params.json").write_text(json.dumps(PARAMS))
    return tmp_path / "lake"


class TestCached:
    def test_complete_lake(self, lake):
        assert experiments._cached(lake, PARAMS)

    def test_other_params(self, lake):
        assert not experiments._cached(lake, {**PARAMS, "seed": 1})

    def test_manifest_and_params_only(self, lake):
        # a stale layout: no tables, no cells, no extents
        assert not experiments._cached(stale_layout(lake, PARAMS), PARAMS)

    def test_missing_table_file(self, lake):
        (lake / "tables" / "t2.parquet").unlink()
        assert not experiments._cached(lake, PARAMS)

    def test_empty_cells(self, lake):
        for f in (lake / "cells").glob("*.parquet"):
            f.unlink()
        assert not experiments._cached(lake, PARAMS)

    def test_manifest_without_extents(self, lake):
        manifest = json.loads((lake / "manifest.json").read_text())
        del manifest["t1"]["extents"]
        (lake / "manifest.json").write_text(json.dumps(manifest))
        assert not experiments._cached(lake, PARAMS)


def test_stale_cache_is_rebuilt(monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "DATA_ROOT", tmp_path)
    params = {"seed": 0, "n_noise": experiments.WEB_SCALES["t2d"]["n_noise"]}
    first = experiments.get_webbench("t2d")
    stale_layout(first.repo.root, params)

    bench = experiments.get_webbench("t2d")
    assert experiments._cached(tmp_path / "t2d", params)
    name = bench.repo.names()[0]
    assert len(bench.repo.load_pdf(name)) == bench.repo.rows(name)


class TestTptrSources:
    """A TP-TR lake keeps its sources: a cache hit reads them back."""

    @staticmethod
    def assert_same_sources(got, want):
        assert [s.name for s in got] == [s.name for s in want]
        for a, b in zip(got, want):
            assert (a.key_cols, a.base_tables, a.n_ops) == (b.key_cols, b.base_tables, b.n_ops)
            pd.testing.assert_frame_equal(a.table, b.table)

    def test_hit_reads_sources_without_a_spark_job(self, spark, tptr_small, monkeypatch):
        root, built = tptr_small
        monkeypatch.setattr(experiments, "DATA_ROOT", root)
        hit, jobs = jobs_started(spark, lambda: experiments.get_tptr(spark, "tptr_small"))
        assert jobs == []
        cfg = experiments.TPTR_SCALES["tptr_small"]
        rebuilt = tptr.build_sources(
            tptr.original_tables(spark, cfg["sf"], seed=0), target_rows=cfg["target_rows"]
        )
        assert len(rebuilt) == 26
        self.assert_same_sources(hit.sources, rebuilt)
        self.assert_same_sources(built.sources, rebuilt)
        assert hit.int_sets == built.int_sets

    def test_lake_without_sources_is_rebuilt(self, spark, tptr_small, tmp_path, monkeypatch):
        root, built = tptr_small
        shutil.copytree(root / "tptr_small", tmp_path / "tptr_small")
        shutil.rmtree(tmp_path / "tptr_small" / "sources")
        monkeypatch.setattr(experiments, "DATA_ROOT", tmp_path)
        params = json.loads((tmp_path / "tptr_small" / "params.json").read_text())
        assert experiments._cached(tmp_path / "tptr_small", params)

        bench, jobs = jobs_started(spark, lambda: experiments.get_tptr(spark, "tptr_small"))
        assert jobs  # regenerated through Spark
        assert (tmp_path / "tptr_small" / "sources" / "specs.json").exists()
        self.assert_same_sources(bench.sources, built.sources)
