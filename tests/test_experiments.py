"""Lake caches under ``data/``: a stale or incomplete cache is rebuilt."""
import json

import pandas as pd
import pytest

from repro.harness import experiments
from repro.lake.repository import RepositoryBuilder
from tests.conftest import stale_layout

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
