"""Distractor generators and the T2D-like web-table corpus."""
import pandas as pd
import pytest

from repro.bench import noise, webtables


class TestSantosNoise:
    def test_count_and_shapes(self):
        t = noise.santos_noise(5, seed=1, min_rows=10, max_rows=20)
        assert len(t) == 5
        for pdf in t.values():
            assert 10 <= len(pdf) <= 20
            assert 3 <= len(pdf.columns) <= 8

    def test_deterministic(self):
        a = noise.santos_noise(3, seed=2, min_rows=5, max_rows=9)
        b = noise.santos_noise(3, seed=2, min_rows=5, max_rows=9)
        for k in a:
            pd.testing.assert_frame_equal(a[k], b[k])

    def test_collides_with_tpch_domains(self):
        # the point of these distractors: values that look like TPC-H's
        t = noise.santos_noise(20, seed=3, min_rows=50, max_rows=60)
        all_vals = {v for pdf in t.values() for c in pdf.columns for v in pdf[c]}
        assert any(v.startswith("199") and "-" in v for v in all_vals)  # dates
        assert "BUILDING" in all_vals or "MACHINERY" in all_vals


class TestWdcNoise:
    def test_small_tables(self):
        t = noise.wdc_noise(10, seed=1)
        assert len(t) == 10
        for pdf in t.values():
            assert 4 <= len(pdf) <= 25


class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return webtables.corpus_tables(seed=0)

    def test_counts(self, corpus):
        tables, key_of, dups = corpus
        # 8 domains × 8 derived + 6 duplicates
        assert len(tables) == 8 * 8 + 6
        assert len(dups) == 12  # 6 symmetric pairs

    def test_keys_unique(self, corpus):
        tables, key_of, _ = corpus
        for name, pdf in tables.items():
            assert pdf[key_of[name]].is_unique, name

    def test_partitions_cover_base(self, corpus):
        tables, key_of, _ = corpus
        base = tables["countries__base"]
        parts = pd.concat(
            [tables[f"countries__part{i}"] for i in range(3)], ignore_index=True
        )
        assert set(parts["country"]) == set(base["country"])
        assert len(parts) == len(base)

    def test_duplicates_identical(self, corpus):
        tables, _, dups = corpus
        seen = set()
        for a, b in dups.items():
            if (b, a) in seen:
                continue
            seen.add((a, b))
            pd.testing.assert_frame_equal(
                tables[a].reset_index(drop=True), tables[b].reset_index(drop=True)
            )

    def test_projections_partition_columns(self, corpus):
        tables, key_of, _ = corpus
        base = tables["films__base"]
        p0, p1 = tables["films__proj0"], tables["films__proj1"]
        assert set(p0.columns) | set(p1.columns) == set(base.columns)
        assert set(p0.columns) & set(p1.columns) == {"film"}


def _cell_types(tables):
    return {type(v) for pdf in tables.values() for c in pdf.columns for v in pdf[c]}


class TestPlainStrCells:
    """Every generated cell is a plain ``str``: an ``np.str_`` cell sends
    ``RepositoryBuilder.add`` down its per-cell formatting path."""

    def test_santos_noise(self):
        assert _cell_types(noise.santos_noise(40, seed=0, min_rows=5, max_rows=9)) == {str}

    def test_wdc_noise(self):
        assert _cell_types(noise.wdc_noise(40, seed=0)) == {str}

    def test_corpus(self):
        assert _cell_types(webtables.corpus_tables(seed=0)[0]) == {str}


class TestBuildWebtables:
    def test_lake_roundtrip(self, tmp_path):
        bench = webtables.build_webtables(tmp_path / "web", seed=0)
        assert len(bench.repo.names()) == 70
        m = bench.repo.meta("countries__base")
        assert m["key"] == "country"
        assert m["columns"][0] == "country"
        # anonymized in the lake
        assert bench.repo.columns("countries__base")[0] == "c0"

    def test_extra_noise_embedded(self, tmp_path):
        extra = noise.wdc_noise(5, seed=9)
        bench = webtables.build_webtables(tmp_path / "web2", seed=0, extra_tables=extra)
        assert len(bench.repo.names()) == 75
