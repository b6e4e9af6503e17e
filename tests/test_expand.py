"""Expand (Alg 5): keyless candidates joined through the join graph."""
import pytest

from repro.core import discovery as disc
from repro.core import expand as exp

KEY = ["ID"]
TAU = 0.3


@pytest.fixture(scope="module")
def cands(spark, fig3_repo, fig3_source):
    return disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=TAU)


@pytest.fixture(scope="module")
def expanded(spark, fig3_repo, cands):
    return exp.expand(spark, fig3_repo, cands, KEY)


class TestExpand:
    def test_every_result_has_key(self, expanded):
        for c in expanded:
            assert "ID" in c.mapping
            assert "ID" in c.df.columns

    def test_keyless_candidate_expanded_via_a(self, cands, expanded):
        keyless = [c.name for c in cands if "ID" not in c.mapping]
        assert keyless, "fixture should contain keyless candidates (C, D/E)"
        names = {c.name for c in expanded}
        # each keyless candidate should reappear joined through A
        for k in keyless:
            assert any(n.startswith(f"{k}+") or f"+{k}" in n for n in names), (
                k,
                names,
            )

    def test_expanded_rows_aligned(self, spark, expanded, fig3_source):
        # the expanded D (or E) now joins Wang's tuple to ID 2
        dlike = next(c for c in expanded if c.name.startswith(("D+", "E+")))
        rows = {
            (r["ID"], r["Gender"])
            for r in dlike.df.select("ID", "Gender").collect()
        }
        assert ("2", "Female") in rows

    def test_provenance_tracks_path(self, expanded):
        dlike = next(c for c in expanded if "+" in c.name)
        assert len(dlike.provenance) >= 2

    def test_no_keyed_candidates_passthrough(self, spark, fig3_repo, cands):
        with_key = [c for c in cands if "ID" in c.mapping]
        out = exp.expand(spark, fig3_repo, with_key, KEY)
        assert {c.name for c in out} == {c.name for c in with_key}

    def test_unreachable_candidate_dropped(self, spark, fig3_repo, cands):
        # a keyless candidate with no join edge to a keyed one disappears
        keyless = [c for c in cands if "ID" not in c.mapping]
        out = exp.expand(spark, fig3_repo, keyless, KEY)
        assert out == []


class TestBestPaths:
    def test_direct(self):
        adj = {"a": [("b", 1.0)], "b": [("a", 1.0)]}
        assert exp._best_paths("a", {"b"}, adj, top_p=1) == [["a", "b"]]

    def test_prefers_heavier_path(self):
        adj = {
            "a": [("b", 0.1), ("c", 1.0)],
            "b": [("a", 0.1), ("end", 1.0)],
            "c": [("a", 1.0), ("end", 1.0)],
            "end": [("b", 1.0), ("c", 1.0)],
        }
        assert exp._best_paths("a", {"end"}, adj, top_p=1) == [["a", "c", "end"]]

    def test_short_strong_beats_long_chain(self):
        # a direct 1.0 edge must beat a chain of 1.0 edges (mean + penalty)
        adj = {
            "a": [("end", 1.0), ("b", 1.0)],
            "b": [("a", 1.0), ("c", 1.0)],
            "c": [("b", 1.0), ("end", 1.0)],
            "end": [("a", 1.0), ("c", 1.0)],
        }
        assert exp._best_paths("a", {"end"}, adj, top_p=1) == [["a", "end"]]

    def test_multiple_end_options(self):
        adj = {
            "a": [("e1", 0.9), ("e2", 0.8)],
            "e1": [("a", 0.9)],
            "e2": [("a", 0.8)],
        }
        paths = exp._best_paths("a", {"e1", "e2"}, adj, top_p=2)
        assert [p[-1] for p in paths] == ["e1", "e2"]

    def test_no_path(self):
        assert exp._best_paths("a", {"z"}, {"a": []}, top_p=2) == []


class TestJoinNulls:
    """An Expand path's pandas cache feeds integration, so it must join as
    SQL does: a null join value matches nothing."""

    def test_null_join_values_do_not_pair(self, spark):
        import pandas as pd

        from repro.core import matrix as mtx
        from repro.lake.repository import to_spark

        source = pd.DataFrame(
            {"ID": ["0", "1", "2"], "Name": ["Smith", "Brown", "Wang"],
             "Gender": ["Male", "Female", "Female"]}
        )
        keyless = pd.DataFrame(
            {"Name": [None, None, "Wang"], "Gender": ["Male", "Female", "Female"]}
        )
        keyed = pd.DataFrame({"ID": ["0", "1", "2"], "Name": [None, None, "Wang"]})

        def cand(name, pdf, mapping):
            return disc.Candidate(
                name=name, df=to_spark(spark, pdf), mapping=mapping,
                col_overlaps={c: 1.0 for c in mapping}, pdf=pdf,
            )

        c = cand("C", keyless, {"Name": "c0", "Gender": "c1"})
        a = cand("A", keyed, {"ID": "c0", "Name": "c1"})
        edges = {("C", "A"): ("Name", "Name", 1.0), ("A", "C"): ("Name", "Name", 1.0)}
        path = exp._materialise_path(c, ["C", "A"], {"C": c, "A": a}, edges, KEY)
        assert path is not None and path.pdf is not None
        via_cache = mtx.key_slice(spark, path, source, KEY)
        via_spark = mtx.key_slice(spark, path.df, source, KEY)
        assert via_cache.values.tolist() == [["2", "Wang", "Female"]]
        assert sorted(via_cache.values.tolist()) == sorted(via_spark.values.tolist())
