"""Expand (Alg 5): keyless candidates joined through the join graph."""
import numpy as np
import pandas as pd
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


class TestUncachedPath:
    """A path through a table over ``PANDAS_CAP`` (no discovery cache) joins
    the same frame as a cached run: Expand loads the table itself."""

    @pytest.fixture(scope="class")
    def lake(self, tmp_path_factory, fig3_tables):
        from repro.lake.repository import RepositoryBuilder

        b = RepositoryBuilder(tmp_path_factory.mktemp("uncached_lake"))
        tables = dict(fig3_tables)
        # A, the key-bearing end of every path, is the one table over the cap
        a = fig3_tables["A"]
        tables["A"] = pd.concat(
            [a, pd.DataFrame([["9", "Stranger", "PhD"]], columns=a.columns)],
            ignore_index=True,
        )
        for name, pdf in tables.items():
            anon = pdf.copy()
            anon.columns = [f"c{i}" for i in range(len(pdf.columns))]
            b.add(name, anon)
        return b.finish()

    def _run(self, spark, lake, source):
        from repro.core import matrix as mtx
        from repro.lake.repository import canon_str

        src = canon_str(source)
        cands = disc.set_similarity(spark, lake, source, KEY, tau=TAU)
        out = exp.expand(spark, lake, cands, KEY, source=src)

        def rows(pdf):
            return sorted(pdf.values.tolist(), key=repr)

        return cands, {
            c.name: (rows(mtx.key_slice(spark, c, src, KEY)), rows(c.df.toPandas()))
            for c in out
        }

    def test_same_paths_slices_and_rows(self, spark, lake, fig3_source, monkeypatch):
        cached_cands, cached = self._run(spark, lake, fig3_source)
        monkeypatch.setattr(disc, "PANDAS_CAP", 3)
        cands, uncached = self._run(spark, lake, fig3_source)
        assert [c.name for c in cands] == [c.name for c in cached_cands]
        assert [c.name for c in cands if c.pdf is None] == ["A"]
        assert any(n.endswith("+A") for n in uncached), uncached
        assert list(uncached) == list(cached)
        assert uncached == cached


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
    """An Expand path is the SQL equi-join of its tables' frames: a null
    join value matches nothing, and a column both sides hold is coalesced,
    left first."""

    def test_null_join_values_do_not_pair(self, spark):
        from repro import oracle
        from repro.core import matrix as mtx

        source = pd.DataFrame(
            {"ID": ["0", "1", "2", "3"], "Name": ["Smith", "Brown", "Wang", "Li"],
             "Gender": ["Male", "Female", "Female", "Male"]}
        )
        keyless = pd.DataFrame(
            {"Name": [None, None, "Wang", "Li"], "Gender": ["Male", "Female", "Female", None]}
        )
        keyed = pd.DataFrame(
            {"ID": ["0", "1", "2", "3", "4"], "Name": [None, None, "Wang", "Li", "Li"],
             "Gender": [None, None, "Male", "Male", "Female"]}
        )

        def cand(name, pdf, mapping):
            return disc.Candidate(
                name=name, load=None, mapping=mapping,
                col_overlaps={c: 1.0 for c in mapping}, pdf=pdf,
            )

        c = cand("C", keyless, {"Name": "c0", "Gender": "c1"})
        a = cand("A", keyed, {"ID": "c0", "Name": "c1", "Gender": "c2"})
        frames = {"C": keyless, "A": keyed}
        edges = {("C", "A"): ("Name", "Name", 1.0), ("A", "C"): ("Name", "Name", 1.0)}
        path = exp._materialise_path(
            spark, c, ["C", "A"], {"C": c, "A": a}, frames, edges, KEY
        )
        assert path is not None
        oracle.assert_equivalent(
            path.df,
            'SELECT a."ID" AS "ID", coalesce(c."Name", a."Name") AS "Name", '
            'coalesce(c."Gender", a."Gender") AS "Gender" '
            'FROM c JOIN a ON c."Name" = a."Name"',
            c=keyless,
            a=keyed,
        )
        # ID 4 is not a source key; "Li" fans out to IDs 3 and 4
        assert sorted(mtx.key_slice(spark, path, source, KEY).values.tolist()) == [
            ["2", "Wang", "Female"], ["3", "Li", "Male"]
        ]


def _join_reference(lp, rp, ca, cb):
    """The ``merge``-then-coalesce form ``_join_pdfs`` replaced."""
    shared = [c for c in lp.columns if c in set(rp.columns)]
    merged = lp[lp[ca].notna()].merge(
        rp[rp[cb].notna()], left_on=ca, right_on=cb, how="inner", suffixes=("", "\x00r")
    )
    for c in shared:
        rc = f"{c}\x00r"
        if rc in merged.columns:
            merged[c] = merged[c].combine_first(merged[rc])
            merged = merged.drop(columns=[rc])
    return merged


class TestJoinPdfs:
    """``_join_pdfs`` equals ``merge`` with coalesced shared columns: the
    same columns, dtypes, rows and row order."""

    @staticmethod
    def _frame(rng, cols):
        n = int(rng.integers(0, 12))
        pool = np.array([None, "a", "b", "c", "d"], dtype=object)
        return pd.DataFrame({c: pool[rng.integers(len(pool), size=n)] for c in cols})

    @pytest.mark.parametrize("seed", range(40))
    def test_equal_to_merge(self, seed):
        rng = np.random.default_rng(seed)
        names = np.array(["k", "x", "y", "z", "w"])
        lcols = list(rng.choice(names, size=int(rng.integers(1, 5)), replace=False))
        rcols = list(rng.choice(names, size=int(rng.integers(1, 5)), replace=False))
        lp, rp = self._frame(rng, lcols), self._frame(rng, rcols)
        ca, cb = str(rng.choice(lcols)), str(rng.choice(rcols))
        got, want = exp._join_pdfs(lp, rp, ca, cb), _join_reference(lp, rp, ca, cb)
        assert list(got.columns) == list(want.columns)
        assert list(got.dtypes) == list(want.dtypes)
        assert got.index.equals(want.index)
        assert got.equals(want)
