"""Expand (Alg 5): keyless candidates joined through the join graph."""
import numpy as np
import pandas as pd
import pytest

from repro.core import discovery as disc
from repro.core import expand as exp
from repro.core import operators as ops

KEY = ["ID"]
TAU = 0.3


@pytest.fixture(scope="module")
def cands(spark, fig3_repo, fig3_source):
    return disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=TAU)


@pytest.fixture(scope="module")
def expanded(spark, cands, fig3_source):
    return exp.expand(spark, cands, KEY, source=fig3_source)


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

    def test_name_tracks_path(self, cands, expanded):
        dlike = next(c for c in expanded if "+" in c.name)
        path = dlike.name.split("+")
        assert len(path) >= 2
        assert set(path) <= {c.name for c in cands}

    def test_no_keyed_candidates_passthrough(self, spark, cands, fig3_source):
        with_key = [c for c in cands if "ID" in c.mapping]
        out = exp.expand(spark, with_key, KEY, source=fig3_source)
        assert {c.name for c in out} == {c.name for c in with_key}

    def test_unreachable_candidate_dropped(self, spark, cands, fig3_source):
        # a keyless candidate with no join edge to a keyed one disappears
        keyless = [c for c in cands if "ID" not in c.mapping]
        out = exp.expand(spark, keyless, KEY, source=fig3_source)
        assert out == []

    def test_reads_no_lake_table(self, spark, cands, expanded, fig3_source, monkeypatch):
        # every candidate carries its renamed frame: Expand joins those
        from repro.lake.repository import TableRepository

        def no_read(*_a, **_kw):
            raise AssertionError("Expand read a lake table")

        monkeypatch.setattr(TableRepository, "load_pdf", no_read)
        monkeypatch.setattr(TableRepository, "load", no_read)
        out = exp.expand(spark, cands, KEY, source=fig3_source)
        assert [c.name for c in out] == [c.name for c in expanded]
        assert any("+" in c.name for c in out)
        for c, e in zip(out, expanded):
            pd.testing.assert_frame_equal(c.pdf, e.pdf)


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


def _edge_case(seed: int):
    """Seeded raw candidates for the join graph: 3–8 tiny renamed frames
    whose columns draw from small shared pools (so overlaps and Jaccard
    ties are common), some of them key-bearing. Returns (by_name, ends)."""
    rng = np.random.default_rng(seed)
    pools = [[f"{p}{i}" for i in range(size)] for p, size in zip("pqrs", (4, 6, 12, 30))]
    by_name = {}
    ends = set()
    for t in range(int(rng.integers(3, 9))):
        name = f"T{t}"
        m = int(rng.integers(1, 40))
        cols = {}
        for c in range(int(rng.integers(1, 6))):
            pool = pools[int(rng.integers(len(pools)))]
            v = np.array(pool, dtype=object)[rng.integers(len(pool), size=m)]
            v[rng.random(m) < 0.1] = None
            cols[f"{name}__u__c{c}"] = v
        frame = pd.DataFrame(cols, dtype=object)
        by_name[name] = disc.Candidate(name=name, load=None, mapping={}, col_overlaps={}, pdf=frame)
        if rng.random() < 0.4:
            ends.add(name)
    return by_name, ends


class TestEdges:
    """``_edges`` gives every candidate pair the edge the pairwise
    reference ``_edge`` gives it: the same columns, weight and tie-break."""

    @pytest.mark.parametrize("chunk", [1, 7, exp._PAIR_CHUNK])
    @pytest.mark.parametrize("seed", range(12))
    def test_equal_to_pairwise_reference(self, seed, chunk, monkeypatch):
        from tests import expand_reference as ref

        monkeypatch.setattr(exp, "_PAIR_CHUNK", chunk)
        if seed % 3 == 0:  # sample the larger columns
            monkeypatch.setattr(exp, "_SAMPLE", 8)
            monkeypatch.setattr(ref, "_SAMPLE", 8)
        by_name, ends = _edge_case(seed)
        names = sorted(by_name)
        got = exp._edges(
            names, {n: exp._value_sets(exp._columns(c.pdf)) for n, c in by_name.items()}, ends
        )
        ref_sets = {n: ref._value_sets(c.pdf) for n, c in by_name.items()}
        want = {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if a in ends and b in ends:
                    continue
                e = ref._edge(by_name[a], by_name[b], ref_sets)
                if e:
                    want[a, b] = e
        assert list(got.items()) == list(want.items())

    def test_cases_have_ties_and_edges(self):
        """The generator makes pairs whose best weight is tied by several
        column pairs: of equal extents (the first in column order wins),
        and of different extents (the larger wins)."""
        from tests import expand_reference as ref

        edges = same_ext = other_ext = 0
        for seed in range(12):
            by_name, _ends = _edge_case(seed)
            sets = {n: ref._value_sets(c.pdf) for n, c in by_name.items()}
            names = sorted(by_name)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    ws = [
                        (len(va & vb) / len(va | vb), min(len(va), len(vb)))
                        for va in sets[a].values() for vb in sets[b].values()
                        if va & vb
                    ]
                    if not ws or max(ws)[0] < exp.MIN_JOIN_JACCARD:
                        continue
                    edges += 1
                    exts = [e for w, e in ws if w == max(ws)[0]]
                    same_ext += exts.count(max(exts)) > 1
                    other_ext += len(set(exts)) > 1
        assert edges >= 30 and same_ext >= 10 and other_ext >= 5


class TestJoinNulls:
    """An Expand path is the SQL equi-join of its tables' frames: a null
    join value matches nothing, and a column both sides hold is coalesced,
    left first."""

    def test_null_join_values_do_not_pair(self, spark):
        from repro import oracle

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
        frames = {"C": exp._columns(keyless), "A": exp._columns(keyed)}
        edges = {("C", "A"): ("Name", "Name", 1.0), ("A", "C"): ("Name", "Name", 1.0)}
        path = exp._materialise_path(
            spark, c, ["C", "A"], {"C": c, "A": a}, frames, edges, KEY,
            source, exp._SourceKeys(source, KEY),
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
        assert sorted(ops.project_select_pdf(path.pdf, source, KEY).values.tolist()) == [
            ["2", "Wang", "Female"], ["3", "Li", "Male"]
        ]


def _join_reference(lp, rp, ca, cb):
    """The ``merge``-then-coalesce form of a one-hop join."""
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
    """A one-hop ``_join_path`` equals ``merge`` with coalesced shared
    columns: the same columns, dtypes, rows and row order."""

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
        got = exp._join_path([exp._columns(lp), exp._columns(rp)], [(ca, cb)])
        want = _join_reference(lp, rp, ca, cb)
        assert list(got.columns) == list(want.columns)
        assert list(got.dtypes) == list(want.dtypes)
        assert got.index.equals(want.index)
        assert got.equals(want)

    def test_rows_in_left_then_right_order(self):
        # as many matches as left rows, though rows 0-2 match nothing and
        # rows 3, 4 and 6 twice: pandas 2.2's merge returns this out of
        # (left, right) order
        lk = np.array(["j0", "j0", "j0", "j2", "j2", "j1", "j2"], dtype=object)
        rk = np.array(["j4", "j3", "j4", "j2", "j1", "j2", None], dtype=object)
        i, j = exp._match(lk, rk)
        assert list(zip(i.tolist(), j.tolist())) == [
            (3, 3), (3, 5), (4, 3), (4, 5), (5, 4), (6, 3), (6, 5)
        ]


def _path_case(kind: str, seed: int):
    """A seeded path of 2–4 tiny renamed frames, with its candidates, edges
    and canonical source: (start, path, by_name, frames, edges, key, source).

    Join columns are unmapped (``T1__u__in``) and drawn from a small pool
    with nulls; key parts come from a pool S holds only part of, so the
    cut has rows to drop. ``kind`` picks what the case stresses: a
    composite key with a part on the start table, a join column an earlier
    table also holds, many nulls, duplicate source keys, or three hops.
    """
    rng = np.random.default_rng(seed)
    composite = kind == "composite_start" or (kind != "plain" and rng.random() < 0.4)
    key = ["k1", "k2"] if composite else ["k1"]
    hops = 3 if kind == "three_hops" else int(rng.integers(1, 3))
    if kind == "shared_join":
        hops = max(hops, 2)
    p_null = 0.3 if kind == "nulls" else 0.1

    def draw(pool, n, p=p_null):
        v = np.array(pool, dtype=object)[rng.integers(len(pool), size=n)]
        v[rng.random(n) < p] = None
        return v

    n_src = int(rng.integers(3, 8))
    src = {k: draw([f"{k}{i}" for i in range(4)], n_src) for k in key}
    src["a"] = draw(["a0", "a1", "a2"], n_src)
    src["b"] = draw(["b0", "b1"], n_src)
    source = pd.DataFrame(src, dtype=object)
    if kind == "dup_keys":
        for k in key:
            source.loc[1, k] = source.loc[0, k]
    kpool = {k: [f"{k}{i}" for i in range(6)] for k in key}  # k4, k5: not in S
    jpool = ["j0", "j1", "j2", "j3"]
    apool = ["a0", "a1", "a2", "a3"]
    names = [f"T{j}" for j in range(hops + 1)]
    frames: dict[str, pd.DataFrame] = {}
    edges: dict[tuple[str, str], tuple[str, str, float]] = {}
    for j, n in enumerate(names):
        m = int(rng.integers(0 if kind == "nulls" else 2, 10))
        cols = {}
        shared_in = kind == "shared_join" and j == 2
        if j:
            cols[f"{n}__u__in"] = draw(apool if shared_in else jpool, m)
        if j == 0 or (kind == "shared_join" and j == 1) or rng.random() < 0.5:
            cols["a"] = draw(apool, m)
        if j == 0 and rng.random() < 0.5:
            cols["b"] = draw(["b0", "b1"], m)
        if j == hops:  # most end rows carry one of S's keys
            rows = rng.integers(len(source), size=m)
            for k in key:
                cols[k] = np.where(
                    rng.random(m) < 0.5, source[k].to_numpy()[rows], draw(kpool[k], m)
                )
        elif composite and ((j == 0 and kind == "composite_start") or rng.random() < 0.4):
            cols["k2"] = draw(kpool["k2"], m)
        if j < hops:
            cols[f"{n}__u__out"] = draw(jpool, m)
        frames[n] = pd.DataFrame(cols, dtype=object)
        if j:
            prev = names[j - 1]
            ca = "a" if shared_in else f"{prev}__u__out"
            edges[(prev, n)] = (ca, f"{n}__u__in", 1.0)
    by_name = {
        n: disc.Candidate(
            name=n, load=None,
            mapping={c: c for c in f.columns if "__u__" not in c},
            col_overlaps={c: 1.0 for c in f.columns if "__u__" not in c},
            pdf=f,
        )
        for n, f in frames.items()
    }
    return by_name[names[0]], names, by_name, frames, edges, key, source


_KINDS = ["plain", "composite_start", "shared_join", "nulls", "dup_keys", "three_hops"]


def _key_rows(pdf, source, key):
    """Rows of ``pdf`` whose key (null parts equal) is one of S's."""
    from repro.core.operators import first_rows, null_none

    wanted = first_rows(source, key)
    mask = [t in wanted for t in zip(*(null_none(pdf[k]) for k in key))]
    return pdf[np.array(mask, dtype=bool)].reset_index(drop=True)


class TestIsin:
    """``_isin`` against pandas ``Series.isin`` (its former kernel), on
    object arrays of strings, None and NaN: a null is in no value set and
    passes only when ``nulls``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_series_isin(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.array(["a", "b", "c", "1", "", None, np.nan], dtype=object)
        for n in (0, 1, 7, 40):
            arr = rng.choice(pool, n) if n else pool[:0]
            for values in (set(), {"a"}, {"a", "1", "", "zz"}):
                want = pd.Series(arr, dtype=object).isin(values).to_numpy()
                assert exp._isin(arr, values).tolist() == want.tolist()
                assert exp._isin(arr, values, nulls=True).tolist() == (
                    want | pd.isna(arr)
                ).tolist()


class TestCutPaths:
    """The cut join of a path is the whole join's rows whose key is one of
    S's, in the same order; the expanded candidate (names, mappings, key
    slice) equals the whole-join reference, and its ``df`` is the whole
    join."""

    @staticmethod
    def _both(spark, case):
        from tests import expand_reference as ref

        start, path, by_name, frames, edges, key, source = case
        want = ref._materialise_path(spark, start, path, by_name, frames, edges, key, source)
        cols = {n: exp._columns(f) for n, f in frames.items()}
        got = exp._materialise_path(
            spark, start, path, by_name, cols, edges, key, source, exp._SourceKeys(source, key)
        )
        return want, got

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", _KINDS)
    def test_equal_to_reference(self, spark, kind, seed):
        case = _path_case(kind, seed)
        key, source = case[5], case[6]
        want, got = self._both(spark, case)
        assert (got is None) == (want is None)
        if want is None:
            return
        assert got.name == want.name
        assert list(got.mapping.items()) == list(want.mapping.items())
        assert got.col_overlaps == want.col_overlaps
        pd.testing.assert_frame_equal(got.pdf, _key_rows(want.pdf, source, key))
        pd.testing.assert_frame_equal(
            ops.project_select_pdf(got.pdf, source, key),
            ops.project_select_pdf(want.pdf, source, key),
        )
        pd.testing.assert_frame_equal(got.df.toPandas(), want.df.toPandas())

    def test_cases_exercise_the_cut(self, spark):
        """The generator builds paths whose whole join has rows the cut
        drops, and paths whose cut keeps rows."""
        dropped = kept = 0
        for kind in _KINDS:
            for seed in range(12):
                case = _path_case(kind, seed)
                want, got = self._both(None, case)
                if want is not None:
                    dropped += len(want.pdf) > len(got.pdf)
                    kept += len(got.pdf) > 0
        assert dropped >= 20 and kept >= 20


class TestExpandEqualsReference:
    """``expand`` on the fig-3 and seed-0 TP-TR Small candidates returns the
    reference's candidates: names, mappings and key slices."""

    @staticmethod
    def _check(spark, cands, key, source):
        from repro.lake.repository import canon_str

        from tests import expand_reference as ref

        src = canon_str(source)
        got = exp.expand(spark, cands, key, source=src)
        want = ref.expand(spark, cands, key, source=src)
        assert [c.name for c in got] == [c.name for c in want]
        for g, w in zip(got, want):
            assert list(g.mapping.items()) == list(w.mapping.items())
            pd.testing.assert_frame_equal(
                ops.project_select_pdf(g.pdf, src, key),
                ops.project_select_pdf(w.pdf, src, key),
            )
        return got, want

    def test_fig3(self, spark, fig3_source, cands):
        got, _ = self._check(spark, cands, KEY, fig3_source)
        assert any("+" in c.name for c in got)

    @pytest.mark.parametrize("name", ["q04", "q09", "q11", "q16", "q22"])
    def test_tptr_small(self, spark, tptr_small, name):
        _root, bench = tptr_small
        s = next(s for s in bench.sources if s.name == name)
        cands = disc.set_similarity(spark, bench.repo, s.table, s.key_cols, tau=0.2)
        got, _ = self._check(spark, cands, s.key_cols, s.table)
        assert any("+" in c.name for c in got)


class TestRowsGuard:
    """On seed-0 TP-TR Small q09 (|S| = 30) each expanded path's frame holds
    at most |S| rows; its ``df``, which Ver reads, is the whole join."""

    def test_tptr_small_q09_paths_hold_at_most_s_rows(self, spark, tptr_small):
        from repro.lake.repository import canon_str

        from tests import expand_reference as ref

        _root, bench = tptr_small
        q09 = next(s for s in bench.sources if s.name == "q09")
        src = canon_str(q09.table)
        cands = disc.set_similarity(spark, bench.repo, q09.table, q09.key_cols, tau=0.2)
        out = exp.expand(spark, cands, q09.key_cols, source=src)
        got = [c for c in out if "+" in c.name]
        whole = {
            c.name: len(c.pdf)
            for c in ref.expand(spark, cands, q09.key_cols, source=src)
        }
        assert len(src) == 30 and len(got) == 8
        for c in got:
            assert len(c.pdf) <= len(src), c.name
            assert whole[c.name] > 20 * len(src), c.name
            assert c.df.count() == whole[c.name], c.name
