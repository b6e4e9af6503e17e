"""Set Similarity (Alg 3) and Diversify (Alg 4) over the Fig-3 lake."""
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core import discovery as disc
from repro.lake.repository import _CELLS_FLUSH_EVERY, RepositoryBuilder, canon_str
from tests import discovery_reference as ref
from tests.conftest import jobs_started

KEY = ["ID"]
TAU = 0.3
MAX_DISCOVERY_JOBS = 0
MAX_COARSE_JOBS = 0


@pytest.fixture(scope="module")
def candidates(spark, fig3_repo, fig3_source):
    return disc.set_similarity(spark, fig3_repo, fig3_source, KEY, tau=TAU)


class TestSetSimilarity:
    def test_junk_not_retrieved(self, candidates):
        assert "junk" not in {c.name for c in candidates}

    def test_relevant_tables_found(self, candidates):
        names = {c.name for c in candidates}
        assert "A" in names
        # D and its duplicate E carry the same info: at most one survives
        assert len(names & {"D", "E"}) == 1

    def test_subsumed_candidate_removed(self, candidates):
        # B's columns (Name, Age) and values are contained in D's
        assert "B" not in {c.name for c in candidates}

    def test_schema_matching_renames(self, candidates):
        a = next(c for c in candidates if c.name == "A")
        assert set(a.mapping) == {"ID", "Name", "Education Level"}
        # the renamed DataFrame exposes source column names
        assert {"ID", "Name", "Education Level"} <= set(a.df.columns)

    def test_every_candidate_holds_its_renamed_table(self, fig3_repo, candidates):
        # Gen-T reads ``pdf``, the baselines ``df``: both are the whole
        # lake table with the candidate's column names
        for c in candidates:
            want = fig3_repo.load_pdf(c.name)
            want.columns = disc.renamed_columns(list(want.columns), c.name, c.mapping)
            pd.testing.assert_frame_equal(c.pdf, want)
            pd.testing.assert_frame_equal(c.df.toPandas(), want)

    def test_mapping_points_at_anonymized_cols(self, candidates):
        a = next(c for c in candidates if c.name == "A")
        assert a.mapping["ID"] == "c0"
        assert a.mapping["Name"] == "c1"

    def test_overlap_scores_bounded(self, candidates):
        for c in candidates:
            for s, ov in c.col_overlaps.items():
                assert 0 <= ov <= 1

    def test_tau_filters(self, spark, fig3_repo, fig3_source):
        none = disc.set_similarity(
            spark, fig3_repo, fig3_source, KEY, tau=1.01
        )
        assert none == []

    def test_restrict_to(self, spark, fig3_repo, fig3_source):
        only_a = disc.set_similarity(
            spark, fig3_repo, fig3_source, KEY, tau=TAU, restrict_to=["A"]
        )
        assert {c.name for c in only_a} == {"A"}


class TestDiversify:
    def test_duplicate_penalized(self):
        vals = frozenset({"x", "y", "z"})
        ranked = [
            {"table": "D", "overlap": 1.0, "vals": vals},
            {"table": "E", "overlap": 1.0, "vals": vals},  # exact duplicate
            {"table": "A", "overlap": 0.8, "vals": frozenset({"q", "r"})},
        ]
        out = disc.diversify_candidates(ranked)
        order = [d["table"] for d in out]
        # Example 9: the duplicate drops below the diverse table A
        assert order.index("A") < order.index("E")
        assert order[0] == "D"

    def test_first_keeps_raw_overlap(self):
        out = disc.diversify_candidates(
            [{"table": "T", "overlap": 0.7, "vals": frozenset({"a"})}]
        )
        assert out[0]["div_score"] == pytest.approx(0.7)

    def test_empty(self):
        assert disc.diversify_candidates([]) == []


class TestCoarseRetrieve:
    def test_ranks_by_shared_mass(self, fig3_repo, fig3_source):
        top = disc.coarse_retrieve(fig3_repo, fig3_source, top_k=3)
        assert "junk" not in top
        assert len(top) == 3

    def test_top_k_limit(self, fig3_repo, fig3_source):
        assert len(disc.coarse_retrieve(fig3_repo, fig3_source, top_k=1)) == 1

    @pytest.mark.parametrize("top_k", [1, 3, 10])
    def test_equal_to_pandas_recount(self, tmp_path, top_k):
        lake = {
            # t1, t2 and t3 tie on 2 shared values; "a" in two columns of t1
            # counts once
            "t3": pd.DataFrame({"c0": ["a", "b", "q"]}),
            "t1": pd.DataFrame({"c0": ["a", "b"], "c1": ["a", None]}),
            "t2": pd.DataFrame({"c0": ["c", "z"], "c1": ["d", "y"]}),
            "t4": pd.DataFrame({"c0": ["a", "b", "c"]}),
            "t5": pd.DataFrame({"c0": ["z"]}),
        }
        source = pd.DataFrame({"x": ["a", "b", "c", None], "y": ["d", "a", None, None]})
        b = RepositoryBuilder(tmp_path / "lake")
        for name, pdf in lake.items():
            b.add(name, pdf)
        repo = b.finish()

        src_vals = set(source.stack())
        counts = {
            t: len(set(pdf.stack()) & src_vals) for t, pdf in lake.items()
        }
        want = sorted((t for t, n in counts.items() if n), key=lambda t: (-counts[t], t))
        assert disc.coarse_retrieve(repo, source, top_k=top_k) == want[:top_k]


class TestSourceValues:
    def test_distinct_values_nulls_dropped(self):
        src = canon_str(
            pd.DataFrame({"x": ["b", "a", "b", None], "y": [None, "a", float("nan"), "é"]})
        )
        values = disc._source_values(src)
        assert values.type == pa.string()
        assert values.to_pylist() == ["a", "b", "é"]

    def test_no_value(self):
        assert len(disc._source_values(canon_str(pd.DataFrame({"x": [None, None]})))) == 0


class TestSparkJobs:
    # discovery scans the cells in process, and lake reads and renames start
    # no job either
    @pytest.mark.parametrize("restrict_to", [None, ["A", "B", "C", "D", "E"]])
    def test_only_the_containment_query(self, spark, fig3_repo, fig3_source, restrict_to):
        cands, jobs = jobs_started(
            spark,
            lambda: disc.set_similarity(
                spark, fig3_repo, fig3_source, KEY, tau=TAU, restrict_to=restrict_to
            ),
        )
        assert "A" in {c.name for c in cands}
        assert len(jobs) <= MAX_DISCOVERY_JOBS

    def test_tptr_small_q09_starts_no_job(self, spark, tptr_small):
        # the coarse ranking, then Set Similarity over its top tables, with
        # key options aligned and the kept candidates' caches read
        _root, bench = tptr_small
        q09 = next(s for s in bench.sources if s.name == "q09")

        def discover():
            top = disc.coarse_retrieve(bench.repo, q09.table, top_k=20)
            return disc.set_similarity(
                spark, bench.repo, q09.table, q09.key_cols, tau=0.2, restrict_to=top
            )

        cands, jobs = jobs_started(spark, discover)
        assert cands
        assert jobs == []

    def test_all_null_source_starts_no_job(self, spark, fig3_repo):
        source = pd.DataFrame({"ID": [None, None], "Name": [None, None]})
        cands, jobs = jobs_started(
            spark, lambda: disc.set_similarity(spark, fig3_repo, source, KEY, tau=TAU)
        )
        assert cands == []
        assert jobs == []

    # coarse_retrieve ranks the whole lake from the same scan
    def test_coarse_retrieve(self, spark, fig3_repo, fig3_source):
        top, jobs = jobs_started(
            spark, lambda: disc.coarse_retrieve(fig3_repo, fig3_source, top_k=3)
        )
        assert len(top) == 3
        assert len(jobs) <= MAX_COARSE_JOBS


class TestColumnContainments:
    # values a SQL literal could mangle: quotes, backslashes, variable
    # substitution, newlines, non-ASCII, the empty string and a hex literal's
    # own text
    TRICKY = ["", "O'Brien", "a\\b", "${spark.app.name}", "two\nlines", "é", "漢", "X'41'"]

    @pytest.mark.parametrize("restrict_to", [None, ["t"]])
    def test_equal_to_pandas_recount(self, tmp_path, restrict_to):
        tricky = self.TRICKY
        lake = {
            # "2" and "a" repeat within a column
            "t": pd.DataFrame(
                {
                    "c0": ["1", "2", "2", "3", None] + tricky[:4],
                    "c1": ["a", "b", "a", "a", "2"] + tricky[4:],
                }
            ),
            # "A" is what X'41' decodes to; "O''Brien" is its SQL escape
            "u": pd.DataFrame({"c0": ["z", "a", "b", "A", "O''Brien"] + tricky}),
        }
        # "2" and "a" each appear in both source columns
        source = pd.DataFrame(
            {
                "x": ["1", "2", "a", "9"] + tricky,
                "y": ["2", "a", "a", None] + tricky[::-1],
            }
        )
        b = RepositoryBuilder(tmp_path / "lake")
        for name, pdf in lake.items():
            b.add(name, pdf)
        repo = b.finish()

        got = disc._column_containments(repo, canon_str(source), restrict_to)
        want = _recount_containments(lake, source, restrict_to)
        assert set(got) == want
        assert len(got) == len(want)
        assert got == sorted(got, key=lambda h: (h.src_col, -h.overlap, h.table, h.col))


def _recount_containments(lake: dict, source: pd.DataFrame, restrict_to) -> set:
    """``_column_containments``' hits, recounted from every cell in pandas."""
    want = set()
    for t, pdf in lake.items():
        if restrict_to is not None and t not in restrict_to:
            continue
        for c in pdf.columns:
            lv = set(pdf[c].dropna())
            for s in source.columns:
                sv = set(source[s].dropna())
                n = len(lv & sv)
                if n:
                    jac = n / (len(sv) + len(lv) - n)
                    want.add((t, c, s, n / len(sv), jac, frozenset(lv & sv)))
    return want


class TestAcrossPartFiles:
    """The scan over a lake whose cells span three part files of several
    row groups each, one part without a hit, equals a pandas recount of
    every cell, whether its batches cross row groups or not."""

    TABLES = 2 * _CELLS_FLUSH_EVERY + 50

    @pytest.fixture(scope="class")
    def lake(self, tmp_path_factory):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(7)
        domain = [f"v{i}" for i in range(30)] + TestColumnContainments.TRICKY + [None]
        lake = {}
        for i in range(self.TABLES):
            # the second part file's tables hold no source value
            dom = [f"n{i}" for i in range(30)] if i // _CELLS_FLUSH_EVERY == 1 else domain
            rows = int(rng.integers(1, 7))
            lake[f"t{i:03d}"] = pd.DataFrame(
                {f"c{j}": rng.choice(np.array(dom, dtype=object), rows)
                 for j in range(int(rng.integers(1, 4)))}
            )
        source = pd.DataFrame(
            {
                "x": rng.choice(np.array(domain[:20] + ["s0", "s1"], dtype=object), 12),
                "y": rng.choice(np.array(domain[15:], dtype=object), 12),
            }
        )
        root = tmp_path_factory.mktemp("parts") / "lake"
        write_table = pq.write_table
        with pytest.MonkeyPatch.context() as mp:  # several row groups per part
            mp.setattr(pq, "write_table", lambda t, p, **kw: write_table(t, p, row_group_size=64))
            b = RepositoryBuilder(root)
            for name, pdf in lake.items():
                b.add(name, pdf)
            repo = b.finish()
        parts = sorted(repo.cells_path().glob("part-*.parquet"))
        assert len(parts) == 3
        assert all(pq.ParquetFile(p).num_row_groups > 1 for p in parts)
        return lake, source, repo

    @pytest.fixture(params=[37, None], ids=["batch37", "batch_default"])
    def batch(self, request, monkeypatch):
        from repro.lake import repository

        if request.param is not None:
            monkeypatch.setattr(repository, "_SCAN_BATCH", request.param)

    @pytest.mark.parametrize("restrict_to", ["all", "every_third"])
    def test_containments(self, lake, batch, restrict_to):
        lake, source, repo = lake
        keep = None if restrict_to == "all" else sorted(lake)[::3]
        got = disc._column_containments(repo, canon_str(source), keep)
        want = _recount_containments(lake, source, keep)
        assert set(got) == want
        assert len(got) == len(want)
        assert got == sorted(got, key=lambda h: (h.src_col, -h.overlap, h.table, h.col))
        # every part but the second holds a hit
        part_of = {h.table: int(h.table[1:]) // _CELLS_FLUSH_EVERY for h in got}
        assert set(part_of.values()) == {0, 2}

    @pytest.mark.parametrize("top_k", [5, 1000])
    def test_coarse_retrieve(self, lake, batch, top_k):
        lake, source, repo = lake
        src_vals = set(source.stack().dropna())
        counts = {t: len(set(pdf.stack().dropna()) & src_vals) for t, pdf in lake.items()}
        want = sorted((t for t, n in counts.items() if n), key=lambda t: (-counts[t], t))
        assert len(want) > 5
        assert disc.coarse_retrieve(repo, source, top_k=top_k) == want[:top_k]


class TestRowSet:
    def test_equal_to_per_value_isna(self):
        pdf = pd.DataFrame(
            {
                "a": ["x", None, float("nan"), "y", "x"],
                "b": [float("nan"), "1", None, None, float("nan")],
            }
        )
        want = frozenset(
            tuple(None if pd.isna(v) else v for v in r)
            for r in pdf[["a", "b"]].itertuples(index=False)
        )
        assert disc._row_set(pdf, ["a", "b"]) == want
        # the candidate's cache keeps its NaN
        assert pdf["a"].isna().sum() == 2


def _refine_case(kind: str, seed: int):
    """A seeded (table, options, canonical source, key) for ``_refine_mapping``.

    The table's rows are drawn from the source's (so keys repeat and most
    cells agree), some cells are overwritten, and its columns are an
    anonymised permutation of the source's plus one noise column. Options
    are drawn from the table's columns with containments that often tie.
    """
    rng = np.random.default_rng(seed)

    def draw(dom: int, size: int, p_null: float, prefix: str = "") -> np.ndarray:
        vals = np.array([f"{prefix}{v}" for v in rng.integers(0, dom, size)], dtype=object)
        vals[rng.random(size) < p_null] = None
        return vals

    names = ["c0", "c1", "c2", "c3", "c4"] if kind == "name_clash" else ["k1", "k2", "a", "b", "c"]
    composite = kind == "composite" or rng.random() < 0.3
    key_cols = names[:2] if composite else names[:1]
    nk = names[2:] if composite else names[1:4]
    n = int(rng.integers(4, 14))
    kdom = 3 if kind == "dup_keys" else int(rng.choice([4, 40]))
    src = {k: draw(kdom, n, 0.3 if kind == "null_keys" else 0.05) for k in key_cols}
    src.update({s: draw(4, n, 0.2, "v") for s in nk})
    if kind == "all_null_col":
        src[nk[0]] = np.full(n, None, dtype=object)
    src = pd.DataFrame(src)

    m = int(rng.integers(n, 3 * n))
    at = rng.integers(0, n, m)
    lake_cols = [f"c{i}" for i in range(len(key_cols) + len(nk) + 1)]
    perm = rng.permutation(lake_cols)
    lake = {}
    for j, s in enumerate(key_cols + nk):
        vals = src[s].to_numpy(dtype=object)[at]
        if s in key_cols and kind == "no_aligned_key":
            vals = np.array([None if v is None else "z" + v for v in vals], dtype=object)
        elif s not in key_cols:
            bad = rng.random(m) < 0.3
            vals[bad] = draw(4, int(bad.sum()), 0.2, "v")
        lake[perm[j]] = vals
    lake[perm[-1]] = draw(4, m, 0.2, "v")
    tbl = pd.DataFrame({c: lake[c] for c in lake_cols})
    for c in lake_cols:  # one null spelling per column, as a Parquet read has
        if kind == "null_keys" or rng.random() < 0.3:
            tbl[c] = tbl[c].where(tbl[c].notna(), np.nan)

    options = {}
    for s in key_cols + nk:
        if s not in key_cols and rng.random() < 0.15:
            continue
        cols = list(rng.choice(lake_cols, int(rng.integers(1, 4)), replace=False))
        if rng.random() < 0.8 and perm[(key_cols + nk).index(s)] not in cols:
            cols[0] = perm[(key_cols + nk).index(s)]
        if s in key_cols and kind == "tied_keys":
            ovs = [1.0] * len(cols)
        else:
            ovs = sorted(rng.choice([1.0, 1.0, 0.97, 0.9, 0.6, 0.3], len(cols)), reverse=True)
        options[s] = [(str(c), float(ov), float(rng.random())) for c, ov in zip(cols, ovs)]
    return tbl, options, canon_str(src), key_cols


class TestRefineMapping:
    """The key-option refinement equals the pandas ``drop_duplicates`` +
    ``merge`` form (``discovery_reference.py``), and reads the table only
    to align a key option."""

    KINDS = [
        "composite", "dup_keys", "null_keys", "name_clash", "tied_keys",
        "no_aligned_key", "all_null_col",
    ]

    @staticmethod
    def _loader(tbl):
        calls = []

        def load():
            calls.append(1)
            return tbl

        return load, calls

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_to_reference(self, kind, seed):
        tbl, options, src, key_cols = _refine_case(kind, seed)
        load, calls = self._loader(tbl)
        got = disc._refine_mapping(load, options, src, key_cols)
        want = ref.refine_mapping(tbl, options, src, key_cols)
        assert (got and list(got.items())) == (want and list(want.items()))
        assert len(calls) <= 1

    def test_first_row_per_key(self):
        # key "1" repeats on both sides; aligned on first rows, "a" agrees
        # with c1 everywhere, on last rows with c2
        src = pd.DataFrame({"k": ["1", "2", "1"], "a": ["x", "y", "q"]})
        tbl = pd.DataFrame(
            {"c0": ["1", "2", "1"], "c1": ["x", "y", "w"], "c2": ["q", "y", "x"]}
        )
        options = {
            "k": [("c0", 1.0, 1.0)],
            "a": [("c1", 1.0, 0.5), ("c2", 1.0, 0.5)],
        }
        want = ref.refine_mapping(tbl, options, src, ["k"])
        assert want == {"k": "c0", "a": "c1"}
        assert disc._refine_mapping(lambda: tbl, options, src, ["k"]) == want

    @pytest.mark.parametrize(
        "options",
        [
            # the key has no option: keyless, Jaccard-greedy
            {"a": [("c1", 1.0, 0.9), ("c2", 0.9, 0.4)]},
            # only the key has options: nothing to verify
            {"k": [("c0", 1.0, 1.0)]},
            # the only key option is the only non-key option
            {"k": [("c0", 1.0, 1.0)], "a": [("c0", 0.5, 0.2)]},
        ],
    )
    def test_no_read_without_a_key_option_to_align(self, options):
        src = canon_str(pd.DataFrame({"k": ["1", "2"], "a": ["x", "y"]}))

        def load():
            raise AssertionError("the table was read")

        got = disc._refine_mapping(load, options, src, ["k"])
        tbl = pd.DataFrame({"c0": ["1"], "c1": ["x"], "c2": ["y"]})
        assert got == ref.refine_mapping(tbl, options, src, ["k"])


class TestLakeReads:
    """Discovery reads a lake table only to align a key option or for a
    kept candidate, and lists the cells dataset once per repository; the
    rest of Gen-T reads no lake table."""

    def test_tptr_small_q09_reads_eight_tables(self, spark, tptr_small, monkeypatch):
        from repro.core import gent
        from repro.lake.repository import TableRepository

        _root, bench = tptr_small
        q09 = next(s for s in bench.sources if s.name == "q09")
        loads: list[str] = []
        load_pdf = TableRepository.load_pdf

        def counting(self, name):
            loads.append(name)
            return load_pdf(self, name)

        monkeypatch.setattr(TableRepository, "load_pdf", counting)
        cands = disc.set_similarity(spark, bench.repo, q09.table, q09.key_cols, tau=0.2)
        assert cands
        res = gent.reclaim_from_candidates(spark, bench.repo, cands, q09.table, q09.key_cols)
        assert res.originating
        # each table is read once; the four lineitem variants are rejected
        # from their options alone
        assert len(loads) == len(set(loads)) == 8
        assert not [n for n in loads if n.startswith("lineitem__")]

    def test_cells_listed_once_per_repository(self, fig3_repo, fig3_source, monkeypatch):
        import pyarrow.parquet as pq

        from repro.lake.repository import TableRepository

        repo = TableRepository(fig3_repo.root)
        listings, opened = [], []
        glob, parquet_file, read_table = Path.glob, pq.ParquetFile, pq.read_table

        def counting_glob(self, pattern, *a, **kw):
            listings.append((self, pattern))
            return glob(self, pattern, *a, **kw)

        def opening(source, *a, **kw):
            opened.append(Path(source))
            return parquet_file(source, *a, **kw)

        def reading(source, *a, **kw):
            opened.append(Path(source))
            return read_table(source, *a, **kw)

        monkeypatch.setattr(Path, "glob", counting_glob)
        monkeypatch.setattr(pq, "ParquetFile", opening)
        monkeypatch.setattr(pq, "read_table", reading)
        src = canon_str(fig3_source)
        for _ in range(2):
            assert disc._column_containments(repo, src, None)
            assert disc.coarse_retrieve(repo, fig3_source, top_k=3)
        assert listings == [(repo.cells_path(), "part-*.parquet")]
        parts = sorted(repo.cells_path().glob("part-*.parquet"))
        # each call opens every part file and nothing else: no lake table
        assert opened == parts * 4
