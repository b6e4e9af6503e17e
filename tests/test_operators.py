"""Integration operators: pure kernels, per-key-group row helpers,
Spark operators, Theorem 8 lemmas."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import metrics_core as mc
from repro.core import operators as ops


def _sorted(tuples):
    return sorted(tuples, key=lambda t: tuple((v is None, v or "") for v in t))


def rows(df):
    """Spark DF → sorted list of value tuples (None-normalized)."""
    return _sorted(tuple(r[c] for c in sorted(df.columns)) for r in df.collect())


def prows(pdf):
    """pandas frame → sorted list of value tuples (None-normalized)."""
    cols = sorted(pdf.columns)
    return _sorted(
        tuple(None if pd.isna(v) else v for v in r)
        for r in pdf[cols].itertuples(index=False)
    )


# ---------------------------------------------------------------------------
# pure pandas kernels
# ---------------------------------------------------------------------------

class TestSubsumePdf:
    def test_removes_subsumed(self):
        pdf = pd.DataFrame({"a": ["1", "1"], "b": ["x", None]}, dtype=object)
        out = ops.subsume_pdf(pdf)
        assert len(out) == 1
        assert out.iloc[0].tolist() == ["1", "x"]

    def test_keeps_conflicting(self):
        pdf = pd.DataFrame({"a": ["1", "1"], "b": ["x", "y"]}, dtype=object)
        assert len(ops.subsume_pdf(pdf)) == 2

    def test_dedups(self):
        pdf = pd.DataFrame({"a": ["1", "1"], "b": ["x", "x"]}, dtype=object)
        assert len(ops.subsume_pdf(pdf)) == 1

    def test_chain_subsumption(self):
        pdf = pd.DataFrame(
            {"a": ["1", "1", "1"], "b": ["x", "x", None], "c": ["z", None, None]},
            dtype=object,
        )
        out = ops.subsume_pdf(pdf)
        assert len(out) == 1
        assert out.iloc[0].tolist() == ["1", "x", "z"]

    def test_all_null_row_subsumed(self):
        pdf = pd.DataFrame({"a": ["1", None], "b": [None, None]}, dtype=object)
        out = ops.subsume_pdf(pdf)
        assert len(out) == 1

    def test_disjoint_nonnull_not_subsumed(self):
        pdf = pd.DataFrame({"a": ["1", None], "b": [None, "y"]}, dtype=object)
        assert len(ops.subsume_pdf(pdf)) == 2

    def test_empty(self):
        pdf = pd.DataFrame({"a": [], "b": []}, dtype=object)
        assert len(ops.subsume_pdf(pdf)) == 0


class TestComplementPdf:
    def test_merges_complements(self):
        pdf = pd.DataFrame(
            {"k": ["1", "1"], "a": ["x", None], "b": [None, "y"]}, dtype=object
        )
        out = ops.complement_pdf(pdf)
        assert len(out) == 1
        assert out.iloc[0].tolist() == ["1", "x", "y"]

    def test_no_shared_value_no_merge(self):
        pdf = pd.DataFrame(
            {"k": ["1", "2"], "a": ["x", None], "b": [None, "y"]}, dtype=object
        )
        assert len(ops.complement_pdf(pdf)) == 2

    def test_conflict_no_merge(self):
        pdf = pd.DataFrame(
            {"k": ["1", "1"], "a": ["x", "z"], "b": [None, "y"]}, dtype=object
        )
        assert len(ops.complement_pdf(pdf)) == 2

    def test_transitive_merge(self):
        pdf = pd.DataFrame(
            {
                "k": ["1", "1", "1"],
                "a": ["x", None, None],
                "b": [None, "y", None],
                "c": [None, None, "z"],
            },
            dtype=object,
        )
        out = ops.complement_pdf(pdf)
        assert len(out) == 1
        assert out.iloc[0].tolist() == ["1", "x", "y", "z"]

    def test_subsuming_pair_is_not_complementing(self):
        # t1 strictly more informative than t2: subsumption's job, not κ's
        pdf = pd.DataFrame({"k": ["1", "1"], "a": ["x", None]}, dtype=object)
        out = ops.complement_pdf(pdf)
        assert len(out) == 2

    def test_fig3_nullified_pair_restores_tuple(self):
        # the TP-TR perfect-reclamation mechanism: two complementary
        # nullified variants merge back into the original tuple
        pdf = pd.DataFrame(
            {
                "k": ["7", "7"],
                "a": ["v1", None],
                "b": [None, "v2"],
                "c": ["v3", "v3"],
            },
            dtype=object,
        )
        out = ops.complement_pdf(pdf)
        assert len(out) == 1
        assert out.iloc[0].tolist() == ["7", "v1", "v2", "v3"]


class TestMinimalForm:
    def test_dedup_complement_subsume(self):
        pdf = pd.DataFrame(
            {
                "k": ["1", "1", "1", "1"],
                "a": ["x", "x", "x", None],
                "b": [None, None, "y", "y"],
            },
            dtype=object,
        )
        out = ops.minimal_form_pdf(pdf)
        assert len(out) == 1
        assert out.iloc[0].tolist() == ["1", "x", "y"]


# ---------------------------------------------------------------------------
# Spark wrappers
# ---------------------------------------------------------------------------

class TestOuterUnion:
    def test_union_of_columns(self, spark):
        t1 = spark.createDataFrame(pd.DataFrame({"k": ["1"], "a": ["x"]}))
        t2 = spark.createDataFrame(pd.DataFrame({"k": ["2"], "b": ["y"]}))
        out = ops.outer_union(t1, t2)
        assert set(out.columns) == {"k", "a", "b"}
        got = {tuple(r) for r in out.select("k", "a", "b").collect()}
        assert got == {("1", "x", None), ("2", None, "y")}

    def test_same_schema_is_inner_union(self, spark):
        t1 = spark.createDataFrame(pd.DataFrame({"k": ["1"], "a": ["x"]}))
        t2 = spark.createDataFrame(pd.DataFrame({"k": ["2"], "a": ["y"]}))
        out = ops.outer_union(t1, t2)
        assert set(out.columns) == {"k", "a"}
        assert out.count() == 2

    def test_commutative(self, spark):
        t1 = spark.createDataFrame(pd.DataFrame({"k": ["1"], "a": ["x"]}))
        t2 = spark.createDataFrame(pd.DataFrame({"k": ["2"], "b": ["y"]}))
        assert rows(ops.outer_union(t1, t2)) == rows(ops.outer_union(t2, t1))

    def test_outer_union_all(self, spark):
        dfs = [
            spark.createDataFrame(pd.DataFrame({"k": [str(i)], f"c{i}": ["v"]}))
            for i in range(3)
        ]
        out = ops.outer_union_all(dfs)
        assert set(out.columns) == {"k", "c0", "c1", "c2"}
        assert out.count() == 3


class TestProjectSelect:
    def test_projects_and_selects(self, spark):
        t = spark.createDataFrame(
            pd.DataFrame(
                {"k": ["1", "2", "3"], "a": ["x", "y", "z"], "junk": ["j"] * 3}
            )
        )
        keys = spark.createDataFrame(pd.DataFrame({"k": ["1", "2"]}))
        out = ops.project_select(t, ["k", "a"], ["k"], keys)
        assert set(out.columns) == {"k", "a"}
        assert out.count() == 2

    def test_missing_key_raises(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"a": ["x"]}))
        keys = spark.createDataFrame(pd.DataFrame({"k": ["1"]}))
        with pytest.raises(ValueError):
            ops.project_select(t, ["k", "a"], ["k"], keys)


class TestProjectSelectPdf:
    """The pandas ProjectSelect keeps ``project_select``'s semi-join semantics."""

    def test_projects_and_selects_in_order(self):
        t = pd.DataFrame(
            {"k": ["3", "1", "2"], "a": ["z", "x", "y"], "junk": ["j"] * 3}
        )
        src = pd.DataFrame({"k": ["1", "3"], "a": ["x", "z"]})
        out = ops.project_select_pdf(t, src, ["k"])
        assert list(out.columns) == ["k", "a"]
        assert out.values.tolist() == [["3", "z"], ["1", "x"]]

    def test_rows_of_one_key_keep_lake_order(self):
        # a second row for a key stays where the lake table has it, behind
        # rows of other keys; rows of a key S lacks and of a null key go
        t = pd.DataFrame(
            {
                "k": [None, "0", "99", "1", "2", "1"],
                "a": ["Nobody", "Smith", "Stranger", "Brown", "Wang", "Brown"],
                "junk": ["PhD", "Bachelors", "PhD", "PhD", "High School", None],
            },
            dtype=object,
        )
        src = pd.DataFrame({"k": ["0", "1", "2"], "a": ["Smith", "Brown", "Wang"]})
        out = ops.project_select_pdf(t, src, ["k"])
        assert out.values.tolist() == [["0", "Smith"], ["1", "Brown"], ["2", "Wang"], ["1", "Brown"]]

    def test_source_without_keys_selects_nothing(self):
        t = pd.DataFrame({"k": ["1", "2"], "a": ["x", "y"], "junk": ["j", "j"]})
        src = pd.DataFrame({"k": [None, None], "a": ["x", "y"]}, dtype=object)
        out = ops.project_select_pdf(t, src, ["k"])
        assert list(out.columns) == ["k", "a"] and out.empty

    def test_null_key_row_dropped(self):
        # pandas merge would match NaN to NaN; Spark's leftsemi does not
        t = pd.DataFrame({"k": ["1", None], "a": ["x", "y"]}, dtype=object)
        src = pd.DataFrame({"k": ["1", None], "a": ["x", "y"]}, dtype=object)
        out = ops.project_select_pdf(t, src, ["k"])
        assert out.values.tolist() == [["1", "x"]]

    def test_duplicate_source_keys_do_not_multiply(self):
        t = pd.DataFrame({"k": ["1", "2"], "a": ["x", "y"]})
        src = pd.DataFrame({"k": ["1", "1", "1"], "a": ["x", "p", "q"]})
        out = ops.project_select_pdf(t, src, ["k"])
        assert out.values.tolist() == [["1", "x"]]

    def test_composite_key(self):
        # the source arrives canonical; a typed source is canonicalised once
        # by gent.reclaim_from_candidates (test_gent.TestTypedSource)
        t = pd.DataFrame({"k1": ["1", "1"], "k2": ["a", "b"], "v": ["x", "y"]})
        src = pd.DataFrame({"k1": ["1"], "k2": ["b"], "v": ["y"]})
        out = ops.project_select_pdf(t, src, ["k1", "k2"])
        assert out.values.tolist() == [["1", "b", "y"]]

    def test_missing_key_raises(self):
        t = pd.DataFrame({"a": ["x"]})
        with pytest.raises(ValueError):
            ops.project_select_pdf(t, pd.DataFrame({"k": ["1"], "a": ["x"]}), ["k"])


def _match_rates_reference(tbl, tbl_keys, src, src_keys, pairs):
    """The alignment and rate loop that ``match_rates`` replaced in
    discovery's key-option refinement and Expand's column pruning."""
    src_first = ops.first_rows(src, src_keys)
    aligned = [
        (i, src_first[k]) for k, i in ops.first_rows(tbl, tbl_keys).items() if k in src_first
    ]
    if not aligned:
        return 0, {}
    at, src_at = (np.array(p) for p in zip(*aligned))
    rates = {}
    for c, s in pairs:
        svals = src[s].to_numpy(dtype=object)[src_at]
        nonnull = pd.notna(svals)
        denom = int(nonnull.sum())
        if denom == 0:
            continue
        hits = (tbl[c].to_numpy(dtype=object)[at] == svals) & nonnull
        rates[c, s] = float(hits.sum()) / denom
    return len(aligned), rates


class TestMatchRates:
    """``match_rates`` aligns first rows per key (null key parts equal) and
    rates each column pair over the aligned non-null source cells."""

    @staticmethod
    def _rates(tbl, tbl_keys, src, src_keys, pairs):
        return ops.match_rates(tbl, tbl_keys, src, ops.first_rows(src, src_keys), pairs)

    def test_null_source_cells_are_not_counted(self):
        src = pd.DataFrame(
            {"k": ["1", "2", "3"], "a": ["x", None, None], "b": [None] * 3}, dtype=object
        )
        tbl = pd.DataFrame({"c0": ["1", "2", "3"], "c1": ["x", "y", None]}, dtype=object)
        got = self._rates(tbl, ["c0"], src, ["k"], [("c1", "a"), ("c1", "b")])
        # b is null on every aligned row: no rate
        assert got == (3, {("c1", "a"): 1.0})

    def test_no_aligned_key(self):
        src = pd.DataFrame({"k": ["1", "2"], "a": ["x", "y"]})
        tbl = pd.DataFrame({"c0": ["7", "8"], "c1": ["x", "y"]})
        assert self._rates(tbl, ["c0"], src, ["k"], [("c1", "a")]) == (0, {})

    def test_duplicate_keys_align_first_rows(self):
        # key "1" repeats on both sides; only its first rows are compared
        src = pd.DataFrame({"k": ["1", "2", "1"], "a": ["x", "y", "q"]})
        tbl = pd.DataFrame(
            {"c0": ["1", "2", "1"], "c1": ["x", "y", "w"], "c2": ["q", "y", "x"]}
        )
        got = self._rates(tbl, ["c0"], src, ["k"], [("c1", "a"), ("c2", "a")])
        assert got == (2, {("c1", "a"): 1.0, ("c2", "a"): 0.5})

    def test_null_key_parts_align(self):
        src = pd.DataFrame({"k1": ["1", "1"], "k2": [None, "b"], "a": ["x", "y"]}, dtype=object)
        tbl = pd.DataFrame({"c0": ["1"], "c1": [np.nan], "c2": ["x"]}, dtype=object)
        assert self._rates(tbl, ["c0", "c1"], src, ["k1", "k2"], [("c2", "a")]) == (
            1, {("c2", "a"): 1.0}
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_equal_to_replaced_code(self, seed):
        rng = np.random.default_rng(seed)

        def frame(cols, n):
            pool = np.array([None, "0", "1", "2", "3"], dtype=object)
            return pd.DataFrame(
                {c: pool[rng.integers(len(pool), size=n)] for c in cols}, dtype=object
            )

        n_keys = int(rng.integers(1, 3))
        src_keys = [f"k{i}" for i in range(n_keys)]
        tbl_keys = [f"c{i}" for i in range(n_keys)]
        src = frame(src_keys + ["a", "b"], int(rng.integers(0, 9)))
        tbl = frame(tbl_keys + ["c8", "c9", "a"], int(rng.integers(0, 12)))
        pairs = [(c, s) for s in ("a", "b") for c in ("c8", "c9", "a")]
        got = self._rates(tbl, tbl_keys, src, src_keys, pairs)
        want = _match_rates_reference(tbl, tbl_keys, src, src_keys, pairs)
        assert got[0] == want[0]
        assert list(got[1].items()) == list(want[1].items())


class TestKeyedPairwise:
    def test_subsumption_grouped_by_key(self):
        rs = [("1", "x", "y"), ("1", None, "y"), ("2", None, "q")]
        out = ops.per_key_group(rs, [0], ops.subsume_rows)
        assert set(out) == {("1", "x", "y"), ("2", None, "q")}

    def test_complementation_grouped_by_key(self):
        rs = [("1", "x", None), ("1", None, "y"), ("2", "w", None)]
        out = ops.per_key_group(rs, [0], ops.complement_rows)
        assert set(out) == {("1", "x", "y"), ("2", "w", None)}

    def test_minimal_form(self):
        rs = [("1", "x", None), ("1", "x", None), ("1", None, "y")]
        out = ops.per_key_group(rs, [0], ops.minimal_form_rows)
        assert set(out) == {("1", "x", "y")}

    def test_multi_key_grouping(self):
        # (k1, k2, v, w): different composite keys → no complementation
        # across groups
        rs = [("1", "a", "x", None), ("1", "b", None, "y")]
        out = ops.per_key_group(rs, [0, 1], ops.complement_rows)
        assert len(out) == 2

    def test_groups_keep_first_appearance_order(self):
        # κ is order-dependent: groups in order of their first row, rows in
        # input order within a group; the key may be any column
        rs = [("p", "2"), ("x", "1"), ("q", "2")]
        out = ops.per_key_group(rs, [1], lambda g: g)
        assert out == [("p", "2"), ("q", "2"), ("x", "1")]

    def test_one_row_group_skips_kernel(self):
        seen = []
        rs = [("1", "x"), ("2", "p"), ("2", "q")]
        out = ops.per_key_group(rs, [0], lambda g: seen.append(g) or g)
        assert seen == [[("2", "p"), ("2", "q")]]
        assert out == rs

    def test_empty(self):
        assert ops.per_key_group([], [0], ops.minimal_form_rows) == []


class TestSparkPairwise:
    """``_apply_per_group``, the Spark per-group wrapper ALITE blocks κ/β
    through, runs the same kernels (their ``*_pdf`` wrappers) as
    ``per_key_group``, on the same cases."""

    def test_subsumption_grouped_by_key(self, spark):
        pdf = pd.DataFrame(
            {"k": ["1", "1", "2"], "a": ["x", None, None], "b": ["y", "y", "q"]}
        )
        out = ops._apply_per_group(spark.createDataFrame(pdf), ["k"], ops.subsume_pdf)
        got = {tuple(r) for r in out.select("k", "a", "b").collect()}
        assert got == {("1", "x", "y"), ("2", None, "q")}

    def test_complementation_grouped_by_key(self, spark):
        pdf = pd.DataFrame(
            {"k": ["1", "1", "2"], "a": ["x", None, "w"], "b": [None, "y", None]}
        )
        out = ops._apply_per_group(spark.createDataFrame(pdf), ["k"], ops.complement_pdf)
        got = {tuple(r) for r in out.select("k", "a", "b").collect()}
        assert got == {("1", "x", "y"), ("2", "w", None)}

    def test_minimal_form(self, spark):
        pdf = pd.DataFrame(
            {"k": ["1", "1", "1"], "a": ["x", "x", None], "b": [None, None, "y"]}
        )
        out = ops._apply_per_group(spark.createDataFrame(pdf), ["k"], ops.minimal_form_pdf)
        got = {tuple(r) for r in out.select("k", "a", "b").collect()}
        assert got == {("1", "x", "y")}

    def test_multi_key_grouping(self, spark):
        pdf = pd.DataFrame(
            {
                "k1": ["1", "1"],
                "k2": ["a", "b"],
                "v": ["x", None],
                "w": [None, "y"],
            }
        )
        # different composite keys → no complementation across groups
        out = ops._apply_per_group(
            spark.createDataFrame(pdf), ["k1", "k2"], ops.complement_pdf
        )
        assert out.count() == 2


class TestAsStrings:
    def test_all_string_frame_returned_as_is(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"a": ["x", None], "b": ["1", "2"]}))
        assert ops.as_strings(t) is t

    def test_typed_frame_cast(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"a": ["x", "y"], "n": [1, 2], "f": [1.5, None]}))
        out = ops.as_strings(t)
        assert out.dtypes == [("a", "string"), ("n", "string"), ("f", "string")]
        assert [tuple(r) for r in out.collect()] == [("x", "1", "1.5"), ("y", "2", None)]


class TestAddMissingNullColumns:
    def test_pads_and_orders(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"b": ["x"], "a": ["y"]}))
        out = ops.add_missing_null_columns(t, ["a", "b", "c"])
        assert out.columns == ["a", "b", "c"]
        r = out.collect()[0]
        assert (r["a"], r["b"], r["c"]) == ("y", "x", None)


# ---------------------------------------------------------------------------
# Theorem 8: ⊎/σ/π/κ/β represent SPJU queries (App. A lemmas)
# ---------------------------------------------------------------------------

@pytest.fixture()
def lemma_tables():
    t1 = pd.DataFrame({"k": ["1", "2", "3"], "a": ["a1", "a2", "a3"]})
    t2 = pd.DataFrame({"k": ["2", "3", "4"], "b": ["b2", "b3", "b4"]})
    return t1, t2


def _union(*pdfs):
    return pd.concat(pdfs, ignore_index=True)


def _per_key(pdf, key, fn):
    """``per_key_group`` over a frame's rows, back to a frame."""
    cols = list(pdf.columns)
    out = ops.per_key_group(mc.norm_rows(pdf, cols), [cols.index(key)], fn)
    return pd.DataFrame(out, columns=cols, dtype=object)


def _beta(pdf, key):
    return _per_key(pdf, key, ops.subsume_rows)


class TestTheorem8:
    def _fd_combine(self, t1, t2, key):
        # β(κ(T1 ⊎ T2)) — combine on shared key values
        u = _union(t1, t2)
        return _beta(_per_key(u, key, ops.complement_rows), key)

    def _inner(self, t1, t2):
        fd = self._fd_combine(t1, t2, "k")
        return fd[fd["a"].notna() & fd["b"].notna()]

    def test_lemma12_inner_join(self, lemma_tables):
        t1, t2 = lemma_tables
        real = t1.merge(t2, on="k", how="inner")
        assert prows(self._inner(t1, t2)) == prows(real)

    def test_lemma13_left_join(self, lemma_tables):
        t1, t2 = lemma_tables
        via_ops = _beta(_union(self._inner(t1, t2), t1), "k")
        real = t1.merge(t2, on="k", how="left")
        assert prows(via_ops) == prows(real)

    def test_lemma14_full_outer_join(self, lemma_tables):
        t1, t2 = lemma_tables
        left = _beta(_union(self._inner(t1, t2), t1), "k")
        via_ops = _beta(_union(left, t2), "k")
        real = t1.merge(t2, on="k", how="outer")
        assert prows(via_ops) == prows(real)

    def test_lemma11_inner_union(self, spark):
        t1 = spark.createDataFrame(pd.DataFrame({"k": ["1"], "a": ["x"]}))
        t2 = spark.createDataFrame(pd.DataFrame({"k": ["2"], "a": ["y"]}))
        assert rows(ops.outer_union(t1, t2)) == rows(t1.unionByName(t2))

    def test_lemma15_cross_product(self, spark):
        t1 = spark.createDataFrame(pd.DataFrame({"a": ["a1", "a2"]}))
        t2 = spark.createDataFrame(pd.DataFrame({"b": ["b1", "b2"]}))
        # κ over a constant shared column makes disjoint-schema rows
        # complement each other. The paper's κ *replaces* a complementing
        # pair with its merge, so the full m×n product only falls out of
        # the proof's iterated pairwise composition — we verify that unit:
        # 1 row × 1 row through ⊎ then κ equals the cross product.
        one1 = spark.createDataFrame(pd.DataFrame({"a": ["a1"], "c": ["const"]}))
        one2 = spark.createDataFrame(pd.DataFrame({"b": ["b1"], "c": ["const"]}))
        via_ops = ops.complement_pdf(ops.outer_union(one1, one2).toPandas())
        real = (
            t1.limit(1).crossJoin(t2.limit(1)).withColumn("c", F.lit("const")).toPandas()
        )
        assert via_ops[["a", "b", "c"]].values.tolist() == real[
            ["a", "b", "c"]
        ].values.tolist()
