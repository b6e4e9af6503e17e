"""Table Integration (Alg 2): labelling, minimal forms, the full loop, and
the row-tuple form against the pandas form it replaced."""
import numpy as np
import pandas as pd
import pytest

from repro.core import integrate as integ
from repro.core import metrics_core as mc
from repro.core import operators as ops
from tests import integrate_reference as ref
from tests.conftest import job_group

KEY = ["ID"]


def _labeled(src):
    """S's rows, their labelled copy and labels, as ``integrate`` makes them."""
    cols = list(src.columns)
    s_rows = mc.norm_rows(src, cols)
    return (cols, *integ.label_source_nulls(s_rows, cols, [cols.index(k) for k in KEY]))


class TestLabelSourceNulls:
    def test_nulls_become_labels(self, fig3_source):
        cols, lab, labels = _labeled(fig3_source)
        g = cols.index("Gender")
        v = lab[0][g]
        assert isinstance(v, str) and v.startswith(integ.LABEL_PREFIX)
        assert labels == {("0",): {g: v}}
        # non-null values untouched
        assert lab[1][g] == "Male"

    def test_labels_unique_per_position(self):
        src = pd.DataFrame({"ID": ["0", "1"], "a": [None, None], "b": [None, "x"]})
        _, lab, _ = _labeled(src)
        labels = {lab[0][1], lab[1][1], lab[0][2]}
        assert len(labels) == 3

    def test_key_never_labeled(self):
        src = pd.DataFrame({"ID": ["0"], "a": [None]})
        _, lab, _ = _labeled(src)
        assert lab[0][0] == "0"

    def test_duplicate_key_labels_every_null(self):
        # one label per (key, column): the first row's null at a and the
        # second row's at b both label the key's table nulls
        src = pd.DataFrame({"ID": ["0", "0"], "a": [None, "x"], "b": ["y", None]})
        _, lab, labels = _labeled(src)
        assert labels == {("0",): {1: lab[0][1], 2: lab[1][2]}}

    def test_null_key_part_gets_no_labels(self):
        # the labelled copy keeps the row's label (the EIS guards score
        # against it), but no table row can align with a null key
        src = pd.DataFrame({"ID": [None, "1"], "a": [None, None]})
        _, lab, labels = _labeled(src)
        assert lab[0][1] == integ.LABEL_PREFIX + "\x1fa"
        assert list(labels) == [("1",)]


class TestApplyRemoveLabels:
    def test_roundtrip(self, fig3_source, fig3_tables):
        cols, _, labels = _labeled(fig3_source)
        g = cols.index("Gender")
        # give A a Gender column with a null where S is null (Smith)
        a = fig3_tables["A"].assign(Gender=None)
        held = frozenset(cols.index(c) for c in a.columns)
        labeled = integ._apply_labels(mc.norm_rows(a, cols), labels, [0], held)
        smith, brown = labeled[0], labeled[1]
        assert smith[0] == "0" and smith[g].startswith(integ.LABEL_PREFIX)
        # Brown's Gender is non-null in S, so his table-null stays null
        assert brown[0] == "1" and brown[g] is None
        # and removal restores nulls
        restored = integ._revert_labels(labeled, labels)
        assert restored[0][g] is None
        # a table without a Gender column gets no label there
        held = frozenset(cols.index(c) for c in fig3_tables["A"].columns)
        bare = integ._apply_labels(mc.norm_rows(a, cols), labels, [0], held)
        assert bare[0][g] is None

    def test_only_produced_labels_revert(self):
        src = pd.DataFrame({"ID": ["0", "1"], "a": [None, "##NULL##x"]})
        _, lab, labels = _labeled(src)
        restored = integ._revert_labels(lab, labels)
        assert [r[1] for r in restored] == [None, "##NULL##x"]


def _keyed_d(fig3_tables):
    ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
    d = fig3_tables["D"].copy()
    d.insert(0, "ID", d["Name"].map(ids))
    return d


class TestIntegrate:
    def test_perfect_reclamation_from_complementary_tables(self, fig3_source, fig3_tables):
        tables = [fig3_tables["A"], _keyed_d(fig3_tables)]
        out = integ.integrate(tables, fig3_source, KEY)
        assert mc.is_perfect(fig3_source, out)

    def test_erroneous_table_does_not_corrupt_source_tuples(self, fig3_source, fig3_tables):
        ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
        c = fig3_tables["C"].copy()  # all-Male Gender, partly wrong
        c.insert(0, "ID", c["Name"].map(ids))
        tables = [fig3_tables["A"], _keyed_d(fig3_tables), c]
        out = integ.integrate(tables, fig3_source, KEY)
        rec, pre = mc.recall_precision(fig3_source, out)
        # every source tuple is still reclaimed; C's contradictions may add
        # extra tuples but must not overwrite correct ones
        assert rec == 1.0
        assert mc.eis(fig3_source, out, KEY) >= 0.9

    def test_missing_column_padded(self, fig3_source, fig3_tables):
        out = integ.integrate([fig3_tables["A"]], fig3_source, KEY)
        assert list(out.columns) == list(fig3_source.columns)
        assert out["Age"].isna().all()

    def test_select_drops_foreign_keys(self, fig3_source, fig3_tables):
        # integrate takes key slices: ProjectSelect cuts the foreign key
        # while the slice is made, before integration
        a = fig3_tables["A"].copy()
        a.loc[len(a)] = ["99", "Stranger", "PhD"]
        sl = ops.project_select_pdf(a, fig3_source, KEY)
        assert "99" not in set(sl["ID"])
        out = integ.integrate([sl], fig3_source, KEY)
        assert "99" not in set(out["ID"])

    def test_empty_input(self, fig3_source):
        assert integ.integrate([], fig3_source, KEY) is None

    def test_table_without_key_skipped(self, fig3_source, fig3_tables):
        assert integ.integrate([fig3_tables["B"]], fig3_source, KEY) is None

    def test_no_labeled_values_leak(self, fig3_source, fig3_tables):
        out = integ.integrate(
            [fig3_tables["A"], _keyed_d(fig3_tables)], fig3_source, KEY
        )
        for c in out.columns:
            assert not out[c].astype(str).str.startswith(integ.LABEL_PREFIX).any()

    def test_label_lookalike_lake_value_survives(self):
        # a genuine value that starts with the label prefix is data, not a
        # label: integration must return it unchanged
        src = pd.DataFrame({"ID": ["0", "1"], "a": ["##NULL##x", None], "b": ["p", "q"]})
        t1 = pd.DataFrame({"ID": ["0", "1"], "a": ["##NULL##x", None]})
        t2 = pd.DataFrame({"ID": ["0", "1"], "b": ["p", "q"]})
        out = integ.integrate([t1, t2], src, KEY)
        assert mc.is_perfect(src, out)
        assert out.loc[out["ID"] == "0", "a"].tolist() == ["##NULL##x"]

    def test_runs_no_spark_job(self, spark, fig3_source, fig3_tables):
        # integration works on |S|-bounded slices on the driver; any Spark
        # work creeping back in shows up as a job in this group
        sc = spark.sparkContext
        group = "integrate-no-spark"
        with job_group(sc, group, "integrate must not start Spark jobs"):
            ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
            c = fig3_tables["C"].copy()
            c.insert(0, "ID", c["Name"].map(ids))
            out = integ.integrate(
                [fig3_tables["A"], _keyed_d(fig3_tables), c], fig3_source, KEY
            )
        sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)  # job events are async
        assert len(out) >= len(fig3_source)
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


def _assert_same(got, want):
    """Columns, rows in order, dtypes, and None for every null."""
    if want is None:
        assert got is None
        return
    pd.testing.assert_frame_equal(got, want)
    assert got.values.tolist() == want.values.tolist()
    assert all(v is None or type(v) is str for v in got.to_numpy().ravel())


def _label(key, col):
    return integ.LABEL_PREFIX + "\x1f".join("" if v is None else v for v in key) + "\x1f" + col


def _tiny_lake(seed):
    """A seeded keyed source of 5–20 rows and 1–6 tables cut from TP-TR-like
    variants of its base table: complementary null halves, independent
    errors, and the clean table. Each table holds the key and a random
    subset of S's other columns in a random order; rows are sampled with
    repeats (some tables get none), and a few cells hold null key parts,
    label look-alikes or the exact label of one of S's nulls. Half the
    seeds ProjectSelect the tables, as Gen-T does."""
    g = np.random.default_rng(seed)
    key = [f"k{i}" for i in range(int(g.integers(1, 3)))]
    nk = [f"c{i}" for i in range(int(g.integers(1, 5)))]
    n, extra = int(g.integers(5, 21)), int(g.integers(0, 4))
    dom = n if len(key) == 1 else 4  # repeats: duplicate source keys
    foreign = [f"f{i}" for i in range(extra)]  # keys S lacks
    base = {k: [str(v) for v in g.integers(0, dom, n)] + foreign for k in key}
    base.update({c: [f"{c}v{v}" for v in g.integers(0, 4, n + extra)] for c in nk})
    base = pd.DataFrame(base)

    src = base.iloc[:n].copy()
    for c in nk:
        src.loc[g.random(n) < 0.25, c] = None
    for k in key:
        src.loc[g.random(n) < 0.05, k] = None
    src = src[list(g.permutation(list(src.columns)))].reset_index(drop=True)
    s_nulls = [
        (tuple(r[k] for k in key), c) for _, r in src.iterrows() for c in nk if r[c] is None
    ]

    variants = [base]
    half = g.random(base.shape) < 0.5
    for mask in (half, ~half):
        v = base.copy()
        v[nk] = v[nk].where(~(mask[:, len(key):] & (g.random((len(v), len(nk))) < 0.6)), None)
        variants.append(v)
    for suffix in ("a", "b"):
        v = base.copy()
        for c in nk:
            at = np.flatnonzero(g.random(len(v)) < 0.3)
            v.loc[at, c] = [f"err_{suffix}_{c}_{i}" for i in at]
        variants.append(v)

    tables = []
    for _ in range(int(g.integers(1, 7))):
        v = variants[int(g.integers(len(variants)))]
        held = [c for c in nk if g.random() < 0.6]
        cols = list(g.permutation(key + held))
        m = 0 if g.random() < 0.1 else int(g.integers(1, len(v) + 3))
        t = v.iloc[g.integers(0, len(v), m)][cols].reset_index(drop=True)
        for c in cols:
            for i in np.flatnonzero(g.random(m) < 0.05):
                if c in key:
                    t.loc[i, c] = None
                elif s_nulls and g.random() < 0.5:
                    t.loc[i, c] = _label(*s_nulls[int(g.integers(len(s_nulls)))])
                else:
                    t.loc[i, c] = "##NULL##x"
        tables.append(t)
    if seed % 2:
        tables = [ops.project_select_pdf(t, src, key) for t in tables]
    return tables, src, key


class TestMatchesReference:
    """``integrate`` on row tuples against the pandas form it replaced
    (``tests/integrate_reference.py``)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_tiny_lakes(self, seed):
        tables, src, key = _tiny_lake(seed)
        _assert_same(integ.integrate(tables, src, key), ref.integrate(tables, src, key))

    def test_tiny_lakes_cover_the_edge_cases(self):
        seen = set()
        for seed in range(60):
            tables, src, key = _tiny_lake(seed)
            cols = list(src.columns)
            full = src[key].notna().all(axis=1)
            if src.loc[full, key].duplicated().any():
                seen.add("duplicate source keys")
            if not full.all():
                seen.add("null key part")
            if any(len(t) == 0 for t in tables):
                seen.add("empty slice")
            if any(set(t.columns) < set(cols) for t in tables):
                seen.add("subset of S's columns")
            if any([c for c in cols if c in t.columns] != list(t.columns) for t in tables):
                seen.add("other column order")
            cells = pd.concat(tables).to_numpy().ravel()
            if any(isinstance(v, str) and v.startswith(integ.LABEL_PREFIX) for v in cells):
                seen.add("label look-alike")
        assert seen == {
            "duplicate source keys", "null key part", "empty slice",
            "subset of S's columns", "other column order", "label look-alike",
        }

    def test_fig3(self, fig3_source, fig3_tables):
        ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
        c = fig3_tables["C"].copy()
        c.insert(0, "ID", c["Name"].map(ids))
        tables = [fig3_tables["A"], _keyed_d(fig3_tables), c]
        want = ref.integrate(tables, fig3_source, KEY)
        _assert_same(integ.integrate(tables, fig3_source, KEY), want)

    def test_last_step_rejects_kappa_and_beta(self):
        # k1: A's (x, -) is subsumed by B's (x, z), and β would drop the
        # better match; k2: A's (x2, -) complements B's (-, z2), and κ's
        # merge scores lower. Both guards reject, so the result is the plain
        # concatenation: A's rows, then B's, not regrouped by key.
        src = pd.DataFrame(
            {"k": ["k1", "k2"], "a": ["x", "x2"], "b": ["y", "y2"], "c": ["w", "w2"]}
        )
        a = pd.DataFrame({"k": ["k1", "k2"], "a": ["x", "x2"]})
        b = pd.DataFrame({"b": ["z", "z2"], "k": ["k1", "k2"], "a": ["x", None]})
        got = integ.integrate([a, b], src, ["k"])
        assert got.values.tolist() == [
            ["k1", "x", None, None], ["k2", "x2", None, None],
            ["k1", "x", "z", None], ["k2", None, "z2", None],
        ]
        _assert_same(got, ref.integrate([a, b], src, ["k"]))

    def test_lake_value_equal_to_a_label_reverts(self):
        # RemoveLabeledNulls is a set lookup: a lake cell equal to a label S
        # produced becomes null, as in the pandas form
        src = pd.DataFrame({"ID": ["0", "1"], "a": [None, "p"]})
        t = pd.DataFrame({"ID": ["0", "1"], "a": [None, _label(("0",), "a")]})
        got = integ.integrate([t], src, KEY)
        assert got["a"].tolist() == [None, None]
        _assert_same(got, ref.integrate([t], src, KEY))

    def test_empty_slices(self, fig3_source):
        empty = pd.DataFrame({"ID": [], "Name": []}, dtype=object)
        got = integ.integrate([empty, empty[["ID"]]], fig3_source, KEY)
        assert list(got.columns) == list(fig3_source.columns) and len(got) == 0
        _assert_same(got, ref.integrate([empty, empty[["ID"]]], fig3_source, KEY))


class TestInnerUnion:
    def test_groups_by_schema(self, monkeypatch):
        # tables sharing a schema, in any column order, are unioned before
        # TakeMinimalForm, in order of each schema's first table
        seen = []
        kernel = ops.minimal_form_rows
        monkeypatch.setattr(ops, "minimal_form_rows", lambda g: seen.append(g) or kernel(g))
        src = pd.DataFrame({"k": ["1", "2"], "a": ["x", "y"], "b": ["p", "q"]})
        t1 = pd.DataFrame({"k": ["1", "1"], "a": ["x", None]})
        t2 = pd.DataFrame({"a": ["x"], "k": ["1"]})
        t3 = pd.DataFrame({"k": ["1", "1"], "b": ["p", "p"]})
        integ.integrate([t1, t3, t2], src, ["k"])
        assert seen[:2] == [
            [("1", "x", None), ("1", None, None), ("1", "x", None)],
            [("1", None, "p"), ("1", None, "p")],
        ]


class TestGenTEndToEnd:
    def test_fig3_full_pipeline(self, spark, fig3_repo, fig3_source):
        from repro.core.discovery import set_similarity
        from repro.core.gent import reclaim_from_candidates

        cands = set_similarity(spark, fig3_repo, fig3_source, KEY, tau=0.3)
        res = reclaim_from_candidates(spark, fig3_repo, cands, fig3_source, KEY)
        assert res.reclaimed is not None
        out = res.reclaimed.toPandas()
        rec, pre = mc.recall_precision(fig3_source, out)
        assert rec == 1.0
        assert pre == 1.0
        # Table C's misleading Gender column must have been pruned
        assert not any(n.startswith("C") for n in res.originating)

    def test_coarse_retrieval_end_to_end(self, spark, fig3_repo, fig3_source):
        from repro.harness.runner import run_source

        [cell] = run_source(
            spark, fig3_repo, "fig3", fig3_source, KEY, ["gen_t"], tau=0.3, coarse_k=5
        )
        assert cell.error is None
        assert cell.perfect
        assert (cell.recall, cell.precision) == (1.0, 1.0)
