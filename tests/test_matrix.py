"""Three-valued matrices: Eq 4 encoding, Combine(), traversal (Alg 1)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import matrix as mtx
from repro.core import operators as ops
from tests import matrix_reference as ref

KEY = ["ID"]


def enc(source, aligned):
    return mtx.encode_matrix(source, aligned, KEY)


def groups(m, source):
    """The matrix as ``key tuple → list of rows``."""
    return ref.to_dict(m, ref.source_keys(source, KEY))


KEYS = [("0",), ("1",)]


def mat(rows_by_key):
    """A matrix over the keys "0" and "1" from ``key tuple → rows``."""
    width = len(next(iter(rows_by_key.values()))[0])
    return ref.to_matrix(rows_by_key, {k: i for i, k in enumerate(KEYS)}, width)


class TestEncode:
    """Columns of fig3_source: ID, Name, Age, Gender, Education Level."""

    def test_table_a_codes(self, fig3_source, fig3_tables):
        m = groups(enc(fig3_source, fig3_tables["A"]), fig3_source)
        # A lacks Age (→0 where S non-null); Gender: S null & A missing → 1
        assert m[("0",)][0].tolist() == [1, 1, 0, 1, 1]
        assert m[("1",)][0].tolist() == [1, 1, 0, 0, 0]  # Edu null, Gender S=Male
        assert m[("2",)][0].tolist() == [1, 1, 0, 0, 1]

    def test_erroneous_value_is_minus_one(self, fig3_source):
        aligned = pd.DataFrame(
            {"ID": ["1"], "Name": ["Brown"], "Gender": ["Female"]}
        )
        m = groups(enc(fig3_source, aligned), fig3_source)
        # Gender contradicts (Male vs Female) → −1
        assert m[("1",)][0].tolist() == [1, 1, 0, -1, 0]

    def test_nonnull_on_source_null_is_minus_one(self, fig3_source):
        aligned = pd.DataFrame({"ID": ["0"], "Gender": ["Male"]})
        m = groups(enc(fig3_source, aligned), fig3_source)
        assert m[("0",)][0][3] == -1

    def test_unaligned_rows_dropped(self, fig3_source):
        aligned = pd.DataFrame({"ID": ["99"], "Name": ["Nobody"]})
        assert len(enc(fig3_source, aligned)) == 0

    def test_duplicate_rows_deduped(self, fig3_source, fig3_tables):
        doubled = pd.concat([fig3_tables["A"]] * 2, ignore_index=True)
        m = groups(enc(fig3_source, doubled), fig3_source)
        assert len(m) == 3
        assert all(len(rows) == 1 for rows in m.values())

    def test_empty_aligned(self, fig3_source):
        assert len(enc(fig3_source, pd.DataFrame(columns=["ID"]))) == 0


class TestCombine:
    def test_or_when_compatible(self):
        m1 = mat({("0",): [np.array([1, 1, 0, 0], dtype=np.int8)]})
        m2 = mat({("0",): [np.array([1, 0, 1, 0], dtype=np.int8)]})
        out = ref.to_dict(mtx.combine(m1, m2), KEYS)
        assert out[("0",)][0].tolist() == [1, 1, 1, 0]
        assert len(out[("0",)]) == 1

    def test_conflict_keeps_both(self):
        m1 = mat({("0",): [np.array([1, 1], dtype=np.int8)]})
        m2 = mat({("0",): [np.array([1, -1], dtype=np.int8)]})
        out = ref.to_dict(mtx.combine(m1, m2), KEYS)
        assert len(out[("0",)]) == 2

    def test_zero_vs_minus_one_merges_keeping_error(self):
        # 0 (null) and −1 (error) are not conflicting, and the real κ merge
        # keeps the erroneous value — so the combined code is −1
        m1 = mat({("0",): [np.array([1, 0], dtype=np.int8)]})
        m2 = mat({("0",): [np.array([1, -1], dtype=np.int8)]})
        out = ref.to_dict(mtx.combine(m1, m2), KEYS)
        assert len(out[("0",)]) == 1
        assert out[("0",)][0].tolist() == [1, -1]

    def test_disjoint_keys_union(self):
        m1 = mat({("0",): [np.array([1], dtype=np.int8)]})
        m2 = mat({("1",): [np.array([1], dtype=np.int8)]})
        out = ref.to_dict(mtx.combine(m1, m2), KEYS)
        assert set(out) == {("0",), ("1",)}

    def test_inputs_not_mutated(self):
        m1 = mat({("0",): [np.array([1, 0], dtype=np.int8)]})
        m2 = mat({("0",): [np.array([0, 1], dtype=np.int8)]})
        mtx.combine(m1, m2)
        assert m1.codes.tolist() == [[1, 0]]
        assert m2.codes.tolist() == [[0, 1]]


class TestEvaluateSimilarity:
    def test_perfect(self, fig3_source):
        m = enc(fig3_source, fig3_source)
        assert mtx.evaluate_similarity(m, fig3_source, KEY) == pytest.approx(1.0)

    def test_missing_tuples_penalized(self, fig3_source):
        m = enc(fig3_source, fig3_source.iloc[:1])
        assert mtx.evaluate_similarity(m, fig3_source, KEY) == pytest.approx(1 / 3)

    def test_matches_real_eis(self, fig3_source, fig3_tables):
        # the simulation's whole premise: matrix EIS == table EIS
        from repro.core import metrics_core as mc

        m = enc(fig3_source, fig3_tables["A"])
        assert mtx.evaluate_similarity(m, fig3_source, KEY) == pytest.approx(
            mc.eis(fig3_source, fig3_tables["A"], KEY)
        )


class TestTraversal:
    @pytest.fixture()
    def keyed_tables(self, fig3_tables):
        """B, C, D manually expanded with the key (what Expand produces)."""
        ids = {"Smith": "0", "Brown": "1", "Wang": "2"}
        out = {"A": fig3_tables["A"]}
        for n in ("B", "C", "D"):
            t = fig3_tables[n].copy()
            t.insert(0, "ID", t["Name"].map(ids))
            out[n] = t
        return out

    def test_traversal_drops_table_c(self, fig3_source, keyed_tables):
        # Example 3: integrating A, B, D alone beats using all four —
        # C's all-Male Gender column contradicts the source
        matrices = {
            n: enc(fig3_source, t) for n, t in keyed_tables.items()
        }
        chosen = mtx.matrix_traversal(matrices, fig3_source, KEY)
        assert "C" not in chosen
        assert "A" in chosen and "D" in chosen

    def test_traversal_reaches_perfect_score(self, fig3_source, keyed_tables):
        matrices = {n: enc(fig3_source, t) for n, t in keyed_tables.items()}
        chosen = mtx.matrix_traversal(matrices, fig3_source, KEY)
        acc = matrices[chosen[0]]
        for n in chosen[1:]:
            acc = mtx.combine(acc, matrices[n])
        assert mtx.evaluate_similarity(acc, fig3_source, KEY) == pytest.approx(1.0)

    def test_empty(self, fig3_source):
        assert mtx.matrix_traversal({}, fig3_source, KEY) == []

    def test_single(self, fig3_source, fig3_tables):
        m = {"A": enc(fig3_source, fig3_tables["A"])}
        assert mtx.matrix_traversal(m, fig3_source, KEY) == ["A"]

    def test_convergence_stops_early(self, fig3_source, keyed_tables):
        # adding an exact duplicate of D never improves the score, so the
        # traversal must not include both
        matrices = {n: enc(fig3_source, t) for n, t in keyed_tables.items()}
        matrices["D_dup"] = enc(fig3_source, keyed_tables["D"])
        chosen = mtx.matrix_traversal(matrices, fig3_source, KEY)
        assert not ({"D", "D_dup"} <= set(chosen))


class TestMatrixForCandidate(object):
    def test_encodes_key_slice(self, fig3_source, fig3_tables):
        sl = ops.project_select_pdf(fig3_tables["A"], fig3_source, KEY)
        m = groups(mtx.matrix_for_candidate(sl, fig3_source, KEY), fig3_source)
        assert m[("0",)][0].tolist() == [1, 1, 0, 1, 1]
