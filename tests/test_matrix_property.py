"""Seeded property tests: the numpy matrix kernels and ProjectSelect equal
the dict-of-lists reference (``matrix_reference``) exactly — groups and
rows in order, bit-equal EIS and the same traversal."""
import numpy as np
import pandas as pd
import pytest

from repro.core import matrix as mtx
from repro.core import operators as ops
from tests import matrix_reference as ref

VALUES = ["a", "b", "c", None, np.nan]  # two spellings of null
KEYS = ["0", "1", "2", None, np.nan]


def _source(g: np.random.Generator, key_cols: list[str], width: int) -> pd.DataFrame:
    """A small canonical source: duplicate keys and null key parts occur."""
    n = int(g.integers(0, 8))
    cols = {k: [KEYS[i] for i in g.integers(0, len(KEYS), n)] for k in key_cols}
    for j in range(width):
        cols[f"v{j}"] = [VALUES[i] for i in g.integers(0, 4, n)]
    return pd.DataFrame(cols, dtype=object)


def _aligned(g: np.random.Generator, source: pd.DataFrame, key_cols: list[str]) -> pd.DataFrame:
    """Candidate rows on S's keys and a few foreign ones, with a random
    subset of S's non-key columns: multi-row groups, conflicts, nulls."""
    n = int(g.integers(0, 14))
    cols = list(key_cols) + [
        c for c in source.columns if c not in key_cols and g.random() < 0.7
    ]
    return pd.DataFrame(
        {c: [(KEYS if c in key_cols else VALUES)[i] for i in g.integers(0, 5, n)] for c in cols},
        dtype=object,
    )


def _case(seed: int):
    g = np.random.default_rng(seed)
    key_cols = ["k0"] if g.random() < 0.6 else ["k0", "k1"]
    source = _source(g, key_cols, int(g.integers(1, 4)))
    tables = [_aligned(g, source, key_cols) for _ in range(int(g.integers(1, 5)))]
    return g, key_cols, source, tables


def _same(m: mtx.Matrix, want: ref.RefMatrix, keys: list[tuple]) -> None:
    got = ref.to_dict(m, keys)
    assert list(got) == list(want)  # groups in order
    for k in want:
        assert [r.tolist() for r in got[k]] == [r.tolist() for r in want[k]], k
    assert m.codes.dtype == np.int8


def _random_ref(g: np.random.Generator, n_keys: int, width: int) -> ref.RefMatrix:
    """A reference matrix with arbitrary codes: any number of rows per group,
    0-vs-−1 pairs and rows that fit several rows of a group."""
    out: ref.RefMatrix = {}
    for k in g.permutation(n_keys)[: int(g.integers(0, n_keys + 1))]:
        out[(str(k),)] = [
            g.integers(-1, 2, width).astype(np.int8) for _ in range(int(g.integers(1, 5)))
        ]
    return out


@pytest.mark.parametrize("seed", range(150))
def test_encode_combine_eis_traversal_match_reference(seed):
    _g, key_cols, source, tables = _case(seed)
    keys = ref.source_keys(source, key_cols)
    new = {f"t{i}": mtx.encode_matrix(source, t, key_cols) for i, t in enumerate(tables)}
    old = {f"t{i}": ref.encode_matrix(source, t, key_cols) for i, t in enumerate(tables)}
    for n in new:
        _same(new[n], old[n], keys)
        assert mtx.evaluate_similarity(new[n], source, key_cols) == ref.evaluate_similarity(
            old[n], source, key_cols
        )
    for a in new:
        for b in new:
            cmb = mtx.combine(new[a], new[b])
            want = ref.combine(old[a], old[b])
            _same(cmb, want, keys)
            assert mtx.evaluate_similarity(cmb, source, key_cols) == ref.evaluate_similarity(
                want, source, key_cols
            )
    assert mtx.matrix_traversal(new, source, key_cols) == ref.matrix_traversal(
        old, source, key_cols
    )


@pytest.mark.parametrize("seed", range(150))
def test_combine_of_arbitrary_codes_matches_reference(seed):
    # encoded matrices rarely hold many rows per key; arbitrary codes make
    # Combine's order dependence (first fitting row wins) show
    g = np.random.default_rng(10_000 + seed)
    n_keys, width = int(g.integers(1, 6)), int(g.integers(2, 5))
    source = pd.DataFrame(
        {"k": [str(i) for i in range(n_keys)], **{f"v{j}": ["x"] * n_keys for j in range(width - 1)}}
    )
    ids = {(str(i),): i for i in range(n_keys)}
    keys = [(str(i),) for i in range(n_keys)]
    refs = {f"t{i}": _random_ref(g, n_keys, width) for i in range(int(g.integers(1, 5)))}
    new = {n: ref.to_matrix(r, ids, width) for n, r in refs.items()}
    acc_new, acc_old = None, None
    for n in refs:
        acc_new = new[n] if acc_new is None else mtx.combine(acc_new, new[n])
        acc_old = refs[n] if acc_old is None else ref.combine(acc_old, refs[n])
        _same(acc_new, acc_old, keys)
        assert mtx.evaluate_similarity(acc_new, source, ["k"]) == ref.evaluate_similarity(
            acc_old, source, ["k"]
        )
    assert mtx.matrix_traversal(new, source, ["k"]) == ref.matrix_traversal(refs, source, ["k"])


def test_first_fitting_row_takes_the_merge():
    # both rows of the group fit [0, 0, 1]: the first one takes it
    ids = {("0",): 0}
    m1 = ref.to_matrix({("0",): [np.array([1, 0, 0]), np.array([0, 1, 0])]}, ids, 3)
    m2 = ref.to_matrix({("0",): [np.array([0, 0, 1])]}, ids, 3)
    got = ref.to_dict(mtx.combine(m1, m2), [("0",)])
    assert [r.tolist() for r in got[("0",)]] == [[1, 0, 1], [0, 1, 0]]


def test_empty_inputs():
    source = pd.DataFrame({"k": ["0"], "v": ["x"]})
    empty = mtx.encode_matrix(source, pd.DataFrame(columns=["k"]), ["k"])
    assert len(empty) == 0 and empty.codes.shape == (0, 2)
    one = mtx.encode_matrix(source, source, ["k"])
    for a, b in [(empty, empty), (empty, one), (one, empty)]:
        cmb = mtx.combine(a, b)
        assert ref.to_dict(cmb, [("0",)]).keys() == ({("0",)} if len(a) + len(b) else set())
    assert mtx.evaluate_similarity(empty, source, ["k"]) == 0.0
    assert mtx.evaluate_similarity(one, source.iloc[:0], ["k"]) == 0.0
    assert mtx.matrix_traversal({"e": empty}, source, ["k"]) == ["e"]


@pytest.mark.parametrize("seed", range(60))
def test_project_select_matches_reference(seed):
    # None/NaN key parts, duplicate and composite keys, row order
    _g, key_cols, source, tables = _case(20_000 + seed)
    for t in tables:
        t = t.assign(junk="j")
        pd.testing.assert_frame_equal(
            ops.project_select_pdf(t, source, key_cols),
            ref.project_select_pdf(t, source, key_cols),
        )
