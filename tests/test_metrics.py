"""Metric definitions, locked to the paper's worked Example 6 numbers."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import metrics as met
from repro.core import metrics_core as mc
from repro.core.operators import as_strings
from repro.lake.repository import canon_str, to_spark
from tests.conftest import jobs_started

KEY = ["ID"]


class TestExample6:
    """Exact values stated in the paper for Fig 3 / Fig 4."""

    def test_instance_similarity_s1(self, fig3_source, fig3_s1hat):
        assert mc.instance_similarity(fig3_source, fig3_s1hat, KEY) == pytest.approx(
            (3 / 4 + 4 / 4 + 3 / 4) / 3
        )

    def test_instance_similarity_s2(self, fig3_source, fig3_s2hat):
        assert mc.instance_similarity(fig3_source, fig3_s2hat, KEY) == pytest.approx(0.75)

    def test_eis_s1(self, fig3_source, fig3_s1hat):
        assert mc.eis(fig3_source, fig3_s1hat, KEY) == pytest.approx(0.875)

    def test_eis_s2(self, fig3_source, fig3_s2hat):
        assert mc.eis(fig3_source, fig3_s2hat, KEY) == pytest.approx(0.9166, abs=1e-3)

    def test_eis_prefers_nulls_over_errors(self, fig3_source, fig3_s1hat, fig3_s2hat):
        # The whole point of EIS (Example 6): Ŝ2 beats Ŝ1 despite lower
        # plain instance similarity.
        assert mc.eis(fig3_source, fig3_s2hat, KEY) > mc.eis(fig3_source, fig3_s1hat, KEY)
        assert mc.instance_similarity(
            fig3_source, fig3_s1hat, KEY
        ) > mc.instance_similarity(fig3_source, fig3_s2hat, KEY)

    def test_instance_divergence(self, fig3_source, fig3_s1hat):
        assert mc.instance_divergence(fig3_source, fig3_s1hat, KEY) == pytest.approx(
            1 - 0.8333, abs=1e-3
        )


class TestTupleSimilarity:
    NK = [1, 2, 3, 4]  # non-key indices for 5-col rows

    def test_identical(self):
        s = ("0", "a", "b", "c", "d")
        assert mc.error_aware_tuple_similarity(s, s, self.NK) == 1.0
        assert mc.tuple_similarity(s, s, self.NK) == 1.0

    def test_all_null_target(self):
        s = ("0", "a", "b", "c", "d")
        t = ("0", None, None, None, None)
        assert mc.error_aware_tuple_similarity(s, t, self.NK) == 0.0
        assert mc.tuple_similarity(s, t, self.NK) == 0.0

    def test_erroneous_penalized(self):
        s = ("0", "a", "b", "c", "d")
        t = ("0", "a", "b", "c", "WRONG")
        assert mc.error_aware_tuple_similarity(s, t, self.NK) == pytest.approx((3 - 1) / 4)
        assert mc.tuple_similarity(s, t, self.NK) == pytest.approx(3 / 4)

    def test_error_on_source_null_penalized(self):
        s = ("0", "a", None, "c", "d")
        t = ("0", "a", "X", "c", "d")
        # α=3, δ=1 (non-null where S is null counts as erroneous)
        assert mc.error_aware_tuple_similarity(s, t, self.NK) == pytest.approx(2 / 4)

    def test_both_null_counts_as_agreement_in_eis_only(self):
        s = ("0", "a", None, "c", "d")
        t = ("0", "a", None, "c", "d")
        assert mc.error_aware_tuple_similarity(s, t, self.NK) == 1.0
        assert mc.tuple_similarity(s, t, self.NK) == pytest.approx(3 / 4)

    def test_can_be_negative(self):
        s = ("0", "a", "b", "c", "d")
        t = ("0", "w", "x", "y", "z")
        assert mc.error_aware_tuple_similarity(s, t, self.NK) == -1.0


class TestRecallPrecision:
    def test_perfect(self, fig3_source):
        rec, pre = mc.recall_precision(fig3_source, fig3_source.copy())
        assert rec == 1.0 and pre == 1.0
        assert mc.is_perfect(fig3_source, fig3_source.copy())

    def test_empty_reclaimed(self, fig3_source):
        empty = fig3_source.iloc[0:0]
        rec, pre = mc.recall_precision(fig3_source, empty)
        assert rec == 0.0 and pre == 0.0

    def test_superset_hurts_precision_only(self, fig3_source):
        extra = fig3_source.copy()
        extra.loc[len(extra)] = ["9", "Zed", "99", "Male", "PhD"]
        rec, pre = mc.recall_precision(fig3_source, extra)
        assert rec == 1.0
        assert pre == pytest.approx(3 / 4)

    def test_null_safe_tuple_equality(self):
        s = pd.DataFrame({"k": ["0"], "v": [None]})
        r = pd.DataFrame({"k": ["0"], "v": [None]})
        assert mc.recall_precision(s, r) == (1.0, 1.0)

    def test_distinct_semantics(self, fig3_source):
        doubled = pd.concat([fig3_source, fig3_source], ignore_index=True)
        rec, pre = mc.recall_precision(fig3_source, doubled)
        assert rec == 1.0 and pre == 1.0

    def test_fig3_fd_result(self, fig3_source, fig3_s1hat):
        # Ŝ1 reclaims only the Brown tuple exactly (Smith got an erroneous
        # Gender, Wang split into two partial tuples).
        rec, pre = mc.recall_precision(fig3_source, fig3_s1hat)
        assert rec == pytest.approx(1 / 3)
        assert pre == pytest.approx(1 / 4)


class TestConditionalKL:
    def test_perfect_is_zero(self, fig3_source):
        assert mc.conditional_kl(fig3_source, fig3_source.copy(), KEY) == pytest.approx(0.0)

    def test_empty_is_max_penalty(self, fig3_source):
        empty = fig3_source.iloc[0:0]
        d = mc.conditional_kl(fig3_source, empty, KEY)
        # per column: 3 keys × −log(eps); divided by eps-floored Q(K)
        assert d == pytest.approx(3 * -math.log(mc.KL_EPS) / mc.KL_EPS)

    def test_error_worse_than_null(self):
        s = pd.DataFrame({"k": ["0", "1"], "v": ["a", "b"]})
        nulled = pd.DataFrame({"k": ["0", "1"], "v": ["a", None]})
        wrong = pd.DataFrame({"k": ["0", "1"], "v": ["a", "ERR"]})
        d_null = mc.conditional_kl(s, nulled, ["k"])
        d_wrong = mc.conditional_kl(s, wrong, ["k"])
        assert 0 < d_null <= d_wrong

    def test_foreign_keys_divide_score(self, fig3_source):
        # Extra non-source keys shrink Q(K) and inflate D_KL (why ALITE's
        # unselected outputs score ~36 in Table II). Both reclaimed tables
        # share one nullified value so the numerator is identical and only
        # Q(K) differs.
        imperfect = fig3_source.copy()
        imperfect.loc[0, "Age"] = None
        noisy = pd.concat(
            [
                imperfect,
                pd.DataFrame(
                    {
                        "ID": [str(i) for i in range(10, 40)],
                        "Name": ["x"] * 30,
                        "Age": ["0"] * 30,
                        "Gender": ["z"] * 30,
                        "Education Level": ["w"] * 30,
                    }
                ),
            ],
            ignore_index=True,
        )
        d_tight = mc.conditional_kl(fig3_source, imperfect, KEY)
        d_noisy = mc.conditional_kl(fig3_source, noisy, KEY)
        assert 0 < d_tight < d_noisy

    def test_s1_worse_than_s2(self, fig3_source, fig3_s1hat, fig3_s2hat):
        # Ŝ1 contains an erroneous Gender for Smith; Ŝ2 only nulls.
        assert mc.conditional_kl(fig3_source, fig3_s1hat, KEY) > mc.conditional_kl(
            fig3_source, fig3_s2hat, KEY
        )


class TestEisEdgeCases:
    def test_empty_source(self):
        e = pd.DataFrame(columns=["k", "v"])
        assert mc.eis(e, e, ["k"]) == 0.0

    def test_missing_tuple_contributes_zero(self):
        s = pd.DataFrame({"k": ["0", "1"], "v": ["a", "b"]})
        half = pd.DataFrame({"k": ["0"], "v": ["a"]})
        assert mc.eis(s, half, ["k"]) == pytest.approx(0.5)

    def test_all_null_aligned_is_half(self):
        s = pd.DataFrame({"k": ["0"], "v": ["a"]})
        t = pd.DataFrame({"k": ["0"], "v": [None]})
        assert mc.eis(s, t, ["k"]) == pytest.approx(0.5)

    def test_multi_attr_key(self):
        s = pd.DataFrame({"k1": ["0", "0"], "k2": ["a", "b"], "v": ["x", "y"]})
        t = pd.DataFrame({"k1": ["0", "0"], "k2": ["a", "b"], "v": ["x", None]})
        assert mc.eis(s, t, ["k1", "k2"]) == pytest.approx((1.0 + 0.5) / 2)

    def test_best_aligned_tuple_wins(self):
        s = pd.DataFrame({"k": ["0"], "a": ["1"], "b": ["2"]})
        t = pd.DataFrame({"k": ["0", "0"], "a": ["1", "ERR"], "b": [None, "ERR"]})
        # best row: α=1, δ=0 → 0.5·(1+0.5) = 0.75
        assert mc.eis(s, t, ["k"]) == pytest.approx(0.75)


def _reference(spark, df, source, key_cols) -> dict:
    """``metrics_core`` on the whole reclaimed table, collected."""
    cols = list(source.columns)
    full = as_strings(df).toPandas()
    rec, pre = mc.recall_precision(canon_str(source), full)
    src_keys = set(canon_str(source)[key_cols].dropna().itertuples(index=False, name=None))
    on_key = full.reindex(columns=cols)[key_cols].itertuples(index=False, name=None)
    aligned = full[[k in src_keys for k in on_key]]
    return {
        "recall": rec,
        "precision": pre,
        "inst_div": mc.instance_divergence(source, aligned, key_cols),
        "d_kl": mc.conditional_kl(source, aligned, key_cols),
        "eis": mc.eis(source, aligned, key_cols),
        "perfect": rec == 1.0 and pre == 1.0,
        "rows": len(full),
        "capped": False,
    }


def _on_path(spark, df, path: str):
    """``df``'s rows as a table held on the driver (``path`` "local", a
    ``LocalTable`` of its strings) or as a plan Spark must run ("spark",
    scored by one query)."""
    if path == "spark":
        return df.repartition(1)
    return met.LocalTable(as_strings(df).toPandas())


CASES = [
    "duplicates", "null_key_part", "missing_column", "extra_column", "typed",
    "empty", "empty_source", "big_mostly_unaligned", "all_null_column",
    "duplicate_source_keys",
]


class TestEvaluate:
    """``metrics.evaluate`` on both of its paths (a ``LocalTable`` on the
    driver, a Spark plan in one Spark query) against ``metrics_core`` on
    the fully collected reclaimed table."""

    @staticmethod
    def _cases(spark, fig3_source, fig3_s1hat, fig3_s2hat):
        dups = pd.concat(
            [fig3_s2hat, fig3_s2hat.iloc[[1, 1, 4, 7]], fig3_s1hat], ignore_index=True
        )
        null_src = pd.DataFrame(
            {"k1": ["0", "0", None], "k2": ["a", None, "c"], "v": ["x", "y", "z"]}
        )
        null_rec = pd.DataFrame(
            {
                "k1": ["0", "0", None, None, "0", None],
                "k2": ["a", None, "c", "c", "a", None],
                "v": ["x", "y", "z", "WRONG", None, "y"],
            }
        )
        typed = pd.DataFrame(
            {
                "id": [1, 2, 3],
                "price": [1.5, 2.0, None],
                "day": pd.to_datetime(["2024-01-02", "2024-02-03", "2024-03-04"]),
            }
        )
        typed_rec = pd.concat([typed, typed.iloc[[0]]], ignore_index=True)
        typed_rec.loc[1, "price"] = 2.5
        typed_rec.loc[3, "day"] = pd.Timestamp("2024-01-03")
        big = spark.range(50_000).select(
            (F.col("id") % 25_000).cast("string").alias("ID"),
            F.when(F.col("id") % 2 == 0, F.lit("Smith")).otherwise(F.lit("Brown")).alias("Name"),
            F.lit("27").alias("Age"),
            F.lit(None).cast("string").alias("Gender"),
            F.lit("Bachelors").alias("Education Level"),
        )
        dup_keys = pd.concat(
            [fig3_source, fig3_source.iloc[[0]].assign(Name="Smyth")], ignore_index=True
        )
        return {
            "duplicates": (to_spark(spark, dups), fig3_source, KEY),
            "null_key_part": (to_spark(spark, null_rec), null_src, ["k1", "k2"]),
            "missing_column": (
                to_spark(spark, fig3_s1hat.drop(columns=["Gender"])), fig3_source, KEY
            ),
            "extra_column": (
                to_spark(spark, fig3_s2hat.assign(Extra="e")), fig3_source, KEY
            ),
            "typed": (spark.createDataFrame(typed_rec), typed, ["id"]),
            "empty": (to_spark(spark, fig3_s1hat.iloc[0:0]), fig3_source, KEY),
            "empty_source": (to_spark(spark, fig3_s1hat), fig3_source.iloc[0:0], KEY),
            "big_mostly_unaligned": (big, fig3_source, KEY),
            "all_null_column": (
                to_spark(spark, fig3_s2hat.assign(Gender=None)),
                fig3_source.assign(Gender=None),
                KEY,
            ),
            "duplicate_source_keys": (to_spark(spark, fig3_s1hat), dup_keys, KEY),
        }

    def _check(self, spark, fig3_source, fig3_s1hat, fig3_s2hat, case, path):
        df, source, key_cols = self._cases(spark, fig3_source, fig3_s1hat, fig3_s2hat)[case]
        assert met.evaluate(spark, _on_path(spark, df, path), source, key_cols) == _reference(
            spark, df, source, key_cols
        )

    @pytest.mark.parametrize("case", CASES)
    def test_matches_full_collect(
        self, spark, fig3_source, fig3_s1hat, fig3_s2hat, case
    ):
        self._check(spark, fig3_source, fig3_s1hat, fig3_s2hat, case, "local")

    @pytest.mark.parametrize("case", CASES)
    def test_matches_full_collect_spark_path(
        self, spark, fig3_source, fig3_s1hat, fig3_s2hat, case
    ):
        self._check(spark, fig3_source, fig3_s1hat, fig3_s2hat, case, "spark")

    def test_duplicates_reach_d_kl(self, spark, fig3_source, fig3_s2hat):
        dups = pd.concat([fig3_s2hat, fig3_s2hat.iloc[[1, 1]]], ignore_index=True)
        once = met.evaluate(spark, to_spark(spark, fig3_s2hat), fig3_source, KEY)
        twice = met.evaluate(spark, to_spark(spark, dups), fig3_source, KEY)
        assert twice["d_kl"] < once["d_kl"]
        assert (twice["recall"], twice["precision"]) == (once["recall"], once["precision"])

    def test_none(self, spark, fig3_source):
        empty = fig3_source.iloc[0:0]
        assert met.evaluate(spark, None, fig3_source, KEY) == {
            "recall": 0.0,
            "precision": 0.0,
            "inst_div": mc.instance_divergence(fig3_source, empty, KEY),
            "d_kl": mc.conditional_kl(fig3_source, empty, KEY),
            "eis": mc.eis(fig3_source, empty, KEY),
            "perfect": False,
            "rows": 0,
            "capped": False,
        }

    @staticmethod
    def _capped(spark, fig3_source, monkeypatch, cap, path):
        # three distinct tuples on source keys, one of them twice, and a stray key
        rec = pd.concat([fig3_source, fig3_source.iloc[[0]]], ignore_index=True)
        rec.loc[len(rec)] = ["9", "Zed", "99", None, "PhD"]
        monkeypatch.setattr(met, "MAX_ALIGNED_COLLECT", cap)
        df = _on_path(spark, to_spark(spark, rec), path)
        return met.evaluate(spark, df, fig3_source, KEY), len(rec)

    @pytest.mark.parametrize("cap, capped", [(2, True), (3, False)])
    def test_cap_reported(self, spark, fig3_source, monkeypatch, cap, capped):
        out, n = self._capped(spark, fig3_source, monkeypatch, cap, "local")
        assert out["capped"] is capped
        assert out["rows"] == n

    @pytest.mark.parametrize("cap, capped", [(2, True), (3, False)])
    def test_cap_reported_spark_path(self, spark, fig3_source, monkeypatch, cap, capped):
        out, n = self._capped(spark, fig3_source, monkeypatch, cap, "spark")
        assert out["capped"] is capped
        assert out["rows"] == n

    def test_spark_jobs(self, spark, fig3_source, fig3_s2hat):
        # a table on the driver, typed (stringified there) or not, starts no job
        typed = pd.DataFrame({"ID": [0, 1, 2], "Age": [27, 24, 32]})
        for pdf in (fig3_s2hat, typed):
            t = met.LocalTable(pdf)
            got, jobs = jobs_started(spark, lambda: met.evaluate(spark, t, fig3_source, KEY))
            assert jobs == []
            assert got == met.evaluate(spark, met.LocalTable(canon_str(pdf)), fig3_source, KEY)
        _, jobs = jobs_started(spark, lambda: met.evaluate(spark, None, fig3_source, KEY))
        assert jobs == []

    def test_spark_jobs_spark_path(self, spark, fig3_source, fig3_s2hat):
        df = to_spark(spark, fig3_s2hat).repartition(1)
        _, jobs = jobs_started(spark, lambda: met.evaluate(spark, df, fig3_source, KEY))
        assert len(jobs) <= 4


def _norm_rows_reference(pdf, cols):
    """The row-by-row form ``metrics_core.norm_rows`` replaced; a column
    the frame lacks is all-null."""
    return [
        tuple(None if pd.isna(v) else str(v) for v in r)
        for r in pdf.reindex(columns=list(cols)).itertuples(index=False)
    ]


class TestNormRows:
    """``norm_rows`` builds its rows column by column; it must equal the
    row-by-row form on any mix of nulls and value types, and on columns
    the frame lacks."""

    @staticmethod
    def _frame(rng, n):
        pool = [None, np.nan, pd.NaT, pd.NA, 0, 7, -3, 1.5, 2.0, "", "a", "7", "None"]
        mixed = [pool[i] for i in rng.integers(len(pool), size=n)]
        floats = np.where(rng.random(n) < 0.3, np.nan, rng.normal(size=n).round(2))
        days = pd.Series(pd.to_datetime("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 400, size=n), unit="D"
        ))
        days[rng.random(n) < 0.3] = pd.NaT
        strs = [None if rng.random() < 0.3 else f"s{rng.integers(5)}" for _ in range(n)]
        return pd.DataFrame(
            {
                "mixed": pd.Series(mixed, dtype=object),
                "float": floats,
                "int": rng.integers(-5, 5, size=n),
                "nullable_int": pd.array(
                    [None if rng.random() < 0.3 else int(v) for v in rng.integers(9, size=n)],
                    dtype="Int64",
                ),
                "day": days,
                "str": pd.Series(strs, dtype=object),
                "nan_only": np.full(n, np.nan),
            }
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_to_row_by_row(self, seed):
        rng = np.random.default_rng(seed)
        pdf = self._frame(rng, int(rng.integers(0, 30)))
        pool = [*pdf.columns, "absent"]
        cols = list(rng.permutation(pool))[: int(rng.integers(1, len(pool) + 1))]
        assert mc.norm_rows(pdf, cols) == _norm_rows_reference(pdf, cols)
