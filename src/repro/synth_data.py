"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


_N_SUPPLIER_PER_SF = 10_000

_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
# nationkey -> regionkey, fixed as in TPC-H dbgen
_NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1]


def supplier(spark: SparkSession, *, sf: float = 0.01, seed: int = 6) -> DataFrame:
    """TPC-H-lite supplier: 10K rows per SF, FK to nation."""
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_name": [f"Supplier#{i:09d}" for i in range(1, n + 1)],
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 11000 - 1000).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def partsupp(spark: SparkSession, *, sf: float = 0.01, seed: int = 7) -> DataFrame:
    """TPC-H-lite partsupp: 4 suppliers per part, key (ps_partkey, ps_suppkey)."""
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    partkeys = np.repeat(np.arange(1, n_part + 1), 4)
    # distinct suppliers per part, dbgen-style stride
    suppkeys = ((partkeys + np.tile(np.arange(4), n_part) * max(1, n_supp // 4)) % n_supp) + 1
    pdf = pd.DataFrame(
        {
            "ps_partkey": partkeys,
            "ps_suppkey": suppkeys,
            "ps_availqty": g.integers(1, 10000, len(partkeys)),
            "ps_supplycost": (g.random(len(partkeys)) * 1000 + 1).round(2),
        }
    ).drop_duplicates(["ps_partkey", "ps_suppkey"])
    return spark.createDataFrame(pdf)


def nation(spark: SparkSession, *, sf: float = 0.01, seed: int = 8) -> DataFrame:
    """TPC-H nation: fixed 25 rows regardless of SF."""
    pdf = pd.DataFrame(
        {
            "n_nationkey": np.arange(25),
            "n_name": _NATIONS,
            "n_regionkey": _NATION_REGION,
        }
    )
    return spark.createDataFrame(pdf)


def region(spark: SparkSession, *, sf: float = 0.01, seed: int = 9) -> DataFrame:
    """TPC-H region: fixed 5 rows regardless of SF."""
    pdf = pd.DataFrame({"r_regionkey": np.arange(5), "r_name": _REGIONS})
    return spark.createDataFrame(pdf)
