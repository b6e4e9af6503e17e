"""Shared SparkSession bootstrap for spark-submit / plain-python jobs.

Mirrors conftest.py's configuration (driver memory via env, broadcast
joins disabled, Arrow on) so job runs and test runs exercise the same
planner behaviour.
"""
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _put_src_on_path() -> None:
    """Make ``repro`` importable in this process and in the Python workers
    the JVM starts, without installing the package. Must run before pyspark
    launches its gateway: workers inherit the gateway's ``PYTHONPATH``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    prev = os.environ.get("PYTHONPATH")
    if str(SRC) not in (prev or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + prev if prev else "")


def get_spark(app: str):
    _put_src_on_path()
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
