"""The SparkSession bootstrap of the tests and ``jobs/``.

Everything fixed at JVM launch (master, driver memory) goes into
``PYSPARK_SUBMIT_ARGS`` before the gateway starts; the per-session
settings (shuffle partitions, Arrow, no broadcast joins) go on the
builder. Broadcast joins are disabled so the baselines' joins exercise the
shuffle path.
"""
from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1]
SHUFFLE_PARTITIONS = 16


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half the machine's memory, between
    2g and 8g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    half_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (2 << 30)
    return f"{min(8, max(2, half_gib))}g"


def _put_src_on_pythonpath() -> None:
    """Let the Python workers the JVM starts import ``repro`` without the
    package installed. Must run before pyspark launches its gateway:
    workers inherit the gateway's ``PYTHONPATH``."""
    prev = os.environ.get("PYTHONPATH")
    if str(SRC) not in (prev or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + prev if prev else "")


def get_spark(app: str):
    _put_src_on_pythonpath()
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
