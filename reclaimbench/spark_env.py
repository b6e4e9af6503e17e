"""The benchmark's own Spark bootstrap.

Everything that must be fixed before the JVM starts is set here: master,
driver memory, JVM flags, scratch directories, and ``PYTHONPATH`` with
``src`` on it so that ``applyInPandas`` workers can import ``repro``.
Every run record holds the configuration the live session reports
(:func:`live_conf`).
"""
from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import time
from pathlib import Path

CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 4
DRIVER_MEMORY = "2g"
# No perf-data file: HotSpot would write it under /tmp, outside the checkout.
NO_PERF_DATA = "-XX:-UsePerfData"
# Unlike conftest.py and jobs/_session.py, the benchmark's JVM runs C1-only
# with the serial collector. A run lives about a minute, and set-up is most
# of it. On TP-TR Small (4 vCPUs), set-up took 41-46 s with these flags and
# 47-54 s without, and the JVM's peak RSS was 613-627 MB against
# 1,249-1,262 MB; per-source latency was not slower (README.md).
JAVA_OPTS = f"-XX:TieredStopAtLevel=1 -XX:+UseSerialGC {NO_PERF_DATA}"


def prepare_env(src: Path, tmp: Path) -> None:
    """Point Python, the JVM and the workers at ``src`` and ``tmp``.

    Must run before pyspark launches its gateway.
    """
    prev = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + prev if prev else "")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    os.environ["SPARK_LAUNCHER_OPTS"] = NO_PERF_DATA  # spark-submit's own launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f'--driver-java-options "{JAVA_OPTS} -Djava.io.tmpdir={tmp}" '
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )


def start_session():
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("reclaimbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def live_conf(spark) -> dict:
    """The session's Spark configuration, as Spark reports it."""
    conf = dict(spark.sparkContext.getConf().getAll())
    conf["spark.sql.shuffle.partitions"] = spark.conf.get("spark.sql.shuffle.partitions")
    return dict(sorted(conf.items()))


def jvm_pid(spark) -> int:
    return spark.sparkContext._gateway.proc.pid


def stop_session(spark, timeout: float = 30.0) -> None:
    """Stop Spark, end the gateway JVM and wait for it and its workers."""
    from reclaimbench import procstat

    proc: subprocess.Popen = spark.sparkContext._gateway.proc
    workers = procstat.descendants(proc.pid)
    try:
        spark.stop()
    finally:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        for pid in workers:
            while procstat.alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if procstat.alive(pid):
                os.kill(pid, signal.SIGKILL)
