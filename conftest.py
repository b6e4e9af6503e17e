import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session
    (``repro.session.get_spark``)."""
    s = get_spark("repro")
    yield s
    s.stop()
