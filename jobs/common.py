"""The SparkSession of the spark-submit jobs (``jobs/tables.py``)."""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """SparkSession for standalone job runs (tests use the conftest fixture).

    The master is ``SPARK_MASTER`` when set, else local mode; it overrides a
    ``--master`` given to ``spark-submit``.
    """
    import os

    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
