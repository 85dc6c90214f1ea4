"""Shared spark-submit session bootstrap for the jobs/ entrypoints.

When run under pytest, experiments use the conftest ``spark`` fixture; when
run via ``spark-submit jobs/<name>.py`` (or plain ``python jobs/<name>.py``)
this module builds an equivalent local session.
"""
from __future__ import annotations

import os
import sys

# Make the repo root importable when invoked as a plain script, and `src`
# on the driver and on the Python workers: the workers are forked by the
# JVM and inherit PYTHONPATH from its environment, so it is set before
# the JVM launches.
_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _ROOT)
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH", "")) if p
)

import conftest  # noqa: E402,F401  (sets PYSPARK_SUBMIT_ARGS pre-import)
from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app_name: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
