"""Table II reproduction: dataset and hierarchy characteristics.

Paper columns (per dataset): total sequences, total items, unique items,
max sequence length, mean sequence length, hierarchy items, max ancestors,
mean ancestors. Sequence statistics are computed with Spark SQL
aggregations; hierarchy statistics come from the Dictionary (ancestor sets
include the item itself, matching the paper — CW50 has mean ancestors 1.0).
"""
from __future__ import annotations

from typing import Dict, List

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import datasets
from repro.experiments.constraints import SCALES
from repro.hierarchy import Dictionary


def sequence_stats(df: DataFrame) -> Dict[str, float]:
    row = (
        df.select(F.size("items").alias("len"), "items")
        .agg(
            F.count("*").alias("total_sequences"),
            F.sum("len").alias("total_items"),
            F.max("len").alias("max_len"),
            F.avg("len").alias("mean_len"),
        )
        .collect()[0]
    )
    unique = (
        df.select(F.explode("items").alias("item")).agg(
            F.countDistinct("item").alias("u")
        )
    ).collect()[0]["u"]
    return {
        "total_sequences": int(row["total_sequences"]),
        "total_items": int(row["total_items"]),
        "unique_items": int(unique),
        "max_len": int(row["max_len"]),
        "mean_len": float(row["mean_len"]),
    }


def hierarchy_stats(d: Dictionary) -> Dict[str, float]:
    sizes = [len(d.ancestors(f)) for f in range(1, len(d) + 1)]
    return {
        "hierarchy_items": len(d),
        "max_ancestors": max(sizes),
        "mean_ancestors": sum(sizes) / len(sizes),
    }


def run(spark: SparkSession, scale: str = "bench") -> List[Dict]:
    """One row per lite dataset, Table II's columns."""
    n, _ = SCALES[scale]
    rows: List[Dict] = []
    for name in datasets.DATASETS:
        seqs, hierarchy, df = datasets.frame(spark, name, n)
        row = {"dataset": name}
        row.update(sequence_stats(df))
        row.update(hierarchy_stats(Dictionary.build(seqs, hierarchy)))
        rows.append(row)
    return rows


def format_rows(rows: List[Dict]) -> str:
    hdr = (
        f"{'dataset':14} {'seqs':>6} {'items':>8} {'uniq':>6} "
        f"{'maxlen':>6} {'meanlen':>8} {'hier':>6} {'maxanc':>6} {'meananc':>8}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['dataset']:14} {r['total_sequences']:>6} {r['total_items']:>8} "
            f"{r['unique_items']:>6} {r['max_len']:>6} {r['mean_len']:>8.1f} "
            f"{r['hierarchy_items']:>6} {r['max_ancestors']:>6} "
            f"{r['mean_ancestors']:>8.2f}"
        )
    return "\n".join(lines)
