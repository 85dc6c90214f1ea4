"""Spark f-list computation (preprocessing step, paper Sec. II & VII-A).

The f-list — per item, the number of input sequences containing the item or
any of its descendants — has one definition,
:func:`repro.hierarchy.document_frequencies`. Spark maps it over the
DataFrame's partitions and the driver sums the per-partition counts: one
action, no shuffle. The vocabulary-sized result becomes a
:class:`repro.hierarchy.Dictionary`, which the mining jobs broadcast to
executors. The paper likewise treats f-list construction as a one-off
preprocessing step and excludes it from run times.
"""
from __future__ import annotations

from typing import Mapping, Optional, Sequence

from pyspark.sql import DataFrame, SparkSession

from repro.core.framework import merge_weight_dicts
from repro.hierarchy import Dictionary, ancestor_closure, document_frequencies


def build_dictionary(
    spark: SparkSession,
    df: DataFrame,
    hierarchy: Mapping[str, Sequence[str]],
    item_col: str = "items",
    order: Optional[Sequence[str]] = None,
) -> Dictionary:
    """Spark-computed f-list → frequency-ordered :class:`Dictionary`."""
    closure = ancestor_closure(dict(hierarchy))

    def count_partition(rows):
        yield document_frequencies((row[0] for row in rows), closure)

    freqs = (
        df.select(item_col).rdd.mapPartitions(count_partition)
        .fold({}, merge_weight_dicts)
    )
    return Dictionary.build([], hierarchy, dfreq=freqs, order=order)
