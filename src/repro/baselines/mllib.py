"""MLlib PrefixSpan wrapper (paper Fig. 13 comparator).

Spark MLlib's distributed PrefixSpan supports only a maximum-length
constraint (the paper's T1 setting: arbitrary gaps, no hierarchy). It uses
prefix-based partitioning with multiple communication rounds — the
contrast the paper draws against its one-round algorithms. Here it doubles
as an independent oracle for the T1 pattern expression
``.* (.)[.*(.)]{,λ-1} .*`` mined by the general stack.
"""
from __future__ import annotations

from typing import Dict, Tuple

from pyspark.ml.fpm import PrefixSpan
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def prefixspan(
    spark: SparkSession,
    df: DataFrame,
    sigma: int,
    lam: int,
) -> Dict[Tuple[str, ...], int]:
    """Frequent subsequences (length ≤ λ, support ≥ σ) via MLlib.

    ``df["items"]`` holds item-string arrays; MLlib wants sequences of
    itemsets, so each item becomes a singleton itemset. MLlib's count
    threshold is ``ceil(minSupport · n)``; σ − ½ makes it exactly σ.
    """
    n = df.count()
    seqs = df.select(
        F.transform(F.col("items"), lambda x: F.array(x)).alias("sequence")
    )
    ps = PrefixSpan(
        minSupport=(sigma - 0.5) / n,
        maxPatternLength=lam,
        maxLocalProjDBSize=32_000_000,
    )
    rows = ps.findFrequentSequentialPatterns(seqs).collect()
    out: Dict[Tuple[str, ...], int] = {}
    for r in rows:
        pattern = tuple(itemset[0] for itemset in r["sequence"])
        out[pattern] = int(r["freq"])
    return out
