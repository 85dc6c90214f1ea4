"""The distributed FSM skeleton (paper Alg. 1) and its plumbing.

All four algorithms (NAÏVE, SEMI-NAÏVE, D-SEQ, D-CAND) are one
map → shuffle → reduce round, :func:`one_round`, and differ only in the map
and reduce functions they pass to it. Around the skeleton: encoding
sequence DataFrames into RDDs of fid tuples, materializing results as
DataFrames, and counting shuffles in an RDD lineage.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Tuple

from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst


def with_seq_ids(df: DataFrame, item_col: str = "items") -> DataFrame:
    """Ensure a unique ``seq_id`` column (stable within the job)."""
    if "seq_id" in df.columns:
        return df
    return df.withColumn("seq_id", F.monotonically_increasing_id())


def encode_rdd(
    df: DataFrame, d: Dictionary, item_col: str = "items", num_partitions: int = 0
) -> RDD:
    """DataFrame of string-array sequences → RDD of fid tuples."""
    fid_of = d.fid_of
    rdd = df.select(item_col).rdd.map(lambda row: tuple(fid_of[t] for t in row[0]))
    if num_partitions:
        rdd = rdd.repartition(num_partitions)
    return rdd


def results_to_df(
    spark: SparkSession, results: List[Tuple[Tuple[int, ...], int]], d: Dictionary
) -> DataFrame:
    """[(fid tuple, support)] → DataFrame(pattern: string, support: long)."""
    schema = StructType(
        [
            StructField("pattern", StringType(), False),
            StructField("support", LongType(), False),
        ]
    )
    rows = [(d.decode_str(seq), int(f)) for seq, f in results]
    return spark.createDataFrame(rows, schema)


def count_shuffles(rdd: RDD) -> int:
    """Number of shuffle boundaries in an RDD lineage (for the one-round
    BSP property tests)."""
    debug = rdd.toDebugString().decode()
    return debug.count("ShuffledRDD")


def merge_weight_dicts(a: Dict, b: Dict) -> Dict:
    """Combiner merge: representation → weight (the paper's MapReduce
    combine function, used map-side by combineByKey)."""
    if len(b) > len(a):
        a, b = b, a
    for k, w in b.items():
        a[k] = a.get(k, 0) + w
    return a


def _add_rep(weights: Dict, rep) -> Dict:
    weights[rep] = weights.get(rep, 0) + 1
    return weights


def one_round(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    map_fn: Callable,
    reduce_fn: Callable,
    *,
    combine: bool = True,
) -> RDD:
    """Alg. 1: ``map_fn(fst, d, T)`` yields ``(key, rep)`` pairs for each
    sequence T; one shuffle groups them by key; ``reduce_fn(fst, d, key,
    {rep: weight})`` yields ``(subsequence, frequency)`` pairs. ``(fst, d)``
    is broadcast once for both phases.

    With ``combine`` (the default) identical reps are merged into weights
    map-side by ``combineByKey``, the paper's combine function; without it
    (Fig. 10b "no agg") every rep is shipped and counted by the reducer.
    """
    bc = seq_rdd.context.broadcast((fst, d))

    def map_phase(T):
        return map_fn(*bc.value, T)

    def reduce_phase(kv):
        return reduce_fn(*bc.value, *kv)

    mapped = seq_rdd.flatMap(map_phase)
    if combine:
        partitions = mapped.combineByKey(
            lambda rep: {rep: 1}, _add_rep, merge_weight_dicts
        )
    else:
        partitions = mapped.groupByKey().mapValues(Counter)
    return partitions.flatMap(reduce_phase)
