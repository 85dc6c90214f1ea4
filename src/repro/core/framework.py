"""The distributed FSM skeleton (paper Alg. 1) and its plumbing.

All four algorithms (NAÏVE, SEMI-NAÏVE, D-SEQ, D-CAND) are one
map → shuffle → reduce round, :func:`one_round`, and differ only in the map
and reduce functions they pass to it. Around the skeleton: encoding
sequence DataFrames into RDDs of fid tuples, decoding results into lazy
DataFrames, and counting shuffles in an RDD lineage.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.simulate import CandidateLimitExceeded


def encode_rdd(df: DataFrame, d: Dictionary) -> RDD:
    """DataFrame of string-array sequences (column ``items``) → RDD of fid tuples
    (:meth:`Dictionary.encode`, so an unknown item raises ValueError)."""
    return df.select("items").rdd.map(lambda row: d.encode(row[0]))


def results_to_df(
    spark: SparkSession, results: RDD | List[Tuple[Tuple[int, ...], int]], d: Dictionary
) -> DataFrame:
    """(fid tuple, support) pairs → lazy DataFrame(pattern: string, support:
    long). An RDD is decoded where its pairs are computed, in the same job as
    the first action on the DataFrame; a list is parallelized first."""
    if not isinstance(results, RDD):
        results = spark.sparkContext.parallelize(results)
    rows = results.map(lambda r: (d.decode_str(r[0]), int(r[1])))
    return spark.createDataFrame(rows, "pattern string not null, support bigint not null")


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
) -> RDD:
    """Alg. 1: ``map_fn(fst, d, T)`` yields ``(key, rep)`` pairs for each
    sequence T; one shuffle groups them by key; ``reduce_fn(fst, d, key,
    {rep: weight})`` yields ``(subsequence, frequency)`` pairs. ``(fst, d)``
    is broadcast once for both phases. Identical reps are merged into
    weights map-side by ``combineByKey``, the paper's combine function.
    A map-side :class:`CandidateLimitExceeded` or ValueError is re-raised
    with the input partition index and the record's offset in it.
    """
    bc = seq_rdd.context.broadcast((fst, d))

    def map_phase(index, records):
        fst_, d_ = bc.value
        offset = 0  # records consumed, so also the failing record's offset
        try:
            for T in records:
                yield from map_fn(fst_, d_, T)
                offset += 1
        except (CandidateLimitExceeded, ValueError) as e:
            raise type(e)(f"{e} (input partition {index}, record {offset})") from e

    def reduce_phase(kv):
        return reduce_fn(*bc.value, *kv)

    partitions = seq_rdd.mapPartitionsWithIndex(map_phase).combineByKey(
        lambda rep: {rep: 1}, _add_rep, merge_weight_dicts
    )
    return partitions.flatMap(reduce_phase)
