"""The distributed FSM skeleton (paper Alg. 1) and its plumbing.

All four algorithms (NAÏVE, SEMI-NAÏVE, D-SEQ, D-CAND) are one
map → shuffle → reduce round, :func:`one_round`, and differ only in the map
and reduce functions they pass to it. Around the skeleton: encoding
sequence DataFrames into RDDs of fid tuples and decoding results into
lazy DataFrames.

Every Python task the library launches (the skeleton's map and reduce, the
f-list's count) starts with :func:`prune_zip_importers`. PySpark calls
``importlib.invalidate_caches()`` at the start of each task, and on CPython
< 3.13 that makes every cached ``zipimporter`` re-read its whole archive
index (a worker holds 16 over ``pyspark.zip``). Pruning leaves the next task
nothing to re-read; from CPython 3.13 the re-read is lazy and pruning saves
nothing (DESIGN.md §3).
"""
from __future__ import annotations

import sys
import zipimport
from typing import Callable, Dict, List, Tuple

from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.simulate import CandidateLimitExceeded


def prune_zip_importers() -> None:
    """Drop the ``zipimporter`` entries of ``sys.path_importer_cache``.

    Python's ``PathFinder`` recreates an entry on the next import that needs
    it (from ``zipimport``'s per-archive index cache, without re-reading the
    archive), so imports behave as before; the next
    ``importlib.invalidate_caches()`` has no archive index to re-read.
    """
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items() if isinstance(f, zipimport.zipimporter)]:
        del cache[path]


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
    with the input partition index and the record's offset in it; a
    reduce-side one with the key (the pivot) and its number of records.
    """
    bc = seq_rdd.context.broadcast((fst, d))

    def map_phase(index, records):
        prune_zip_importers()
        fst_, d_ = bc.value
        offset = 0  # records consumed, so also the failing record's offset
        try:
            for T in records:
                yield from map_fn(fst_, d_, T)
                offset += 1
        except (CandidateLimitExceeded, ValueError) as e:
            raise type(e)(f"{e} (input partition {index}, record {offset})") from e

    def reduce_phase(groups):
        prune_zip_importers()
        fst_, d_ = bc.value
        for key, weights in groups:
            try:
                yield from reduce_fn(fst_, d_, key, weights)
            except (CandidateLimitExceeded, ValueError) as e:
                raise type(e)(f"{e} (pivot {key}, {sum(weights.values())} records)") from e

    partitions = seq_rdd.mapPartitionsWithIndex(map_phase).combineByKey(
        lambda rep: {rep: 1}, _add_rep, merge_weight_dicts
    )
    return partitions.mapPartitions(reduce_phase)
