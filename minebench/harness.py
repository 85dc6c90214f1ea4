"""Set-up and one timed call per miner, shared by the untraced and the
traced run. Each timed call is checked by hashing its full result."""
from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from pyspark.sql import DataFrame, SparkSession

from repro.core import mine, mine_sequential
from repro.core.flist import build_dictionary
from repro.hierarchy import Dictionary

import session
from workloads import Workload, decoded_pairs, result_digest

MINERS = ("dseq", "dcand")
WARM_UP_EVERY = 50


@dataclass
class SetUp:
    spark: SparkSession
    seqs: List[List[str]]
    hierarchy: Dict[str, List[str]]
    df: DataFrame
    d: Dictionary
    flist_s: float


def set_up(w: Workload, n: int, seed: int) -> SetUp:
    """Session start, corpus generation, DataFrame cache and f-list.

    The session is created on the first call and reused after, so only the
    first set-up of a run pays for the JVM launch.
    """
    spark = session.start()
    seqs, hierarchy = w.generate(n, seed)
    df = cached_corpus(spark, seqs)
    t0 = time.perf_counter()
    d = build_dictionary(spark, df, hierarchy)
    return SetUp(spark, seqs, hierarchy, df, d, time.perf_counter() - t0)


def cached_corpus(spark: SparkSession, seqs: List[List[str]]) -> DataFrame:
    df = spark.createDataFrame(
        [(i, s) for i, s in enumerate(seqs)], "seq_id long, items array<string>"
    ).cache()
    df.count()
    return df


class Calls:
    """Runs timed calls, counts them, and checks every result against the
    reference: the first result seen, which is DESQ-DFS's."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[str] = None
        self.patterns = 0
        self.times: Dict[str, List[float]] = {}

    def run(self, what: str, call: Callable[[], Tuple[float, str, int]]) -> bool:
        """One call of ``call() -> (seconds, digest, patterns)``; True if it
        returned the reference result (its time is then recorded)."""
        self.attempted += 1
        try:
            secs, digest, count = call()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return False
        if self.reference is None:
            self.reference, self.patterns = digest, count
        if digest != self.reference:
            print(f"minebench: {what} result differs from DESQ-DFS", file=sys.stderr)
            self.failed += 1
            return False
        self.times.setdefault(what, []).append(secs)
        return True


def run_dfs(seqs: List[List[str]], hierarchy: Dict[str, List[str]], w: Workload,
            sigma: int, d: Dictionary) -> Tuple[float, str, int]:
    """One timed ``mine_sequential`` call: ``(seconds, digest, patterns)``."""
    t0 = time.perf_counter()
    res = mine_sequential(seqs, hierarchy, w.expr, sigma, dictionary=d)
    secs = time.perf_counter() - t0
    return secs, result_digest(decoded_pairs(res)), len(res)


def run_once(s: SetUp, w: Workload, sigma: int, algorithm: str,
             group: str) -> Tuple[float, str, int]:
    """One timed ``mine()`` call, from the call until its rows are collected
    on the driver: ``(seconds, digest, patterns)``. Its Spark jobs run under
    job group ``group``."""
    sc = s.spark.sparkContext
    sc.setJobGroup(group, algorithm)
    try:
        t0 = time.perf_counter()
        rows = mine(s.spark, s.df, s.hierarchy, w.expr, sigma,
                    algorithm=algorithm, dictionary=s.d).collect()
        secs = time.perf_counter() - t0
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    pairs = [(r["pattern"], r["support"]) for r in rows]
    return secs, result_digest(pairs), len(pairs)


def warm_up(s: SetUp, w: Workload, sigma: int) -> None:
    """One D-SEQ and one D-CAND call on a 2% slice that keeps every input
    partition, so each Python worker has imported the miners before the
    first timed call (users pay this once per session, not per call)."""
    part = s.df.where(s.df.seq_id % WARM_UP_EVERY == 0)
    for algorithm in MINERS:
        mine(s.spark, part, s.hierarchy, w.expr, sigma,
             algorithm=algorithm, dictionary=s.d).collect()


def emit(record: Dict, calls: Calls, metrics: Dict[str, float],
         units: Dict[str, str]) -> int:
    """Print the record line and the result line; return the exit code."""
    correct = calls.failed == 0
    record["error_rate"] = calls.failed / calls.attempted
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": units[k]} for k in units
        } if correct else {},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1
