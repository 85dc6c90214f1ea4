"""Table IV reproduction: statistics on candidate subsequences.

Per constraint: the share of input sequences that produce at least one
σ-filtered candidate ("matched"), the total number of candidate
subsequences (what SEMI-NAÏVE would communicate), and candidates per input
sequence (CSPI) mean and median over the matched sequences. Computed
distributed (one Spark map over the encoded sequences); per-sequence
counts above ``cap`` are truncated and flagged, mirroring the paper's
sampling note for T1(400, 5).
"""
from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from pyspark.sql import SparkSession

from repro import datasets
from repro.core.flist import build_dictionary
from repro.core.framework import encode_rdd
from repro.desq.simulate import CandidateLimitExceeded, generate
from repro.experiments.constraints import (
    Constraint,
    flexible_constraints,
    traditional_constraints,
)
from repro.patex import compile_patex

SCALES = {"test": (150, 0.1), "bench": (3000, 1.0)}


def candidate_stats(
    spark: SparkSession,
    c: Constraint,
    n: int,
    seed: int = 17,
    *,
    cap: int = 100_000,
) -> Dict:
    seqs, hierarchy = datasets.DATASETS[c.dataset](n, seed)
    df = spark.createDataFrame(
        [(i, s) for i, s in enumerate(seqs)], "seq_id long, items array<string>"
    )
    d = build_dictionary(spark, df, hierarchy)
    fst = compile_patex(c.expr, d)
    sc = spark.sparkContext
    fst_bc, d_bc = sc.broadcast(fst), sc.broadcast(d)
    sigma = c.sigma

    def count_cands(T):
        try:
            return len(
                generate(fst_bc.value, T, d_bc.value, sigma=sigma, max_candidates=cap)
            ), False
        except CandidateLimitExceeded:
            return cap, True

    counts = (
        encode_rdd(df, d)
        .map(count_cands)
        .filter(lambda ct: ct[0] > 0)
        .collect()
    )
    matched = [cnt for cnt, _ in counts]
    capped = sum(1 for _, truncated in counts if truncated)
    return {
        "constraint": c.name,
        "dataset": c.dataset,
        "sigma": sigma,
        "matched_pct": 100.0 * len(matched) / n,
        "total_candidates": sum(matched),
        "cspi_mean": statistics.mean(matched) if matched else 0.0,
        "cspi_median": statistics.median(matched) if matched else 0.0,
        "capped_sequences": capped,
    }


def run(
    spark: SparkSession,
    scale: str = "bench",
    seed: int = 17,
    *,
    names: Optional[List[str]] = None,
) -> List[Dict]:
    n, sig_scale = SCALES[scale]
    grid = flexible_constraints(sig_scale) + traditional_constraints(sig_scale)
    rows = []
    for c in grid:
        if names and c.name not in names:
            continue
        rows.append(candidate_stats(spark, c, n, seed))
    return rows


def format_rows(rows: List[Dict]) -> str:
    hdr = (
        f"{'constraint':12} {'dataset':12} {'σ':>5} {'matched%':>9} "
        f"{'#cands':>10} {'CSPI mean':>10} {'CSPI med':>9} {'capped':>7}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['constraint']:12} {r['dataset']:12} {r['sigma']:>5} "
            f"{r['matched_pct']:>9.1f} {r['total_candidates']:>10} "
            f"{r['cspi_mean']:>10.1f} {r['cspi_median']:>9.1f} "
            f"{r['capped_sequences']:>7}"
        )
    return "\n".join(lines)
