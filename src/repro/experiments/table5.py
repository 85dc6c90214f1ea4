"""Table V reproduction: speed-up of D-SEQ / D-CAND over sequential
DESQ-DFS.

The paper's rows: N4(1k)/N5(1k) on NYT, T3(10,1,5)/T3(10k,1,5)/T3(100,3,5)
on AMZN-F, T2(100,0,5)/T2(1k,0,5) on CW50 — sequential DESQ-DFS on one
core vs the distributed algorithms on the cluster, reporting run time and
speed-up. DESQ-DFS runs out of memory on CW50 in the paper; at lite scale
it completes, which EXPERIMENTS.md notes.

Here the sequential miner runs single-threaded on the driver; D-SEQ and
D-CAND run on the local[*] session. Absolute times are Python-scale, the
*relative* behaviour (which algorithm wins per constraint) is the
reproduction target. Result equality across the three runs is asserted on
every row — a timing table that silently diverged would be worthless.
"""
from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from pyspark.sql import SparkSession

from repro import datasets
from repro.core import mine, mine_sequential
from repro.core.flist import build_dictionary
from repro.experiments.constraints import (
    Constraint, N_EXPRS, select, t2_expr, t3_expr,
)

# Per-dataset corpus sizes. The bench sizes are chosen so that sequential
# DESQ-DFS needs tens of seconds per row — below that, Spark's fixed job
# overhead (a few seconds on local[*]) hides the distributed algorithms'
# actual behaviour and every speed-up reads as ~0.
SCALES = {
    "test": {"NYT-lite": 120, "AMZN-F-lite": 120, "CW-lite": 120},
    "bench": {"NYT-lite": 100_000, "AMZN-F-lite": 60_000, "CW-lite": 60_000},
}


def configs(scale: str, names: Optional[Sequence[str]] = None) -> List[Constraint]:
    """Table V's row grid with σ rescaled to the corpus size; only the rows
    in ``names`` when it is given (a name that matches no row raises
    ValueError, see :func:`constraints.select`).

    Bench σ values mirror the paper's low/high-σ pairs at ~0.15-0.8%
    relative support.
    """
    rows = [
        ("N4", "NYT-lite", N_EXPRS["N4"], 150),
        ("N5", "NYT-lite", N_EXPRS["N5"], 150),
        ("T3(100,1,5)", "AMZN-F-lite", t3_expr(1, 5), 100),
        ("T3(500,1,5)", "AMZN-F-lite", t3_expr(1, 5), 500),
        ("T3(150,3,5)", "AMZN-F-lite", t3_expr(3, 5), 150),
        ("T2(100,0,5)", "CW-lite", t2_expr(0, 5), 100),
        ("T2(300,0,5)", "CW-lite", t2_expr(0, 5), 300),
    ]
    out = []
    for name, ds, expr, bench_sigma in rows:
        n = SCALES[scale][ds]
        sigma = max(2, round(bench_sigma * n / SCALES["bench"][ds]))
        out.append(Constraint(name, ds, expr, sigma))
    return select(out, names)


def run_config(spark: SparkSession, c: Constraint, n: int) -> Dict:
    seqs, hierarchy, df = datasets.frame(spark, c.dataset, n)
    df.cache().count()
    # The dictionary is preprocessing in the paper; build it once, outside
    # all timed regions.
    d = build_dictionary(spark, df, hierarchy)

    t0 = time.perf_counter()
    seq_result = mine_sequential(seqs, hierarchy, c.expr, c.sigma, dictionary=d)
    t_seq = time.perf_counter() - t0

    row = {
        "constraint": c.name,
        "dataset": c.dataset,
        "sigma": c.sigma,
        "n_frequent": len(seq_result),
        "t_seq": t_seq,
    }
    for algo, label in (("dseq", "D-SEQ"), ("dcand", "D-CAND")):
        t0 = time.perf_counter()
        result_df = mine(spark, df, hierarchy, c.expr, c.sigma, algorithm=algo,
                         dictionary=d)
        result = {tuple(r["pattern"].split(" ")): r["support"]
                  for r in result_df.collect()}
        t = time.perf_counter() - t0
        assert result == seq_result, f"{c.name}: {label} result diverged"
        row[f"t_{algo}"] = t
        row[f"speedup_{algo}"] = t_seq / t if t else float("inf")
    df.unpersist()
    return row


def run(
    spark: SparkSession, scale: str = "bench", *, names: Optional[List[str]] = None
) -> List[Dict]:
    return [run_config(spark, c, SCALES[scale][c.dataset])
            for c in configs(scale, names)]


def format_rows(rows: List[Dict]) -> str:
    hdr = (
        f"{'constraint':12} {'dataset':12} {'σ':>5} {'#freq':>6} "
        f"{'DESQ-DFS':>9} {'D-SEQ':>12} {'D-CAND':>12}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r['constraint']:12} {r['dataset']:12} {r['sigma']:>5} "
            f"{r['n_frequent']:>6} {r['t_seq']:>8.1f}s "
            f"{r['t_dseq']:>6.1f}s ({r['speedup_dseq']:>3.1f}x) "
            f"{r['t_dcand']:>6.1f}s ({r['speedup_dcand']:>3.1f}x)"
        )
    return "\n".join(lines)
