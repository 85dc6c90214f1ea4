"""Table III reproduction: example constraints and found frequent sequences.

For every constraint of the paper's Tab. III (N1-N5 text mining, A1-A4
recommendation, T1-T3 traditional), run the full D-SEQ stack on the lite
dataset and report the three most frequent sequences with their supports — the
analogue of the paper's "Example frequent sequences (with support)" column.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from pyspark.sql import SparkSession

from repro import datasets
from repro.core import mine
from repro.experiments.constraints import Constraint, constraint_grid


def run_constraint(spark: SparkSession, c: Constraint, n: int) -> Dict:
    _, hierarchy, df = datasets.frame(spark, c.dataset, n)
    out = mine(spark, df, hierarchy, c.expr, c.sigma)
    collected = sorted(
        ((r["pattern"], int(r["support"])) for r in out.collect()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return {
        "constraint": c.name,
        "dataset": c.dataset,
        "sigma": c.sigma,
        "n_frequent": len(collected),
        "examples": collected[:3],
    }


def run(
    spark: SparkSession, scale: str = "bench", *, names: Optional[List[str]] = None
) -> List[Dict]:
    n, grid = constraint_grid(scale, names)
    return [run_constraint(spark, c, n) for c in grid]


def format_rows(rows: List[Dict]) -> str:
    lines = []
    for r in rows:
        ex = ", ".join(f"'{p}' ({f})" for p, f in r["examples"])
        lines.append(
            f"{r['constraint']:10} σ={r['sigma']:<5} {r['dataset']:12} "
            f"#freq={r['n_frequent']:<6} {ex}"
        )
    return "\n".join(lines)
