"""End-to-end FSM facade: the paper's problem statement as one call.

``mine(spark, df, hierarchy, patex, sigma, algorithm=...)`` runs the full
pipeline — Spark f-list (unless a Dictionary is supplied), pattern
expression compilation, encoding, one of the four distributed algorithms,
and result materialization as a DataFrame(pattern, support).

``mine_sequential`` runs DESQ-DFS on the driver (the Table V baseline).
"""
from __future__ import annotations

from functools import partial
from typing import Dict, Mapping, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, SparkSession

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.desq.dfs import mine as dfs_mine
from repro.core import framework
from repro.core.dcand import d_cand
from repro.core.dseq import d_seq
from repro.core.flist import build_dictionary
from repro.core.naive import naive

ALGORITHMS = {
    "naive": partial(naive, semi=False),
    "semi_naive": partial(naive, semi=True),
    "dseq": d_seq,
    "dcand": d_cand,
}


def _check_sigma(sigma: int) -> None:
    if sigma < 1:
        raise ValueError(f"sigma must be at least 1, got {sigma}")


def mine(
    spark: SparkSession,
    df: DataFrame,
    hierarchy: Mapping[str, Sequence[str]],
    patex: str,
    sigma: int,
    *,
    algorithm: str = "dseq",
    item_col: str = "items",
    dictionary: Optional[Dictionary] = None,
) -> DataFrame:
    """Mine frequent subsequences of ``df[item_col]`` under ``patex``/σ.

    Each algorithm runs the paper's configuration (D-SEQ with grid, rewrite
    and early stopping; D-CAND with minimised, aggregated NFAs). Returns a
    DataFrame with columns ``pattern`` (space-joined item names) and
    ``support``. Raises ValueError for σ < 1, an unknown algorithm, or an
    item that ``dictionary`` lacks.
    """
    _check_sigma(sigma)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; use one of {tuple(ALGORITHMS)}")
    d = dictionary or build_dictionary(spark, df, hierarchy, item_col)
    rdd = framework.encode_rdd(df, d, item_col)
    fst = compile_patex(patex, d)
    result = ALGORITHMS[algorithm](rdd, fst, d, sigma)
    return framework.results_to_df(spark, result.collect(), d)


def mine_sequential(
    sequences: Sequence[Sequence[str]],
    hierarchy: Mapping[str, Sequence[str]],
    patex: str,
    sigma: int,
    *,
    dictionary: Optional[Dictionary] = None,
) -> Dict[Tuple[str, ...], int]:
    """Sequential DESQ-DFS over in-memory sequences (Table V baseline).
    Raises ValueError for σ < 1 or an item that ``dictionary`` lacks."""
    _check_sigma(sigma)
    d = dictionary or Dictionary.build(sequences, hierarchy)
    fst = compile_patex(patex, d)
    inputs = [((d.encode(s), None), 1) for s in sequences]
    res = dfs_mine(inputs, fst, d, sigma)
    return {d.decode(seq): f for seq, f in res.items()}
