"""D-SEQ: item-based partitioning with sequence representation (Sec. V).

Map (per input sequence T), two passes over the position–state grid
(Sec. V-A) without materialising it:
  * a backward pass computes the σ-filtered suffix pivot sets, which also
    tell which coordinates can accept,
  * a forward pass computes the prefix pivot sets K(i, q) and, per edge,
    the pivots of the runs through it; per pivot k of T it emits
    ``(k, (ρk(T), last_pivot_pos))``, where ρk(T) is the trimmed rewrite
    (Sec. V-B) and last_pivot_pos feeds the reducer's early-stopping
    heuristic.

Shuffle: the skeleton's ``combineByKey`` aggregates identical
representations into weights map-side (LASH-style; identical rewritten
sequences are mined once).

Reduce (per partition Pk): pivot-restricted DESQ-DFS (Sec. V-C) outputs
every frequent subsequence with pivot exactly k, with early stopping.

This is the paper's configuration; the Fig. 10a ablations (no grid, no
rewrite, no early stopping) are not offered.
"""
from __future__ import annotations

from pyspark import RDD

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.dfs import mine
from repro.desq.rewrite import pivot_representations
from repro.core.framework import one_round


def d_seq(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""

    def map_fn(fst_, d_, T):
        return list(pivot_representations(fst_, T, d_, sigma).items())

    def reduce_fn(fst_, d_, k, weights):
        return list(mine(list(weights.items()), fst_, d_, sigma, pivot=k).items())

    return one_round(seq_rdd, fst, d, map_fn, reduce_fn)
