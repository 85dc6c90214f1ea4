"""D-SEQ: item-based partitioning with sequence representation (Sec. V).

Map (per input sequence T):
  * build the position–state grid, compute the pivot items K(T) via the
    forward pass (Sec. V-A) — or brute-force candidate enumeration when
    ``use_grid=False`` (the Fig. 10a ablation),
  * per pivot k, emit ``(k, (ρk(T), last_pivot_pos))`` where ρk(T) is the
    trimmed rewrite (Sec. V-B; full T when ``rewrite=False``) and
    last_pivot_pos feeds the reducer's early-stopping heuristic.

Shuffle: the skeleton's ``combineByKey`` aggregates identical
representations into weights map-side (LASH-style; identical rewritten
sequences are mined once).

Reduce (per partition Pk): pivot-restricted DESQ-DFS (Sec. V-C) outputs
every frequent subsequence with pivot exactly k.
"""
from __future__ import annotations

from pyspark import RDD

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.dfs import mine
from repro.desq.grid import pivot_items_bruteforce
from repro.desq.rewrite import pivot_representations
from repro.core.framework import one_round


def d_seq(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    use_grid: bool = True,
    rewrite: bool = True,
    early_stop: bool = True,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""

    def map_fn(fst_, d_, T):
        if use_grid:
            reps = pivot_representations(fst_, T, d_, sigma, rewrite=rewrite)
        else:
            # Ablation: enumerate candidates to find pivots, ship full T.
            reps = {
                k: (tuple(T), None)
                for k in pivot_items_bruteforce(fst_, T, d_, sigma)
            }
        return list(reps.items())

    def reduce_fn(fst_, d_, k, weights):
        results = mine(
            list(weights.items()), fst_, d_, sigma, pivot=k, early_stop=early_stop
        )
        return list(results.items())

    return one_round(seq_rdd, fst, d, map_fn, reduce_fn)
