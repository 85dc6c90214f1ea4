"""D-CAND: item-based partitioning with candidate representation (Sec. VI).

Map (per input sequence T, :func:`map_sequence`):
  * enumerate accepting runs by pruned DFS (no grid — the paper found the
    grid not to pay off for the selective constraints D-CAND targets),
  * per run, on the output bitsets of :meth:`Fst.step`: σ-filter each set
    with the frequent-item mask (0 left = dead run, 1 = ε), fold the run's
    pivot items K(r) with ⊕ (:func:`merge_bits`, Theorem 1), and insert the
    run into a per-pivot trie with items > k cut off,
  * minimize each trie (Revuz), decode the minimal NFA's labels to item
    tuples and serialize it with the DFS scheme,
  * emit ``(k, serialized_nfa)``.

Shuffle: the skeleton's ``combineByKey`` aggregates identical NFAs into
weights map-side — the paper's combine function; the serialized form is a
hashable int tuple precisely so this aggregation is a dict update. NFAs are
always minimised and aggregated; the Fig. 10b ablations are not offered.

Reduce (per partition Pk): deserialize the weighted NFAs and count
candidate frequencies directly on them with the NFA pattern-growth counter
(Sec. VI-B), outputting subsequences with pivot exactly k.

``max_runs`` bounds the per-sequence run enumeration; exceeding it raises,
mirroring the paper's finding that D-CAND runs out of memory on very loose
constraints (MLlib setting, Fig. 13).
"""
from __future__ import annotations

from functools import reduce
from typing import List, Optional, Tuple

from pyspark import RDD

from repro.hierarchy import EPS_BITS, Dictionary
from repro.patex.fst import Fst
from repro.desq.grid import merge_bits
from repro.desq.nfa import deserialize, mine_nfas, pivot_nfas, serialize
from repro.desq.simulate import accepting_runs
from repro.core.framework import one_round


def map_sequence(
    fst: Fst, d: Dictionary, T: Tuple[int, ...], sigma: int, max_runs: Optional[int] = None
) -> List[Tuple[int, Tuple[int, ...]]]:
    """D-CAND's map for one sequence: ``[(k, serialized NFA)]``, pivots in
    the order of their first accepting run."""
    mask = d.frequent_mask(sigma)

    def runs():
        for run in accepting_runs(fst, T, d, max_runs=max_runs):
            labels = [b for _, _, bits in run if (b := bits & mask) != EPS_BITS]
            if all(labels):  # a 0 is an all-infrequent output set: the run is dead
                yield labels, reduce(merge_bits, labels, EPS_BITS) & -2  # drop ε

    return [(k, serialize(nfa)) for k, nfa in pivot_nfas(runs()).items()]


def d_cand(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    max_runs: Optional[int] = 1_000_000,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""

    def map_fn(fst_, d_, T):
        return map_sequence(fst_, d_, T, sigma, max_runs)

    def reduce_fn(fst_, d_, k, weights):
        inputs = [(deserialize(payload), w) for payload, w in weights.items()]
        return list(mine_nfas(inputs, sigma, pivot=k).items())

    return one_round(seq_rdd, fst, d, map_fn, reduce_fn)
