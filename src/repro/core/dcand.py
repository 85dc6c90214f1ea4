"""D-CAND: item-based partitioning with candidate representation (Sec. VI).

Map (per input sequence T, :func:`map_sequence`):
  * enumerate the distinct label paths of T's accepting runs
    (:func:`repro.desq.simulate.label_paths`): depth-first subset
    construction over ε-closed grid coordinates, on T's memoised σ-live
    step rows (:func:`repro.desq.simulate.live_rows`), each path with its
    pivot items K(r) folded by ⊕ (Theorem 1); runs that differ only in
    their ε steps are one path,
  * insert each path into a per-pivot trie with items > k cut off,
  * minimize each trie (Revuz), decode the minimal NFA's labels to item
    tuples and serialize it with the DFS scheme,
  * emit ``(k, serialized_nfa)``, pivots ascending.

Shuffle: the skeleton's ``combineByKey`` aggregates identical NFAs into
weights map-side — the paper's combine function; the serialized form is a
hashable int tuple precisely so this aggregation is a dict update. NFAs are
always minimised and aggregated; the Fig. 10b ablations are not offered.

Reduce (per partition Pk): deserialize the weighted NFAs and count
candidate frequencies directly on them with the NFA pattern-growth counter
(Sec. VI-B), outputting subsequences with pivot exactly k.

``max_runs`` bounds the distinct label paths per sequence; exceeding it raises,
mirroring the paper's finding that D-CAND runs out of memory on very loose
constraints (MLlib setting, Fig. 13).
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from pyspark import RDD

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.nfa import deserialize, mine_nfas, pivot_nfas, serialize
from repro.desq.simulate import label_paths
from repro.core.framework import one_round


def map_sequence(
    fst: Fst, d: Dictionary, T: Tuple[int, ...], sigma: int, max_paths: Optional[int] = None
) -> List[Tuple[int, Tuple[int, ...]]]:
    """D-CAND's map for one sequence: ``[(k, serialized NFA)]``, pivots
    ascending."""
    paths = label_paths(fst, T, d, d.frequent_mask(sigma), max_paths=max_paths)
    return [(k, serialize(nfa)) for k, nfa in sorted(pivot_nfas(paths).items())]


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
