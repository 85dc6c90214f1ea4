"""D-CAND: item-based partitioning with candidate representation (Sec. VI).

Map (per input sequence T):
  * enumerate accepting runs by pruned DFS (no grid — the paper found the
    grid not to pay off for the selective constraints D-CAND targets),
  * per run, σ-filter the output sets, compute the run's pivot items K(r)
    by folding ⊕ (Theorem 1), and insert the run into a per-pivot trie
    with items > k dropped,
  * minimize each trie (Revuz) and serialize it with the DFS scheme,
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

from typing import Optional

from pyspark import RDD

from repro.hierarchy import EPS_BITS, Dictionary, bit_items, item_bits
from repro.patex.fst import Fst
from repro.desq.grid import merge_bits
from repro.desq.nfa import build_pivot_nfas, deserialize, mine_nfas, serialize
from repro.desq.simulate import accepting_runs, run_output_sets
from repro.core.framework import one_round


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
        mask = d_.frequent_mask(sigma)

        def runs():
            for run in accepting_runs(fst_, T, d_, max_runs=max_runs):
                yield run_output_sets(run, T, d_)

        def pivots_of_run(filtered):
            acc = EPS_BITS
            for out in filtered:
                acc = merge_bits(acc, item_bits(out))
            return bit_items(acc & -2)  # drop ε

        def sigma_filter(out):
            return tuple(w for w in out if mask >> w & 1)

        nfas = build_pivot_nfas(runs(), pivots_of_run, sigma_filter)
        return [(k, serialize(nfa)) for k, nfa in nfas.items()]

    def reduce_fn(fst_, d_, k, weights):
        inputs = [(deserialize(payload), w) for payload, w in weights.items()]
        return list(mine_nfas(inputs, sigma, pivot=k).items())

    return one_round(seq_rdd, fst, d, map_fn, reduce_fn)
