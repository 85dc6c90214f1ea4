"""D-CAND: item-based partitioning with candidate representation (Sec. VI).

Map (per input sequence T):
  * enumerate accepting runs by pruned DFS (no grid — the paper found the
    grid not to pay off for the selective constraints D-CAND targets),
  * per run, σ-filter the output sets, compute the run's pivot items K(r)
    by folding ⊕ (Theorem 1), and insert the run into a per-pivot trie
    with items > k dropped,
  * minimize each trie (Revuz) and serialize it with the DFS scheme,
  * emit ``(k, serialized_nfa)``.

Shuffle (exactly one): ``combineByKey`` aggregates identical NFAs into
weights map-side — the paper's combine function; the serialized form is a
hashable int tuple precisely so this aggregation is a dict update.

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
from repro.core.framework import merge_weight_dicts


def d_cand(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    aggregate: bool = True,
    minimize_nfas: bool = True,
    max_runs: Optional[int] = 1_000_000,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""
    sc = seq_rdd.context
    fst_bc = sc.broadcast(fst)
    d_bc = sc.broadcast(d)

    def map_phase(T):
        fst_, d_ = fst_bc.value, d_bc.value
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

        nfas = build_pivot_nfas(
            runs(), pivots_of_run, sigma_filter, minimize_nfas=minimize_nfas
        )
        return [(k, serialize(nfa)) for k, nfa in nfas.items()]

    def create_combiner(payload):
        return {payload: 1}

    def merge_value(weights, payload):
        weights[payload] = weights.get(payload, 0) + 1
        return weights

    def reduce_phase(kv):
        k, weights = kv
        inputs = [(deserialize(payload), w) for payload, w in weights.items()]
        return list(mine_nfas(inputs, sigma, pivot=k).items())

    mapped = seq_rdd.flatMap(map_phase)
    if aggregate:
        partitions = mapped.combineByKey(
            create_combiner, merge_value, merge_weight_dicts
        )
    else:
        # Ablation (Fig. 10b "no agg"): ship every NFA individually; the
        # reducer still groups them, but nothing is merged map-side.
        partitions = mapped.groupByKey().mapValues(
            lambda payloads: _count_payloads(payloads)
        )
    return partitions.flatMap(reduce_phase)


def _count_payloads(payloads) -> dict:
    weights: dict = {}
    for p in payloads:
        weights[p] = weights.get(p, 0) + 1
    return weights
