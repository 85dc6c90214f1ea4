"""NAÏVE and SEMI-NAÏVE baselines (paper Sec. III-A).

Subsequence-based partitioning: every candidate subsequence is its own
partition key (distributed word-count over candidates).

* NAÏVE generates Gπ(T) — all candidates.
* SEMI-NAÏVE generates Gσπ(T) — candidates consisting only of frequent
  items (support antimonotonicity: no frequent subsequence contains an
  infrequent item), which can shrink the shuffle dramatically.

Both produce identical final output (a frequent subsequence never contains
an infrequent item). The map is :func:`repro.desq.simulate.generate`, which
expands T's label paths (:func:`repro.desq.simulate.label_paths`), the
enumerator D-CAND's map reads too; so the tests check NAÏVE and D-CAND
against an independent reference, the candidates of T's accepting runs.
The map emits ``(candidate, ())``, so the skeleton's weights are
``{(): count}``.
"""
from __future__ import annotations

from pyspark import RDD

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.simulate import generate
from repro.core.framework import one_round

# Per-sequence candidate limit; beyond it the map fails naming the sequence.
MAX_CANDIDATES = 2_000_000


def naive(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    semi: bool = False,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""
    gen_sigma = sigma if semi else None

    def map_fn(fst_, d_, T):
        # Distinct per input sequence: support counts sequences, not
        # occurrences.
        cands = generate(fst_, T, d_, sigma=gen_sigma, max_candidates=MAX_CANDIDATES)
        return [(c, ()) for c in cands]

    def reduce_fn(fst_, d_, c, weights):
        if weights[()] >= sigma:
            yield c, weights[()]

    return one_round(seq_rdd, fst, d, map_fn, reduce_fn)
