"""Position–state grid and pivot search (paper Sec. V-A, Fig. 5).

The number of accepting runs can be exponential in |T|; the grid collapses
them into a DAG over coordinates ``(i, q)`` = (last-read position, FST
state). An edge ``(i-1, q') → (i, q)`` labeled with transition δ exists iff
δ is the i-th transition of some accepting run.

Pivot search then needs a single pass over this DAG using the *pivot
merge* operator ⊕ (Theorem 1):

    U ⊕ Q = { ω ∈ U | ω ≥ min(Q) } ∪ { ω ∈ Q | ω ≥ min(U) }

with ε < w for all items w. ⊕ is commutative and associative, and
distributes over union, which makes the per-coordinate sets

    K(i, q) = ∪_{(q', δ) ∈ inc(i,q)}  K(i-1, q') ⊕ out_δ(t_i)

exactly the pivot items of the partial runs ending at (i, q).

σ-filtering is folded in as in the paper ("we do not add any item w with
f(w, D) < σ to any set K(i, q)"): infrequent items are the *largest* items
under the frequency order, so removing them never changes a set's minimum —
unless the set becomes empty, which correctly marks a dead branch (every
candidate through it contains an infrequent item). We encode the dead
branch as the empty set with the convention ``U ⊕ ∅ = ∅``.

The passes hold these sets as int bitsets (bit w = item w, bit 0 = ε), so ⊕
is :func:`merge_bits` and union is ``|``. σ is one frequent-item mask per
(Dictionary, σ) that keeps bit 0: a masked edge output of 1 is ε, 0 is dead.

The grid is never stored: its edges out of position i are the memoised
step row :meth:`Fst.steps` of ``T[i]``. D-SEQ's map (:mod:`repro.desq.rewrite`)
runs the backward pass :func:`suffix_pivots`, whose B ≠ 0 marks the
coordinates that can accept, then one forward pass; :func:`prefix_pivots` is
that forward pass on its own, the Fig. 5 reference.
"""
from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.hierarchy import EPS_BITS, EPSILON, Dictionary
from repro.patex.fst import Fst, Step

PivotSet = FrozenSet[int]
EMPTY: PivotSet = frozenset()
EPS_SET: PivotSet = frozenset({EPSILON})


def pivot_merge(u: PivotSet, q: PivotSet) -> PivotSet:
    """The ⊕ operator on sets, the Theorem 1 reference for :func:`merge_bits`.
    ``∅`` (dead) annihilates; ε counts as the minimum."""
    if not u or not q:
        return EMPTY
    min_u, min_q = min(u), min(q)
    return frozenset(
        [w for w in u if w >= min_q] + [w for w in q if w >= min_u]
    )


def merge_bits(u: int, q: int) -> int:
    """⊕ on bitsets (bit 0 = ε): ``-(x & -x)`` masks the bits at or above
    the lowest bit of ``x``, i.e. the items ≥ min(x). ``0`` annihilates."""
    return (u & -(q & -q)) | (q & -(u & -u))


Rows = List[Tuple[Tuple[Step, ...], ...]]


def build_grid(fst: Fst, T: Sequence[int], d: Dictionary) -> Rows:
    """The grid's edges as the step rows of ``T`` (memoised per item by the
    FST): ``rows[i][q]`` lists the edges ``(i, q) → (i+1, dst)``."""
    return [fst.steps(t, d) for t in T]


def prefix_pivots(
    rows: Rows, fst: Fst, d: Dictionary, sigma: Optional[int]
) -> List[List[int]]:
    """Forward pass: A[i][q] = pivots of the partial runs from
    ``(0, initial)`` to (i, q) as a bitset, 0 if none is σ-live; the paper's
    K(i, q) wherever (i, q) can accept."""
    mask = d.frequent_mask(sigma)
    A = [[0] * fst.n_states for _ in range(len(rows) + 1)]
    A[0][fst.initial] = EPS_BITS
    for i, row in enumerate(rows):
        prev, cur = A[i], A[i + 1]
        for q, u in enumerate(prev):
            if u:
                for dst, bits in row[q]:
                    cur[dst] |= merge_bits(u, bits & mask)
    return A


def suffix_pivots(
    rows: Rows, fst: Fst, d: Dictionary, sigma: Optional[int]
) -> List[List[int]]:
    """Backward pass: B[i][q] = pivots of the partial runs from (i, q) to
    acceptance, 0 if none is σ-live; so B ≠ 0 implies (i, q) can accept."""
    mask = d.frequent_mask(sigma)
    n = len(rows)
    B = [[0] * fst.n_states for _ in range(n + 1)]
    for q in fst.finals:
        B[n][q] = EPS_BITS
    for i in range(n - 1, -1, -1):
        nxt, cur = B[i + 1], B[i]
        for q, steps in enumerate(rows[i]):
            for dst, bits in steps:
                b = nxt[dst]
                if b:
                    o = bits & mask
                    cur[q] |= (o & -(b & -b)) | (b & -(o & -o))
        if not any(cur):
            break  # no σ-live run from position i or before accepts
    return B

