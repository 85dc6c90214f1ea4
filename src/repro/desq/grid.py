"""Position–state grid and pivot search (paper Sec. V-A, Fig. 5).

The number of accepting runs can be exponential in |T|; the grid collapses
them into a DAG over coordinates ``(i, q)`` = (last-read position, FST
state). An edge ``(i-1, q') → (i, q)`` labeled with transition δ exists iff
δ is the i-th transition of some accepting run.

Pivot search then needs a single forward pass using the *pivot merge*
operator ⊕ (Theorem 1):

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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import EPS_BITS, EPSILON, Dictionary, bit_items
from repro.patex.fst import Fst
from repro.desq.simulate import acceptance_table

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


@dataclass
class Grid:
    """Accepting-run DAG for one (FST, T) pair.

    ``in_edges[i][q]`` lists ``(q_prev, bits)`` pairs for edges into
    coordinate ``(i, q)`` (1 ≤ i ≤ n), ``bits`` being the edge's unfiltered
    output bitset (:meth:`Fst.step`). Coordinates appear only if they lie on
    at least one accepting run.
    """

    T: Tuple[int, ...]
    in_edges: List[Dict[int, List[Tuple[int, int]]]]
    final_states: Set[int]  # states q with (|T|, q) accepting

    @property
    def n(self) -> int:
        return len(self.T)

    def accepts(self) -> bool:
        return bool(self.final_states)


def build_grid(fst: Fst, T: Sequence[int], d: Dictionary) -> Grid:
    """Construct the grid by FST simulation with memoized acceptance.

    Only coordinates that are both reachable from ``(0, initial)`` and can
    reach an accepting coordinate are materialized: a forward sweep over the
    positions keeps the reached states of each position as a bitset.
    """
    T = tuple(T)
    alive = acceptance_table(fst, T, d)
    in_edges: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in range(len(T) + 1)]
    reached = alive[0] & (1 << fst.initial)
    for i, t in enumerate(T):
        if not reached:
            break
        row, live, edges, nxt = fst.steps(t, d), alive[i + 1], in_edges[i + 1], 0
        for q in range(fst.n_states):
            if reached >> q & 1:
                for dst, _, bits in row[q]:
                    if live >> dst & 1:
                        edges.setdefault(dst, []).append((q, bits))
                        nxt |= 1 << dst
        reached = nxt
    return Grid(T, in_edges, set(bit_items(reached)))


def prefix_pivots(
    grid: Grid, fst: Fst, d: Dictionary, sigma: Optional[int]
) -> List[Dict[int, int]]:
    """Forward pass: A[i][q] = K(i, q) as a bitset, the pivots of partial runs
    up to (i, q). σ enters as :meth:`Dictionary.frequent_mask`: a masked edge
    output of 1 is ε, 0 is dead."""
    mask = d.frequent_mask(sigma)
    A: List[Dict[int, int]] = [{} for _ in range(grid.n + 1)]
    if not grid.accepts() and grid.n > 0:
        return A
    A[0][fst.initial] = EPS_BITS
    for i in range(1, grid.n + 1):
        prev, cur = A[i - 1], A[i]
        for q, incoming in grid.in_edges[i].items():
            acc = 0
            for q_prev, bits in incoming:
                u, o = prev[q_prev], bits & mask
                acc |= (u & -(o & -o)) | (o & -(u & -u))
            cur[q] = acc
    return A


def suffix_pivots(
    grid: Grid, fst: Fst, d: Dictionary, sigma: Optional[int]
) -> List[Dict[int, int]]:
    """Backward pass: B[i][q] = pivots of partial runs from (i, q) to accept."""
    mask = d.frequent_mask(sigma)
    B: List[Dict[int, int]] = [{} for _ in range(grid.n + 1)]
    for q in grid.final_states:
        B[grid.n][q] = EPS_BITS
    for i in range(grid.n, 0, -1):
        nxt, cur = B[i], B[i - 1]
        for q, incoming in grid.in_edges[i].items():
            b = nxt[q]
            for q_prev, bits in incoming:
                o = bits & mask
                cur[q_prev] = cur.get(q_prev, 0) | (o & -(b & -b)) | (b & -(o & -o))
    return B


def pivot_items(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    sigma: int,
    *,
    grid: Optional[Grid] = None,
) -> Set[int]:
    """K(T): pivot items of Gσπ(T), via the grid (linear in |T|·|Q|·|Δ|)."""
    if grid is None:
        grid = build_grid(fst, T, d)
    if not grid.accepts():
        return set()
    A = prefix_pivots(grid, fst, d, sigma)
    K = 0
    for q in grid.final_states:
        K |= A[grid.n][q]
    return set(bit_items(K & -2))  # drop ε


def pivot_items_bruteforce(
    fst: Fst, T: Sequence[int], d: Dictionary, sigma: int
) -> Set[int]:
    """Reference implementation: enumerate Gσπ(T) and take maxima."""
    from repro.desq.simulate import generate

    return {max(c) for c in generate(fst, T, d, sigma=sigma)}
