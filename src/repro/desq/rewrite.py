"""Sequence rewriting for D-SEQ (paper Sec. V-B).

For each pivot item k of an input sequence T, D-SEQ sends a *trimmed*
variant ρk(T): the positions before the first relevant position and after
the last relevant position are dropped. A position is relevant for pivot k
if, on some accepting run that can produce a pivot-k candidate, its
transition either (1) produces output usable in a pivot-k candidate (an
item ≤ k that survives σ-filtering) or (2) changes the FST state.

Edges that "can produce a pivot-k candidate" are identified exactly via the
grid: with A(i-1, q') the prefix pivot sets, out the σ-filtered output set of
the edge, and B(i, q) the suffix pivot sets, the pivots of all runs through
the edge are A ⊕ out ⊕ B (⊕ distributes over union), so the edge is
k-capable iff k ∈ A ⊕ out ⊕ B. Two passes compute this: the backward pass
:func:`repro.desq.grid.suffix_pivots` (B ≠ 0 where a coordinate can accept),
then a forward pass that carries A only where B ≠ 0. K(T) is the key set.

Dropping leading/trailing irrelevant positions is sound (Sec. V-B): before
the first relevant position, every pivot-k-capable run sits in the initial
state taking ε-output self-loops, so runs of the trimmed sequence lift to
runs of T matching those same self-loops (no new pivot-k candidates appear,
and local mining outputs only pivot-k sequences anyway).

This module also computes the *last pivot position* per (T, k) — the last
position whose transition can output k on a k-capable run — which D-SEQ
ships with ρk(T) so the reducer's early-stopping heuristic (Sec. V-C) needs
no second pass over T.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.hierarchy import EPS_BITS, Dictionary, bit_items
from repro.patex.fst import Fst
from repro.desq.grid import Grid, build_grid, suffix_pivots


def pivot_representations(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    sigma: int,
    *,
    grid: Optional[Grid] = None,
) -> Dict[int, Tuple[Tuple[int, ...], int]]:
    """Per pivot k of T: ``(ρk(T), last_pivot_pos)``.

    ``ρk(T)`` is the trimmed sequence and ``last_pivot_pos`` the 0-based
    index *within ρk(T)* of the last position that can still output k on a
    k-capable accepting run. Returns an empty dict when T generates no
    σ-filtered candidates.
    """
    if grid is None:
        grid = build_grid(fst, T, d)
    B = suffix_pivots(grid, fst, d, sigma)
    if not B[0][fst.initial]:
        return {}
    mask = d.frequent_mask(sigma)

    # One forward pass. ``a`` holds A(i, q) where A and B are non-zero; per
    # position i (1-based over T), as pivot bitsets: the pivots for which i
    # is relevant, and those that i's transition can output.
    n = len(grid.T)
    relevant = [0] * (n + 1)
    producing = [0] * (n + 1)
    a = {fst.initial: EPS_BITS}
    for i, row in enumerate(grid.rows, 1):
        nb, nxt, rel, prod = B[i], {}, 0, 0
        for q, u in a.items():
            for dst, _, bits in row[q]:
                b = nb[dst]
                if not b:
                    continue
                o = bits & mask
                ao = (u & -(o & -o)) | (o & -(u & -u))  # A ⊕ out (merge_bits)
                if not ao:
                    continue
                nxt[dst] = nxt.get(dst, 0) | ao
                # A ⊕ out ⊕ B, without ε.
                pivots = ((ao & -(b & -b)) | (b & -(ao & -ao))) & -2
                if q != dst:
                    rel |= pivots  # a state change is relevant for every pivot
                else:
                    items = o & -2  # relevant for the pivots k ≥ min(out)
                    rel |= pivots & -(items & -items)
                prod |= pivots & o
        relevant[i], producing[i], a = rel, prod, nxt

    first_rel: Dict[int, int] = {}
    last_rel: Dict[int, int] = {}
    last_piv: Dict[int, int] = {}
    for positions, marks, into in (
        (range(1, n + 1), relevant, first_rel),
        (range(n, 0, -1), relevant, last_rel),
        (range(n, 0, -1), producing, last_piv),
    ):
        seen = 0
        for i in positions:
            new = marks[i] & ~seen
            if new:
                seen |= new
                for k in bit_items(new):
                    into[k] = i

    # Every pivot k is output by some position, so last_piv[k] exists.
    return {
        k: (grid.T[first - 1 : last_rel[k]], last_piv[k] - first)
        for k, first in first_rel.items()
    }
