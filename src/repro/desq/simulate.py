"""FST simulation: accepting runs and candidate subsequences (Sec. IV).

A *run* for input T = t1…tn is a transition sequence δ1–…–δn starting in the
initial state with ti ∈ in(δi); it is *accepting* if it ends in a final
state. The candidate subsequences Gπ(T) are the union over accepting runs of
the Cartesian products of the runs' output sets (ε contributes nothing).

Every simulation steps the FST through :func:`live_rows`, which prunes by
reachability of acceptance. Its rows are memoised per FST, Dictionary and σ
mask under the key (item, next position's ε-accepting and ε-outputting
states), not pickled, so built per worker per broadcast: at seed 41, 461 /
1 137 / 2 030 rows for DESQ-DFS and 632 / 1 162 / 2 517 for D-SEQ's reduce
(nyt-n5 / amznf-t3 / cw-t2).

Candidates depend on a run only through its σ-filtered non-ε output sets,
so :func:`label_paths` enumerates those *label paths*, each distinct one
once. It is the one candidate enumerator: :func:`generate` expands its paths
into Gπ(T) / Gσπ(T) for NAÏVE, SEMI-NAÏVE and Table IV, and D-CAND inserts
them into its tries. :func:`accepting_runs` enumerates the runs themselves:
no miner calls it, but the tests and the benchmark's trace use it as the
run-level reference. Enumeration is exponential in the worst case;
``max_candidates``, ``max_runs`` and ``max_paths`` guard against
pathological blow-ups (mirroring the paper's OOM findings).
"""
from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import EPS_BITS, Dictionary, bit_items, item_bits
from repro.patex.fst import Fst, Step
from repro.desq.grid import merge_bits


class CandidateLimitExceeded(RuntimeError):
    """Raised when run, label-path or candidate enumeration exceeds its limit."""


def _limit_exceeded(what: str, T: Sequence[int], d: Dictionary) -> CandidateLimitExceeded:
    """The error for ``T``, named by its length and first items."""
    head = " ".join(d.decode(T[:5])) + (" ..." if len(T) > 5 else "")
    return CandidateLimitExceeded(f"more than {what} for the sequence of {len(T)} items [{head}]")


Row = Tuple[int, int, Tuple[int, ...], Tuple[Tuple[Tuple[int, int], ...], ...]]


def live_rows(fst: Fst, T: Sequence[int], d: Dictionary, mask: int) -> Optional[List[Row]]:
    """The σ-live step rows of ``T`` for positions ``0..|T|`` under the
    frequent-item mask ``mask``; None when ``(0, initial)`` cannot accept.

    Row i is ``(ea, eo, eps, outs)``, per state q: bit q of ``ea`` iff q
    accepts over ε steps only; ``eps[q]``, the bitset of q's ε targets that
    reach a σ-live labelled step over ε steps only; ``outs[q]``, q's σ-live
    labelled steps as ``(bits & mask, target)``; bit q of ``eo`` iff either
    is non-empty. A step is σ-live if its masked label is not 0 and its
    target is in row i + 1's ``ea | eo``, so rows are shared tuples
    memoised under the key ``(T[i], ea, eo)`` of row i + 1.
    """
    table = fst.memo("_rows", d)
    memo = table.get(mask)
    if memo is None:
        width = fst.n_states
        # Row |T|, the final states', under the key None.
        memo = table[mask] = {None: (item_bits(fst.finals), 0, (0,) * width, ((),) * width)}
    row = memo[None]
    rows = [row]
    ea, eo = row[0], row[1]
    for i in range(len(T) - 1, -1, -1):
        key = (T[i], ea, eo)
        row = memo.get(key)
        if row is None:
            row = memo[key] = _live_row(fst.steps(T[i], d), mask, ea, eo)
        ea, eo = row[0], row[1]
        if not ea | eo:
            return None  # nothing before position i can accept either
        rows.append(row)
    if not (ea | eo) >> fst.initial & 1:
        return None
    rows.reverse()
    return rows


def _live_row(steps: Tuple[Tuple[Step, ...], ...], mask: int, ea: int, eo: int) -> Row:
    """One :func:`live_rows` row from a :meth:`Fst.steps` row and the
    ε-accepting and ε-outputting states ``ea`` and ``eo`` one position on."""
    live = ea | eo
    a = o = 0
    eps: List[int] = []
    outs: List[Tuple[Tuple[int, int], ...]] = []
    for q, by_q in enumerate(steps):
        e = 0
        out: Tuple[Tuple[int, int], ...] = ()
        for dst, bits in by_q:
            if live >> dst & 1:
                b = bits & mask
                if b == EPS_BITS:
                    a |= (ea >> dst & 1) << q
                    e |= eo & 1 << dst
                elif b:
                    out += ((b, dst),)
        if e or out:
            o |= 1 << q
        eps.append(e)
        outs.append(out)
    return a, o, tuple(eps), tuple(outs)


def accepting_runs(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    *,
    max_runs: Optional[int] = None,
) -> Iterator[Tuple[Step, ...]]:
    """Yield every accepting run for ``T`` (depth-first search pruned by
    unmasked :func:`live_rows`), as the run's :meth:`Fst.steps` entries."""
    n = len(T)
    rows = live_rows(fst, T, d, -1)
    if rows is None:
        return
    count = 0
    # Explicit stack of (position, state, step into it) to avoid recursion
    # limits. ``path`` holds the run's first i steps: one shared list, so a
    # run costs O(|T|), not the O(|T|²) of copying a tuple at every node.
    path: List[Step] = []
    stack: List[Tuple[int, int, Optional[Step]]] = [(0, fst.initial, None)]
    while stack:
        i, q, step = stack.pop()
        if i:
            del path[i - 1:]
            path.append(step)
        if i == n:
            count += 1
            if max_runs is not None and count > max_runs:
                raise _limit_exceeded(f"{max_runs} accepting runs", T, d)
            yield tuple(path)
            continue
        nxt = rows[i + 1][0] | rows[i + 1][1]
        for st in fst.steps(T[i], d)[q]:
            if nxt >> st[0] & 1:  # st[0] is the target state
                stack.append((i + 1, st[0], st))


def _closure(rows: Sequence[Row], width: int, seeds: Sequence[int]) -> Tuple[int, Dict[int, List[int]]]:
    """:func:`label_paths`' ε-closure of coordinates ``i * width + q``, in
    ascending position order: ``(accepts, {label: target coordinates})``."""
    accepts = cur = k = 0
    n_seeds = len(seeds)
    kids: Dict[int, List[int]] = {}
    i = seeds[0] // width
    while True:
        while k < n_seeds and seeds[k] // width == i:
            cur |= 1 << (seeds[k] % width)
            k += 1
        if not cur:
            if k == n_seeds:
                return accepts, kids
            i = seeds[k] // width
            continue
        ea, _, eps, outs = rows[i]
        accepts |= ea & cur
        i += 1
        base, nxt = i * width, 0
        while cur:
            low = cur & -cur
            cur ^= low
            q = low.bit_length() - 1
            nxt |= eps[q]
            for b, dst in outs[q]:
                kids.setdefault(b, []).append(base + dst)
        cur = nxt


def label_paths(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    mask: int,
    *,
    max_paths: Optional[int] = None,
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Yield ``(labels, pivots)`` once per distinct label path of ``T``: the
    σ-filtered non-ε output sets of an accepting run, as item bitsets
    (``bits & mask``; a run with a 0 among them is dead), with the run's
    pivot items K(r) folded by ⊕ (:func:`repro.desq.grid.merge_bits`).

    Depth-first subset construction on :func:`live_rows`: a node is one
    distinct label prefix and holds the coordinates its last label steps
    into; its children group the ε-closure's labelled steps by label, so
    runs that differ only in their ε steps are walked once. ``max_paths``
    bounds the paths yielded.
    """
    rows = live_rows(fst, T, d, mask)
    if rows is None:
        return
    width = fst.n_states
    count = 0
    # Explicit stack of (depth, label into the node, ⊕ fold of the labels,
    # the node's coordinates). ``path`` holds the node's labels: one shared
    # list, so a path costs O(|T|), not O(|T|²).
    path: List[int] = []
    stack: List[Tuple[int, int, int, Sequence[int]]] = [(0, 0, EPS_BITS, (fst.initial,))]
    while stack:
        depth, lab, fold, seeds = stack.pop()
        if depth:
            del path[depth - 1:]
            path.append(lab)
        accept, kids = _closure(rows, width, seeds)
        if accept:
            count += 1
            if max_paths is not None and count > max_paths:
                raise _limit_exceeded(f"{max_paths} distinct label paths", T, d)
            yield tuple(path), fold & -2  # drop ε
        depth += 1
        for b, coords in kids.items():
            stack.append((depth, b, merge_bits(fold, b), coords))


def run_output_sets(
    run: Sequence[Step], T: Sequence[int], d: Dictionary
) -> List[Tuple[int, ...]]:
    """Output sets of a run as ascending item tuples, one per position
    (``()`` = ε); ``T`` and ``d`` stay for the callers' signature."""
    return [tuple(bit_items(bits & -2)) for _, bits in run]


def generate(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    *,
    sigma: Optional[int] = None,
    max_candidates: Optional[int] = None,
) -> Set[Tuple[int, ...]]:
    """Gπ(T) — or Gσπ(T) when ``sigma`` is given (candidates consisting only
    of frequent items, Sec. III): the Cartesian products of T's distinct
    label paths under the frequent-item mask. The empty candidate is never
    included.
    """
    cands: Set[Tuple[int, ...]] = set()
    for labels, _ in label_paths(fst, T, d, d.frequent_mask(sigma)):
        if not labels:
            continue  # an all-ε run outputs only the empty candidate
        for cand in product(*map(bit_items, labels)):
            cands.add(cand)
            if max_candidates is not None and len(cands) > max_candidates:
                raise _limit_exceeded(f"{max_candidates} candidates", T, d)
    return cands


def matches(fst: Fst, T: Sequence[int], d: Dictionary) -> bool:
    """True iff T has at least one accepting run."""
    return live_rows(fst, T, d, -1) is not None
