"""Pattern growth (Sec. V-C, VI-B): DESQ-DFS and the loop it shares with
D-CAND's NFA miner.

:func:`grow` mines weighted inputs given as automata over output items.
It extends the empty prefix one item at a time, depth-first with an
explicit stack (output patterns can be thousands of items long). A prefix's
*projected database* is the set of snapshots ``(input, state)`` that the
inputs reach by producing it; an input counts once towards its support
however many of its snapshots accept. D-CAND's reducer runs it on candidate
NFAs (:func:`repro.desq.nfa.mine_nfas`); :func:`mine` runs it on the FST
simulation of each input sequence, as

* the sequential DESQ-DFS baseline (Table V): ``pivot=None``,
* D-SEQ's local miner at partition Pk: ``pivot=k`` — then items > k are
  never used for expansion, only sequences whose maximum item equals k are
  output, and the *early stopping* heuristic prunes snapshots that can no
  longer contribute the pivot item (Sec. V-C).

Input sequences carry integer weights so that identical (rewritten)
sequences aggregated by a map-side combiner are mined once. Their σ-live
step rows (:func:`repro.desq.simulate.live_rows`) are memoised per FST,
Dictionary and σ mask under the key (item, next position's ε-accepting and
ε-outputting states), per worker per broadcast; the ≤ k cut is applied
after, so D-SEQ's partitions (~8.7 per input) and the sequential baseline
share one table (1 162 rows for 99 114 positions on amznf-t3, seed 41).
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import Dictionary, bit_items
from repro.patex.fst import Fst
from repro.desq.simulate import Row, live_rows

Sequence_ = Tuple[int, ...]
# One weighted input: ((sequence, last_pivot_pos), weight). last_pivot_pos
# is the index of the last position that can produce the pivot item; None
# disables early stopping for the entry.
WeightedInput = Tuple[Tuple[Sequence_, Optional[int]], int]
# An automaton's transitions from one state: (accepting, [(items, next_state)]).
Moves = Tuple[bool, Sequence[Tuple[Sequence[int], int]]]


def grow(
    inputs: Sequence[Tuple[int, Callable[[int], Moves], int]],
    sigma: int,
    pivot: Optional[int] = None,
) -> Dict[Sequence_, int]:
    """Frequent item sequences of weighted automata ``(weight, moves,
    start_state)``: ``{sequence: support}`` with support ≥ sigma, where the
    support of a sequence is the total weight of the inputs accepting it.
    With ``pivot=k`` only sequences whose maximum item is k are returned.

    Results are recorded in pre-order with children in ascending item order.
    """
    weights = [w for w, _, _ in inputs]
    moves = [m for _, m, _ in inputs]
    results: Dict[Sequence_, int] = {}
    stack = [((), {(i, s) for i, (_, _, s) in enumerate(inputs)})]
    while stack:
        prefix, projected = stack.pop()
        # Support bound: the weight of the distinct inputs present. Below σ,
        # neither the prefix nor any extension of it can be frequent.
        if sum(weights[i] for i in {i for i, _ in projected}) < sigma:
            continue
        support = 0
        counted: Set[int] = set()
        children: Dict[int, Set[Tuple[int, int]]] = {}
        for i, s in projected:
            accepting, steps = moves[i](s)
            if accepting and i not in counted:
                counted.add(i)
                support += weights[i]
            for items, t in steps:
                snap = (i, t)
                for w in items:
                    child = children.get(w)
                    if child is None:
                        children[w] = {snap}
                    else:
                        child.add(snap)
        if prefix and support >= sigma and (pivot is None or max(prefix) == pivot):
            results[prefix] = support
        # Pushed in descending item order, so visited in ascending order.
        stack.extend((prefix + (w,), children[w]) for w in sorted(children, reverse=True))
    return results


class _SeqContext:
    """The FST simulation of one input sequence, over its σ-live step rows,
    as an automaton for :func:`grow`.

    A snapshot is the int ``(pos * n_states + q) << 1 | bit``: position and
    FST state after producing the prefix, and whether early stopping no
    longer applies — set once the prefix holds the pivot, and from the start
    when early stopping is off for the input. While the bit is unset, steps
    that consume an item past ``last_pivot_pos`` may emit only the pivot.
    """

    __slots__ = ("rows", "width", "allowed", "items", "pivot", "bound", "_memo")

    def __init__(
        self, rows: Sequence[Row], width: int, allowed: int, items: Dict[int, Sequence_],
        pivot: Optional[int], last_pivot_pos: Optional[int],
    ):
        self.rows = rows
        self.width = width
        self.allowed = allowed  # the items that may be output, as a bitset
        self.items = items  # label bitset → its items in allowed, ascending
        self.pivot = pivot
        # Next snapshots below the bound consumed no item past last_pivot_pos
        # (read only while early stopping applies, so last_pivot_pos is set).
        self.bound = ((last_pivot_pos or 0) + 2) * width << 1
        self._memo: Dict[int, Moves] = {}

    def moves(self, snap: int) -> Moves:
        """``(accepting, [(items, next_snapshot)])``, memoised per snapshot;
        a restricted snapshot derives its moves from its unrestricted twin,
        so each ε-closure is computed once."""
        cached = self._memo.get(snap)
        if cached is None:
            cached = self._closure(snap) if snap & 1 else self._restrict(self.moves(snap | 1))
            self._memo[snap] = cached
        return cached

    def _closure(self, snap: int) -> Moves:
        """From an unrestricted snapshot: its row's ε-acceptance, and the
        labelled steps over its rows' ε steps, sweeping positions with one
        state bitset each (every step consumes an item). Labels are cut to
        ``allowed``; a step left without items is dropped."""
        rows, width, items = self.rows, self.width, self.items
        i, q = divmod(snap >> 1, width)
        accepting = bool(rows[i][0] >> q & 1)
        cur = 1 << q
        steps: List[Tuple[Sequence_, int]] = []
        while cur:
            _, _, eps, outs = rows[i]
            i += 1
            base, nxt = i * width, 0
            while cur:
                low = cur & -cur
                cur ^= low
                q = low.bit_length() - 1
                nxt |= eps[q]
                for b, dst in outs[q]:
                    kept = items.get(b)
                    if kept is None:
                        kept = items[b] = tuple(bit_items(b & self.allowed))
                    if kept:
                        steps.append((kept, (base + dst) << 1 | 1))
            cur = nxt
        return accepting, steps

    def _restrict(self, unrestricted: Moves) -> Moves:
        """Early stopping (Sec. V-C) for a prefix without the pivot: the
        pivot item lifts the restriction; other items are dropped from steps
        that consumed the last position able to produce the pivot."""
        accepting, steps = unrestricted
        pivot, bound = self.pivot, self.bound
        restricted: List[Tuple[Sequence_, int]] = []
        for items, t in steps:
            if items[-1] == pivot:  # items are ascending and ≤ pivot
                restricted.append(((pivot,), t))
                if len(items) == 1:
                    continue
                items = items[:-1]
            if t < bound:
                restricted.append((items, t ^ 1))
        return accepting, tuple(restricted)


def mine(
    inputs: Sequence[WeightedInput],
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    pivot: Optional[int] = None,
    early_stop: bool = True,
) -> Dict[Sequence_, int]:
    """Mine frequent subsequences from weighted input sequences.

    Returns ``{subsequence: frequency}`` with frequency ≥ sigma; with
    ``pivot=k`` only subsequences whose maximum item is k are returned
    (partition Pk's share of the output).
    """
    mask = d.frequent_mask(sigma)
    allowed = mask if pivot is None else mask & ((2 << pivot) - 1)
    items: Dict[int, Sequence_] = {}
    automata = []
    for (seq, last), w in inputs:
        if w <= 0:
            continue
        # Only sequences with a σ-live accepting run take part.
        rows = live_rows(fst, seq, d, mask)
        if rows is not None:
            ctx = _SeqContext(rows, fst.n_states, allowed, items, pivot, last)
            restricted = early_stop and pivot is not None and last is not None
            automata.append((w, ctx.moves, fst.initial << 1 | (not restricted)))
    return grow(automata, sigma, pivot)
