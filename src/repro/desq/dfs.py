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
sequences aggregated by a map-side combiner are mined once.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.simulate import acceptance_table

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
    """The FST simulation of one input sequence as an automaton for
    :func:`grow`.

    A snapshot is the int ``(pos * n_states + q) << 1 | bit``: position and
    FST state after producing the prefix, and whether early stopping no
    longer applies — set once the prefix holds the pivot, and from the start
    when early stopping is off for the input. While the bit is unset, steps
    that consume an item past ``last_pivot_pos`` may emit only the pivot.
    """

    __slots__ = ("seq", "fst", "d", "allowed", "pivot", "bound", "table", "_memo")

    def __init__(
        self, seq: Sequence_, fst: Fst, d: Dictionary, allowed: int,
        pivot: Optional[int], last_pivot_pos: Optional[int],
    ):
        self.seq = seq
        self.fst = fst
        self.d = d
        self.allowed = allowed  # the items that may be output, as a bitset
        self.pivot = pivot
        # Next snapshots below the bound consumed no item past last_pivot_pos
        # (read only while early stopping applies, so last_pivot_pos is set).
        self.bound = ((last_pivot_pos or 0) + 2) * fst.n_states << 1
        self.table = acceptance_table(fst, seq, d)
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
        """From an unrestricted snapshot: follow ε-output transitions.

        ``accepting`` is True iff an accepting coordinate is reachable via
        ε-output transitions only; the steps are the output-producing
        transitions reachable the same way, their items cut to ``allowed``
        and their next snapshots taken after the consumed item. Only
        coordinates that can still reach acceptance are followed.
        """
        fst, seq, n_states, allowed = self.fst, self.seq, self.fst.n_states, self.allowed
        n = len(seq)
        accepting = False
        steps: List[Tuple[Sequence_, int]] = []
        seen: Set[Tuple[int, int]] = set()
        stack = [divmod(snap >> 1, n_states)]
        while stack:
            i, q = stack.pop()
            if (i, q) in seen:
                continue
            seen.add((i, q))
            if i == n:
                if q in fst.finals:
                    accepting = True
                continue
            live = self.table[i + 1]
            for dst, out, bits in fst.step(q, seq[i], self.d):
                if not live >> dst & 1:
                    continue
                if not out:
                    stack.append((i + 1, dst))
                    continue
                kept = bits & allowed
                if kept:
                    if kept != bits:
                        out = tuple(w for w in out if kept >> w & 1)
                    steps.append((out, ((i + 1) * n_states + dst) << 1 | 1))
        return accepting, tuple(steps)

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
    allowed = d.frequent_mask(sigma)
    if pivot is not None:
        allowed &= (2 << pivot) - 1
    automata = []
    for (seq, last), w in inputs:
        if w <= 0:
            continue
        ctx = _SeqContext(seq, fst, d, allowed, pivot, last)
        # Only sequences with at least one accepting run take part.
        if ctx.table[0] >> fst.initial & 1:
            restricted = early_stop and pivot is not None and last is not None
            automata.append((w, ctx.moves, fst.initial << 1 | (not restricted)))
    return grow(automata, sigma, pivot)
