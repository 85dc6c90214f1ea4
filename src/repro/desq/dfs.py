"""DESQ-DFS: pattern-growth mining with flexible constraints (Sec. V-C).

Mining starts from the empty prefix and expands it by one output item at a
time, depth-first with an explicit stack (output patterns can be thousands
of items long). Each prefix is associated with a *projected
database*: a list of snapshots ``(seq_idx, pos, state)`` recording where
the FST simulation of each input sequence stands after producing the
prefix. Expanding a prefix follows ε-output transitions transitively and
branches on every item an output-producing transition can emit.

The same implementation serves as

* the sequential DESQ-DFS baseline (Table V): ``pivot=None``,
* D-SEQ's local miner at partition Pk: ``pivot=k`` — then items > k are
  never used for expansion, only sequences whose maximum item equals k are
  output, and the *early stopping* heuristic prunes snapshots that can no
  longer contribute the pivot item (Sec. V-C).

Input sequences carry integer weights so that identical (rewritten)
sequences aggregated by a map-side combiner are mined once.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.simulate import acceptance_table

Sequence_ = Tuple[int, ...]
# One weighted input: ((sequence, last_pivot_pos), weight). last_pivot_pos
# is the 0-based index of the last position that can produce the pivot item
# (-1/len(seq)-1 semantics: None disables early stopping for the entry).
WeightedInput = Tuple[Tuple[Sequence_, Optional[int]], int]


class _SeqContext:
    """Per-sequence simulation context: acceptance bitsets + memoized closures."""

    __slots__ = ("seq", "weight", "last_pivot_pos", "table", "_closure")

    def __init__(
        self,
        seq: Sequence_,
        weight: int,
        last_pivot_pos: Optional[int],
        fst: Fst,
        d: Dictionary,
    ):
        self.seq = seq
        self.weight = weight
        self.last_pivot_pos = last_pivot_pos
        self.table = acceptance_table(fst, seq, d)
        self._closure: Dict[Tuple[int, int], Tuple[bool, List]] = {}

    def closure(
        self, pos: int, state: int, fst: Fst, d: Dictionary
    ) -> Tuple[bool, List[Tuple[Tuple[int, ...], int, int]]]:
        """From snapshot (pos, state): follow ε-output transitions.

        Returns ``(accepting, steps)`` where ``accepting`` is True iff an
        accepting coordinate is reachable via ε-output transitions only,
        and ``steps`` lists ``(out_items, next_pos, next_state)`` for every
        output-producing transition reachable the same way (``next_pos`` is
        the position *after* consuming the transition's input item).
        Only coordinates that can still reach acceptance are followed.
        """
        key = (pos, state)
        cached = self._closure.get(key)
        if cached is not None:
            return cached
        n = len(self.seq)
        accepting = False
        steps: List[Tuple[Tuple[int, ...], int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        stack = [key]
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
            for dst, out, _ in fst.step(q, self.seq[i], d):
                if not live >> dst & 1:
                    continue
                if out:
                    steps.append((out, i + 1, dst))
                else:
                    stack.append((i + 1, dst))
        result = (accepting, steps)
        self._closure[key] = result
        return result


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
    contexts = [
        _SeqContext(seq, w, lp, fst, d)
        for (seq, lp), w in inputs
        if w > 0
    ]
    # Keep only sequences that have at least one accepting run at all.
    projected0 = [
        (idx, 0, fst.initial)
        for idx, ctx in enumerate(contexts)
        if ctx.table[0] >> fst.initial & 1
    ]
    results: Dict[Sequence_, int] = {}
    # Pre-order DFS; children are pushed in descending item order so they
    # are visited, and their results recorded, in ascending order.
    stack = [((), projected0)]
    while stack:
        prefix, projected = stack.pop()
        by_item = _expand(prefix, sorted(projected), contexts, fst, d, sigma,
                          pivot, early_stop, results)
        stack.extend((prefix + (w,), by_item[w]) for w in sorted(by_item, reverse=True))
    return results


def _support(
    snapshot_ids: Sequence[Tuple[int, int, int]], contexts: List[_SeqContext]
) -> int:
    seen: Set[int] = set()
    total = 0
    for idx, _pos, _q in snapshot_ids:
        if idx not in seen:
            seen.add(idx)
            total += contexts[idx].weight
    return total


def _expand(
    prefix: Sequence_,
    projected: List[Tuple[int, int, int]],
    contexts: List[_SeqContext],
    fst: Fst,
    d: Dictionary,
    sigma: int,
    pivot: Optional[int],
    early_stop: bool,
    results: Dict[Sequence_, int],
) -> Dict[int, Set[Tuple[int, int, int]]]:
    """Record ``prefix`` in ``results`` if it qualifies; return its
    expansions as item → projected database."""
    # Support bound: distinct sequences in the projected database. If it is
    # below σ, no extension (nor the prefix itself) can be frequent.
    if _support(projected, contexts) < sigma:
        return {}

    # Does the prefix itself qualify? Count sequences with an accepting
    # ε-closure; output if frequent and pivot-compatible.
    if prefix:
        support = 0
        counted: Set[int] = set()
        for idx, pos, q in projected:
            if idx in counted:
                continue
            accepting, _ = contexts[idx].closure(pos, q, fst, d)
            if accepting:
                counted.add(idx)
                support += contexts[idx].weight
        if support >= sigma and (pivot is None or max(prefix) == pivot):
            results[prefix] = support

    # Collect expansions: item w -> new projected database.
    has_pivot = pivot is not None and pivot in prefix
    by_item: Dict[int, Set[Tuple[int, int, int]]] = {}
    for idx, pos, q in projected:
        ctx = contexts[idx]
        _, steps = ctx.closure(pos, q, fst, d)
        for out, npos, nq in steps:
            for w in out:
                if not d.is_frequent(w, sigma):
                    continue
                if pivot is not None:
                    if w > pivot:
                        continue  # would move the pivot past k (Sec. V-C)
                    if (
                        early_stop
                        and not has_pivot
                        and w != pivot
                        and ctx.last_pivot_pos is not None
                        and npos - 1 > ctx.last_pivot_pos
                    ):
                        # Early stopping: this snapshot consumed the last
                        # position that could produce the pivot item, and
                        # the prefix still lacks it.
                        continue
                by_item.setdefault(w, set()).add((idx, npos, nq))

    return by_item
