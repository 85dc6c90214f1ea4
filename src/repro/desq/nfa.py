"""Candidate representation as compressed NFAs (paper Sec. VI, Figs. 7-8).

For each (input sequence T, pivot k), D-CAND encodes the pivot-k share of
the candidate subsequences as a finite language accepted by an NFA:

* **Construction** — each accepting run's sequence of non-ε output sets
  (σ-filtered, items > k dropped) is inserted into a trie whose edge labels
  are output *sets*, held as item bitsets (bit w = item w, as
  :meth:`repro.patex.fst.Fst.step` yields them); one NFA edge corresponds
  to one output set.
* **Minimization** — tries are acyclic, so they are minimized in linear
  time à la Revuz: states are merged bottom-up when they agree on finality
  and on their (label → target) edge sets. Only then are the labels of the
  minimal NFA decoded to item tuples, which :func:`serialize` writes.
* **Serialization** — the paper's DFS scheme: per transition, the label is
  always written; the source state id only when the source was already
  visited on another path; the target state id only when the target was
  already visited; a "final" marker when the target is final and new.
  States are numbered in DFS visit order, so the decoder can reconstruct
  ids without them being written.
* **Mining** — `mine_nfas` counts candidate frequencies directly on the
  weighted NFAs with DESQ-DFS's pattern-growth loop, `repro.desq.dfs.grow`.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import bit_items, item_bits
from repro.desq.dfs import grow

Label = Tuple[int, ...]  # an output set, ascending item fids

# Serialization flag bits (one flags int per transition).
_HAS_SRC = 1
_HAS_TGT = 2
_FINAL = 4


class Trie:
    """Trie over sequences of output sets; edge labels are item bitsets."""

    def __init__(self) -> None:
        self.children: List[Dict[int, int]] = [{}]
        self.final: List[bool] = [False]

    def insert(self, labels: Sequence[int], cut: int) -> None:
        """Add the path of ``labels``, each intersected with ``cut``."""
        children, final, node = self.children, self.final, 0
        for lab in labels:
            lab &= cut
            edges = children[node]
            node = edges.get(lab, 0)
            if not node:  # no edge leads back to the root
                node = edges[lab] = len(children)
                children.append({})
                final.append(False)
        final[node] = True

    def __len__(self) -> int:
        return len(self.children)


@dataclass
class Nfa:
    """Acyclic NFA over output-set labels. State 0 is the root."""

    children: Tuple[Tuple[Tuple[Label, int], ...], ...]  # per state: (label, target)*
    final: Tuple[bool, ...]

    @property
    def n_states(self) -> int:
        return len(self.children)

    @property
    def n_edges(self) -> int:
        return sum(len(c) for c in self.children)

    def moves(self, state: int) -> Tuple[bool, Tuple[Tuple[Label, int], ...]]:
        """``(final, [(label, target)])``: the automaton as ``dfs.grow`` reads it."""
        return self.final[state], self.children[state]

    def language(self, limit: Optional[int] = None) -> Set[Tuple[int, ...]]:
        """All accepted item sequences (Cartesian products along paths)."""
        out: Set[Tuple[int, ...]] = set()
        stack: List[Tuple[int, Tuple[int, ...]]] = [(0, ())]
        while stack:
            state, prefix = stack.pop()
            if self.final[state]:
                out.add(prefix)
                if limit is not None and len(out) > limit:
                    raise RuntimeError("language limit exceeded")
            for lab, tgt in self.children[state]:
                for w in lab:
                    stack.append((tgt, prefix + (w,)))
        out.discard(())
        return out


def minimize(trie: Trie) -> Nfa:
    """The minimal NFA of a trie: equivalent states merged bottom-up (Revuz
    for acyclic automata), then the labels decoded to item tuples.

    Two states are equivalent iff they have the same finality and the same
    (label, equivalent-target) edges. Every trie edge leads to a higher
    state id, so one pass from the last state down to state 0 sees every
    target before its source and computes the unique minimal partition.
    Classes are numbered in reverse order of discovery, so the root is state
    0 again. Only the minimal NFA's labels are decoded, once per distinct
    bitset, and each state's edges are sorted by their decoded labels.
    """
    children, final = trie.children, trie.final
    cls = [0] * len(children)
    class_of: Dict[Tuple, int] = {}
    reps: List[int] = []  # the first state found in each class
    for state in range(len(children) - 1, -1, -1):
        sig = [final[state]]  # finality, then (label, class) by label
        for lab, tgt in sorted(children[state].items()):
            sig += lab, cls[tgt]
        c = cls[state] = class_of.setdefault(tuple(sig), len(reps))
        if c == len(reps):
            reps.append(state)
    last = len(reps) - 1
    reps.reverse()
    decoded = {lab: tuple(bit_items(lab)) for lab in {lab for s in reps for lab in children[s]}}
    rows = []
    for s in reps:
        row = [(decoded[lab], last - cls[tgt]) for lab, tgt in children[s].items()]
        row.sort()
        rows.append(tuple(row))
    return Nfa(tuple(rows), tuple(final[s] for s in reps))


def serialize(nfa: Nfa) -> Tuple[int, ...]:
    """Flat int tuple, DFS-order scheme (Sec. VI-A ``Serialization``).

    Per transition: ``flags, [src], len(label), *label, [tgt]``. ``src`` and
    ``tgt`` are DFS visit ids, present only when flagged. Hashable, so it
    doubles as the combiner key; its length is the shuffle-size metric.
    """
    out: List[int] = []
    visit_id: Dict[int, int] = {0: 0}
    cursor = 0  # target of the previously written transition
    # DFS with one edge iterator per open state; a new target is entered
    # right after its edge is written.
    stack = [(0, iter(nfa.children[0]))]
    while stack:
        state, edges = stack[-1]
        for lab, tgt in edges:
            flags = 0
            parts: List[int] = []
            # The source is implied iff it is the previous edge's target.
            if cursor != state:
                flags |= _HAS_SRC
                parts.append(visit_id[state])
            seen_tgt = tgt in visit_id
            if seen_tgt:
                flags |= _HAS_TGT
            else:
                visit_id[tgt] = len(visit_id)
                if nfa.final[tgt]:
                    flags |= _FINAL
            parts.append(len(lab))
            parts.extend(lab)
            if seen_tgt:
                parts.append(visit_id[tgt])
            out.append(flags)
            out.extend(parts)
            cursor = tgt
            if not seen_tgt:
                stack.append((tgt, iter(nfa.children[tgt])))
                break
        else:
            stack.pop()
    return tuple(out)


def deserialize(data: Sequence[int]) -> Nfa:
    """Inverse of :func:`serialize`."""
    children: List[List[Tuple[Label, int]]] = [[]]
    final: List[bool] = [False]
    cursor = 0
    i = 0
    n = len(data)
    while i < n:
        flags = data[i]
        i += 1
        if flags & _HAS_SRC:
            src = data[i]
            i += 1
        else:
            src = cursor
        k = data[i]
        i += 1
        lab = tuple(data[i : i + k])
        i += k
        if flags & _HAS_TGT:
            tgt = data[i]
            i += 1
        else:
            tgt = len(children)
            children.append([])
            final.append(bool(flags & _FINAL))
        children[src].append((lab, tgt))
        cursor = tgt
    # serialize writes each state's edges in label order, so they are sorted.
    return Nfa(tuple(map(tuple, children)), tuple(final))


def pivot_nfas(runs: Iterable[Tuple[Sequence[int], int]]) -> Dict[int, Nfa]:
    """One minimised NFA per pivot from ``(labels, pivots)`` per run:
    ``labels`` are the run's σ-filtered non-ε output sets and ``pivots`` its
    pivot items K(r), all as item bitsets. Pivot k's trie gets the run with
    each label cut to its items ≤ k; k ∈ K(r) guarantees that none becomes
    empty. Pivots come in the order of their first run, ascending within it.
    """
    tries: Dict[int, Trie] = defaultdict(Trie)  # keyed by 1 << k
    for labels, pivots in runs:
        while pivots:
            low = pivots & -pivots
            pivots ^= low
            tries[low].insert(labels, (low << 1) - 1)  # cut to the items ≤ k
    return {low.bit_length() - 1: minimize(trie) for low, trie in tries.items()}


def build_pivot_nfas(runs_output_sets, pivots_of_run, sigma_filter) -> Dict[int, Nfa]:
    """:func:`pivot_nfas` over runs given as output tuples (``()`` = ε).
    ``sigma_filter(out)`` is an output set's σ-filtered version (empty: the
    run is dead); ``pivots_of_run`` gives K(r) of a run's filtered sets."""
    filtered = ([sigma_filter(out) for out in outs if out] for outs in runs_output_sets)
    return pivot_nfas(
        ([item_bits(out) for out in f], item_bits(pivots_of_run(f))) for f in filtered if all(f)
    )


def mine_nfas(
    weighted: Sequence[Tuple[Nfa, int]],
    sigma: int,
    pivot: int,
) -> Dict[Tuple[int, ...], int]:
    """Count pivot sequences over weighted NFAs (Sec. VI-B).

    Each NFA encodes the candidate set of one input sequence (for this
    pivot); identical NFAs arrive pre-aggregated with a weight. A candidate
    counts once per NFA regardless of how many paths accept it; DESQ-DFS's
    loop :func:`repro.desq.dfs.grow` mines the NFAs from state 0.
    """
    return grow([(w, nfa.moves, 0) for nfa, w in weighted], sigma, pivot)
