"""Candidate representation as compressed NFAs (paper Sec. VI, Figs. 7-8).

For each (input sequence T, pivot k), D-CAND encodes the pivot-k share of
the candidate subsequences as a finite language accepted by an NFA:

* **Construction** — each accepting run's sequence of non-ε output sets
  (σ-filtered, items > k dropped) is inserted into a trie whose edge labels
  are output *sets*; one NFA edge corresponds to one output set.
* **Minimization** — tries are acyclic, so they are minimized in linear
  time à la Revuz: states are merged bottom-up when they agree on finality
  and on their (label → target) edge sets.
* **Serialization** — the paper's DFS scheme: per transition, the label is
  always written; the source state id only when the source was already
  visited on another path; the target state id only when the target was
  already visited; a "final" marker when the target is final and new.
  States are numbered in DFS visit order, so the decoder can reconstruct
  ids without them being written.
* **Mining** — `mine_nfas` counts candidate frequencies over weighted NFAs
  with a pattern-growth expansion operating directly on the NFAs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

Label = Tuple[int, ...]  # an output set, ascending item fids

# Serialization flag bits (one flags int per transition).
_HAS_SRC = 1
_HAS_TGT = 2
_FINAL = 4


class Trie:
    """Trie over sequences of output sets; edge labels are sets."""

    def __init__(self) -> None:
        self.children: List[Dict[Label, int]] = [{}]
        self.final: List[bool] = [False]

    def insert(self, labels: Sequence[Label]) -> None:
        node = 0
        for lab in labels:
            nxt = self.children[node].get(lab)
            if nxt is None:
                nxt = len(self.children)
                self.children.append({})
                self.final.append(False)
                self.children[node][lab] = nxt
            node = nxt
        self.final[node] = True

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

    def accepts(self, seq: Sequence[int]) -> bool:
        states = {0}
        for w in seq:
            nxt: Set[int] = set()
            for s in states:
                for lab, tgt in self.children[s]:
                    if w in lab:
                        nxt.add(tgt)
            if not nxt:
                return False
            states = nxt
        return any(self.final[s] for s in states)


def trie_to_nfa(trie: Trie) -> Nfa:
    children = tuple(
        tuple(sorted(c.items())) for c in trie.children
    )
    return Nfa(children, tuple(trie.final))


def minimize(nfa: Nfa) -> Nfa:
    """Merge equivalent states bottom-up (Revuz for acyclic automata).

    Two states are equivalent iff they have the same finality and the same
    set of (label, equivalent-target) edges. Tries (and their merges) are
    acyclic, so a single bottom-up pass over a reverse-topological order
    computes the unique minimal partition.
    """
    n = nfa.n_states
    # Topological order (children before parents): DFS post-order from root.
    order: List[int] = []
    seen = [False] * n
    stack: List[Tuple[int, bool]] = [(0, False)]
    while stack:
        state, processed = stack.pop()
        if processed:
            order.append(state)
            continue
        if seen[state]:
            continue
        seen[state] = True
        stack.append((state, True))
        for _lab, tgt in nfa.children[state]:
            if not seen[tgt]:
                stack.append((tgt, False))

    rep: Dict[int, int] = {}  # state -> representative id (new numbering later)
    signature_of: Dict[Tuple, int] = {}
    for state in order:  # children always processed before parents
        sig = (
            nfa.final[state],
            frozenset((lab, rep[tgt]) for lab, tgt in nfa.children[state]),
        )
        rep[state] = signature_of.setdefault(sig, state)

    # Rebuild with merged states, renumbered with root first.
    kept = []
    kept_set: Set[int] = set()
    stack2 = [rep[0]]
    while stack2:
        s = stack2.pop()
        if s in kept_set:
            continue
        kept_set.add(s)
        kept.append(s)
        for _lab, tgt in nfa.children[s]:
            if rep[tgt] not in kept_set:
                stack2.append(rep[tgt])
    kept = [rep[0]] + sorted(x for x in kept if x != rep[0])
    remap = {s: i for i, s in enumerate(kept)}
    children = tuple(
        tuple(sorted({(lab, remap[rep[tgt]]) for lab, tgt in nfa.children[s]}))
        for s in kept
    )
    final = tuple(nfa.final[s] for s in kept)
    return Nfa(children, final)


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
    return Nfa(tuple(tuple(sorted(c)) for c in children), tuple(final))


def build_pivot_nfas(
    runs_output_sets: Iterator[List[Label]],
    pivots_of_run,
    sigma_filter,
    minimize_nfas: bool = True,
) -> Dict[int, Nfa]:
    """Build one NFA per pivot from an iterator of runs' output sets.

    ``pivots_of_run(outs)`` returns the pivot items K(r) of a run;
    ``sigma_filter(out)`` maps an output set to its σ-filtered version
    (possibly empty = dead). Items > k are dropped per pivot on insertion.
    """
    tries: Dict[int, Trie] = {}
    for outs in runs_output_sets:
        filtered: List[Label] = []
        dead = False
        for out in outs:
            if not out:
                continue  # ε — contributes nothing
            kept = sigma_filter(out)
            if not kept:
                dead = True
                break
            filtered.append(kept)
        if dead:
            continue
        for k in pivots_of_run(filtered):
            labels = [tuple(w for w in out if w <= k) for out in filtered]
            # k ∈ K(r) guarantees every set retains an item ≤ k.
            tries.setdefault(k, Trie()).insert(labels)
    nfas: Dict[int, Nfa] = {}
    for k, trie in tries.items():
        nfa = trie_to_nfa(trie)
        nfas[k] = minimize(nfa) if minimize_nfas else nfa
    return nfas


def mine_nfas(
    weighted: Sequence[Tuple[Nfa, int]],
    sigma: int,
    pivot: int,
) -> Dict[Tuple[int, ...], int]:
    """Count pivot sequences over weighted NFAs (Sec. VI-B).

    Each NFA encodes the candidate set of one input sequence (for this
    pivot); identical NFAs arrive pre-aggregated with a weight. A candidate
    counts once per NFA regardless of how many paths accept it, so the
    pattern-growth expansion tracks *sets* of states per NFA.
    """
    results: Dict[Tuple[int, ...], int] = {}
    # Projected database: list of (nfa_idx, frozenset-of-states). Pre-order
    # DFS with an explicit stack, children pushed in descending item order.
    stack = [((), [(i, frozenset({0})) for i in range(len(weighted))])]
    while stack:
        prefix, projected = stack.pop()
        support = sum(weighted[i][1] for i, _ in projected)
        if support < sigma:
            continue
        if prefix and max(prefix) == pivot:
            acc = sum(
                weighted[i][1]
                for i, states in projected
                if any(weighted[i][0].final[s] for s in states)
            )
            if acc >= sigma:
                results[prefix] = acc
        by_item: Dict[int, List[Tuple[int, FrozenSet[int]]]] = {}
        for i, states in projected:
            nfa = weighted[i][0]
            moves: Dict[int, Set[int]] = {}
            for s in states:
                for lab, tgt in nfa.children[s]:
                    for w in lab:
                        moves.setdefault(w, set()).add(tgt)
            for w, tgts in moves.items():
                by_item.setdefault(w, []).append((i, frozenset(tgts)))
        stack.extend((prefix + (w,), by_item[w]) for w in sorted(by_item, reverse=True))
    return results
