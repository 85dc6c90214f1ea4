"""Item vocabulary, hierarchy, and frequency-ordered encoding.

The paper (Sec. II) assumes items arranged in a DAG hierarchy and a total
order ``<`` on items with ``w1 < w2 iff f(w1, D) > f(w2, D)`` (more frequent
= smaller). Under that order the *pivot item* of a subsequence is its
maximum, i.e. its least frequent item.

``Dictionary`` holds the vocabulary, the hierarchy (ancestor sets, including
the item itself, per Sec. II), per-item document frequencies (the f-list:
the number of input sequences in which the item *or any of its descendants*
occurs), and the frequency-ordered integer encoding:

* fid ``0`` is reserved for the empty output ε and sorts below every item;
* fids ``1..|Σ|`` are assigned by decreasing document frequency (ties broken
  by name, or by an explicit ``order`` for tests that pin the paper's order);
* consequently ``pivot(S) = max(S)`` and the frequent items form the prefix
  ``1..fmax(sigma)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

EPSILON = 0  # fid of the empty output; smaller than every real item
EPS_BITS = 1 << EPSILON  # {ε} as a bitset


def item_bits(items: Iterable[int]) -> int:
    """Bitset of a set of fids: bit ``w`` is set iff ``w`` is in the set."""
    bits = 0
    for w in items:
        bits |= 1 << w
    return bits


def bit_items(bits: int) -> List[int]:
    """Inverse of :func:`item_bits`: the fids of a bitset, ascending."""
    items = []
    while bits:
        low = bits & -bits
        items.append(low.bit_length() - 1)
        bits ^= low
    return items


class HierarchyError(ValueError):
    """Raised for malformed hierarchies (cycles, unknown parents)."""


def ancestor_closure(hierarchy: Mapping[str, Sequence[str]]) -> Dict[str, frozenset]:
    """Reflexive-transitive ancestor sets for every item in a DAG hierarchy.

    ``hierarchy`` maps an item name to its direct parents (``u ⇒ v``). Items
    that appear only as parents are included with themselves as sole
    ancestor. Raises :class:`HierarchyError` on cycles.
    """
    items = set(hierarchy)
    for parents in hierarchy.values():
        items.update(parents)
    memo: Dict[str, frozenset] = {}
    state: Dict[str, int] = {}  # 1 = in progress, 2 = done

    def visit(w: str) -> frozenset:
        if state.get(w) == 2:
            return memo[w]
        if state.get(w) == 1:
            raise HierarchyError(f"hierarchy cycle through {w!r}")
        state[w] = 1
        anc = {w}
        for p in hierarchy.get(w, ()):
            anc.update(visit(p))
        state[w] = 2
        memo[w] = frozenset(anc)
        return memo[w]

    for w in items:
        visit(w)
    return memo


def document_frequencies(
    sequences: Iterable[Sequence[str]],
    closure: Mapping[str, frozenset],
) -> Dict[str, int]:
    """f(w, D) per item: #sequences containing w or any descendant of w.

    Implemented by expanding each sequence to the distinct union of the
    ancestor sets of its items (so ancestors are counted whenever any
    descendant occurs, cf. Fig. 2c: f(A) = 4 for the running example).
    """
    freq: Dict[str, int] = {w: 0 for w in closure}
    for seq in sequences:
        seen: set = set()
        for t in seq:
            seen.update(closure.get(t, (t,)))
        for w in seen:
            freq[w] = freq.get(w, 0) + 1
    return freq


@dataclass(frozen=True)
class Dictionary:
    """Immutable frequency-ordered vocabulary + hierarchy.

    Attributes
    ----------
    names:
        ``names[fid - 1]`` is the item name of ``fid`` (fids start at 1).
    fid_of:
        inverse mapping name → fid.
    dfreq:
        ``dfreq[fid - 1]`` is the document frequency f(w, D).
    anc:
        ``anc[fid - 1]`` is the tuple of ancestor fids of the item,
        *including itself*, sorted ascending (most frequent first).
    """

    names: Tuple[str, ...]
    fid_of: Mapping[str, int]
    dfreq: Tuple[int, ...]
    anc: Tuple[Tuple[int, ...], ...]
    _anc_sets: Tuple[frozenset, ...] = field(repr=False, default=())

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        sequences: Iterable[Sequence[str]],
        hierarchy: Mapping[str, Sequence[str]] | None = None,
        *,
        order: Sequence[str] | None = None,
        dfreq: Mapping[str, int] | None = None,
    ) -> "Dictionary":
        """Build from raw string sequences and a child→parents hierarchy.

        ``order`` optionally pins the exact fid order (used by tests to
        reproduce the paper's tie-breaking, e.g. ``b < A < d < a1 < c``).
        ``dfreq`` optionally supplies precomputed document frequencies
        (e.g. from the Spark f-list job) — then ``sequences`` may be empty.
        """
        hierarchy = dict(hierarchy or {})
        seqs = [list(s) for s in sequences]
        for s in seqs:
            for t in s:
                hierarchy.setdefault(t, [])
        for w in list(order or ()):
            hierarchy.setdefault(w, [])
        if dfreq is not None:
            for w in dfreq:
                hierarchy.setdefault(w, [])
        closure = ancestor_closure(hierarchy)
        freqs = dict(dfreq) if dfreq is not None else document_frequencies(seqs, closure)
        for w in closure:
            freqs.setdefault(w, 0)
        if order is not None:
            ordered = list(order)
            missing = set(closure) - set(ordered)
            if missing:
                raise HierarchyError(f"order is missing items: {sorted(missing)}")
        else:
            ordered = sorted(closure, key=lambda w: (-freqs[w], w))
        fid_of = {w: i + 1 for i, w in enumerate(ordered)}
        names = tuple(ordered)
        dfreq_t = tuple(freqs[w] for w in ordered)
        anc = tuple(
            tuple(sorted(fid_of[a] for a in closure[w])) for w in ordered
        )
        anc_sets = tuple(frozenset(a) for a in anc)
        return cls(names, fid_of, dfreq_t, anc, anc_sets)

    # -- basic accessors ------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def name(self, fid: int) -> str:
        return self.names[fid - 1]

    def freq(self, fid: int) -> int:
        return self.dfreq[fid - 1]

    def ancestors(self, fid: int) -> Tuple[int, ...]:
        """Ancestor fids of ``fid`` including itself, ascending."""
        return self.anc[fid - 1]

    def is_descendant(self, fid: int, of: int) -> bool:
        """True iff ``fid ⇒* of`` (reflexive)."""
        return of in self._anc_sets[fid - 1]

    # -- frequency order ------------------------------------------------
    def fmax(self, sigma: int) -> int:
        """Largest frequent fid: items ``1..fmax`` have f ≥ sigma.

        Frequencies are non-increasing in fid by construction *unless* an
        explicit test order was pinned; we therefore scan, returning the
        largest fid with ``dfreq ≥ sigma`` (0 if none).
        """
        last = 0
        for i, f in enumerate(self.dfreq):
            if f >= sigma:
                last = i + 1
        return last

    def is_frequent(self, fid: int, sigma: int) -> bool:
        return self.dfreq[fid - 1] >= sigma

    def frequent_mask(self, sigma: Optional[int]) -> int:
        """Bitset of the items with f ≥ sigma plus bit 0 (ε), memoised per
        sigma; all bits set when ``sigma`` is None (no filtering)."""
        if sigma is None:
            return -1
        masks = self.__dict__.setdefault("_masks", {})
        mask = masks.get(sigma)
        if mask is None:
            bits = "".join("1" if f >= sigma else "0" for f in reversed(self.dfreq))
            mask = masks[sigma] = int(bits + "1", 2)
        return mask

    # -- encoding -------------------------------------------------------
    def encode(self, seq: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.fid_of[t] for t in seq)

    def decode(self, fids: Sequence[int]) -> Tuple[str, ...]:
        return tuple(self.names[f - 1] for f in fids)

    def decode_str(self, fids: Sequence[int]) -> str:
        return " ".join(self.decode(fids))


def pivot(seq: Sequence[int]) -> int:
    """Pivot item of an encoded subsequence: its maximum fid (Sec. III-B)."""
    return max(seq)
