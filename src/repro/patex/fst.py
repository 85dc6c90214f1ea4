"""Compressed finite state transducer (paper Sec. IV, Fig. 4).

An FST is a 6-tuple (Q, qS, QF, Σ, 2^Σ ∪ {ε}, Δ). Every transition consumes
exactly one input item (the compiler eliminates ε-moves), matches it against
an input predicate, and produces an *output set* — either ``{ε}``
(represented as the empty tuple) or a set of items, each guaranteed to be an
ancestor of the input item (incl. the item itself).

Matchers and outputs are small tagged tuples evaluated against a broadcast
:class:`repro.hierarchy.Dictionary`, which keeps the FST picklable and cheap
to ship to Spark executors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hierarchy import EPS_BITS, Dictionary, item_bits

# Matcher tags -----------------------------------------------------------
M_ANY = "any"  # ("any",)            matches every item
M_DESC = "desc"  # ("desc", w)       matches t ∈ desc(w)  (reflexive)
M_EQ = "eq"  # ("eq", w)             matches exactly w

# Output tags ------------------------------------------------------------
O_EPS = "eps"  # ("eps",)            outputs ε
O_SELF = "self"  # ("self",)         outputs {t}
O_ANC = "anc"  # ("anc",)            outputs anc(t)
O_ANC_UPTO = "anc_upto"  # ("anc_upto", w)  outputs anc(t) ∩ desc(w)
O_CONST = "const"  # ("const", w)    outputs {w}

# One matching transition for an input item: (dst, out, bits); see Fst.step.
Step = Tuple[int, Tuple[int, ...], int]


@dataclass(frozen=True)
class Transition:
    """One FST transition δ = (src, in, out, dst); ``idx`` is its number."""

    idx: int
    src: int
    matcher: Tuple
    output: Tuple
    dst: int

    def matches(self, t: int, d: Dictionary) -> bool:
        tag = self.matcher[0]
        if tag == M_ANY:
            return True
        if tag == M_DESC:
            return d.is_descendant(t, self.matcher[1])
        return t == self.matcher[1]  # M_EQ

    def out(self, t: int, d: Dictionary) -> Tuple[int, ...]:
        """Output set for input ``t`` — ascending fids; ``()`` means ε."""
        tag = self.output[0]
        if tag == O_EPS:
            return ()
        if tag == O_SELF:
            return (t,)
        if tag == O_ANC:
            return d.ancestors(t)
        if tag == O_ANC_UPTO:
            w = self.output[1]
            return tuple(a for a in d.ancestors(t) if d.is_descendant(a, w))
        return (self.output[1],)  # O_CONST


@dataclass(frozen=True)
class Fst:
    """FST with integer states ``0..n_states-1``; state 0 is initial."""

    n_states: int
    initial: int
    finals: frozenset
    transitions: Tuple[Transition, ...]

    def step(self, q: int, t: int, d: Dictionary) -> Tuple[Step, ...]:
        """Every transition from state ``q`` that matches input item ``t``,
        as ``(dst, out, bits)``: ``out`` is the output tuple (``()`` = ε)
        and ``bits`` the output as a bitset with bit 0 standing for ε."""
        return self.steps(t, d)[q]

    def steps(self, t: int, d: Dictionary) -> Tuple[Tuple[Step, ...], ...]:
        """:meth:`step` for all states at once, indexed by state; the only
        place that evaluates matchers and outputs. Memoised per item for one
        Dictionary (another Dictionary starts the memo afresh)."""
        memo = self.__dict__.get("_steps")
        if memo is None or memo[0] is not d:
            memo = (d, {})
            object.__setattr__(self, "_steps", memo)
        row = memo[1].get(t)
        if row is None:
            by_src: List[List[Step]] = [[] for _ in range(self.n_states)]
            for tr in self.transitions:
                if tr.matches(t, d):
                    out = tr.out(t, d)
                    by_src[tr.src].append((tr.dst, out, item_bits(out) if out else EPS_BITS))
            row = memo[1][t] = tuple(map(tuple, by_src))
        return row

    def __getstate__(self):
        # Ship the definition only; workers rebuild their own memos.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}
