"""Pattern expression AST → compressed FST (paper Sec. IV).

Pipeline:

1. **Spliced Thompson construction**. DESQ's FST construction *merges*
   states instead of ε-linking them for concatenation and Kleene star:
   concatenation identifies the exit of E1 with the entry of E2, and
   ``[E]*`` identifies entry and exit of E with a single entry/exit state.
   This is what produces the paper's 3-state FST for
   ``πex = .*(A)[(.↑).*]*(b).*`` (Fig. 4), where ``[(.↑).*]*`` collapses to
   one state carrying both a capture self-loop and a skip self-loop — and
   hence candidates such as ``a1db``/``a1b`` for T1 (Fig. 3) that a textbook
   Thompson star would not generate. Alternation and optionals still use
   ε-edges (merging them would wrongly collapse looping branches).

   Labeled edges carry (matcher, output) pairs derived from the item
   expression and its capture context:

   ========  =============  =======================  =====================
   expr      captured?      matcher                  output
   ========  =============  =======================  =====================
   ``.``     no             any                      ε
   ``.``     yes            any                      matched item
   ``.^``    no             any                      ε
   ``.^``    yes            any                      anc(t)
   ``w``     no             desc(w)                  ε
   ``w``     yes            desc(w)                  matched item
   ``w=``    no             =w                       ε
   ``w=``    yes            =w                       {w}
   ``w^``    no             desc(w)                  ε
   ``w^``    yes            desc(w)                  anc(t) ∩ desc(w)
   ``w^=``   no             desc(w)                  ε
   ``w^=``   yes            desc(w)                  {w}
   ========  =============  =======================  =====================

   (Uncaptured expressions always output ε — Tab. I.)

2. **ε-elimination** turns the graph into an FST whose transitions all
   consume one input item: for every kept state q and every p in the
   ε-closure of q with a labeled edge p→r, the FST gets q→r; q is final iff
   its closure contains the construction's final state.

3. **Trimming** removes states that are unreachable from the start or
   cannot reach a final state, and deduplicates identical transitions.
   Transitions are numbered deterministically by (src, dst, matcher, output).

Bounded repetitions are expanded structurally (``E{n,m}`` = n spliced copies
+ m−n optional copies with ε exits), so FST size is linear in the written
expression size.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple, Union

from repro.hierarchy import Dictionary
from repro.patex import ast_nodes as A
from repro.patex.fst import (
    Fst,
    M_ANY,
    M_DESC,
    M_EQ,
    O_ANC,
    O_ANC_UPTO,
    O_CONST,
    O_EPS,
    O_SELF,
    Transition,
)
from repro.patex.parser import parse


class CompileError(ValueError):
    """Raised for semantic errors (e.g. unknown item names)."""


class _Graph:
    """Mutable spliced-Thompson graph: union-find states, ε + labeled edges."""

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.eps: List[Tuple[int, int]] = []
        self.edges: List[Tuple[int, Tuple, Tuple, int]] = []

    def new_state(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def merge(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra

    def add_eps(self, a: int, b: int) -> None:
        self.eps.append((a, b))

    def add_edge(self, a: int, matcher: Tuple, output: Tuple, b: int) -> None:
        self.edges.append((a, matcher, output, b))


def _item_label(node: A.Item, captured: bool, d: Dictionary) -> Tuple[Tuple, Tuple]:
    """(matcher, output) for an item expression in a capture context."""
    if node.name == A.DOT:
        matcher: Tuple = (M_ANY,)
        if not captured:
            return matcher, (O_EPS,)
        return matcher, ((O_ANC,) if node.up else (O_SELF,))
    w = d.fid_of.get(node.name)
    if w is None:
        raise CompileError(f"unknown item {node.name!r} in pattern expression")
    if node.eq and not node.up:
        matcher = (M_EQ, w)
        output: Tuple = (O_CONST, w)
    elif node.eq and node.up:
        matcher = (M_DESC, w)
        output = (O_CONST, w)
    elif node.up:
        matcher = (M_DESC, w)
        output = (O_ANC_UPTO, w)
    else:
        matcher = (M_DESC, w)
        output = (O_SELF,)
    if not captured:
        output = (O_EPS,)
    return matcher, output


def _build(g: _Graph, node: A.Node, captured: bool, d: Dictionary) -> Tuple[int, int]:
    """Compile ``node`` into ``g``; returns (entry, exit) states."""
    if isinstance(node, A.Item):
        s, e = g.new_state(), g.new_state()
        matcher, output = _item_label(node, captured, d)
        g.add_edge(s, matcher, output, e)
        return s, e
    if isinstance(node, A.Capture):
        return _build(g, node.child, True, d)
    if isinstance(node, A.Concat):
        s, e = _build(g, node.children[0], captured, d)
        for child in node.children[1:]:
            s2, e2 = _build(g, child, captured, d)
            g.merge(e, s2)  # splice: exit of E1 is entry of E2
            e = e2
        return s, e
    if isinstance(node, A.Alt):
        s, e = g.new_state(), g.new_state()
        for child in node.children:
            cs, ce = _build(g, child, captured, d)
            g.add_eps(s, cs)
            g.add_eps(ce, e)
        return s, e
    if isinstance(node, A.Rep):
        return _build_rep(g, node, captured, d)
    raise CompileError(f"unknown AST node {node!r}")


def _build_rep(g: _Graph, node: A.Rep, captured: bool, d: Dictionary) -> Tuple[int, int]:
    lo, hi = node.lo, node.hi
    if hi is None:
        # E{lo,}: lo spliced copies, then the merged star: one state that is
        # simultaneously the entry and exit of a looped copy of E.
        s = e = g.new_state()
        for _ in range(lo):
            cs, ce = _build(g, node.child, captured, d)
            g.merge(e, cs)
            e = ce
        cs, ce = _build(g, node.child, captured, d)
        q = g.merge(g.merge(e, cs), ce)  # e = entry = exit of the loop copy
        return s, q
    # E{lo,hi}: lo spliced mandatory copies + (hi-lo) optional copies with
    # ε-exits after each (skipping one copy skips the rest).
    s = e = g.new_state()
    for _ in range(lo):
        cs, ce = _build(g, node.child, captured, d)
        g.merge(e, cs)
        e = ce
    out = g.new_state()
    g.add_eps(e, out)
    for _ in range(hi - lo):
        cs, ce = _build(g, node.child, captured, d)
        g.add_eps(e, cs)
        e = ce
        g.add_eps(e, out)
    return s, out


def _eps_closures(
    g: _Graph, eps_from: Dict[int, List[int]], states: Set[int]
) -> Dict[int, Set[int]]:
    closures: Dict[int, Set[int]] = {}
    for q in states:
        seen = {q}
        stack = [q]
        while stack:
            x = stack.pop()
            for y in eps_from.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        closures[q] = seen
    return closures


def compile_patex(expr: Union[str, A.Node], d: Dictionary) -> Fst:
    """Compile a pattern expression (string or AST) into an :class:`Fst`."""
    node = parse(expr) if isinstance(expr, str) else expr
    g = _Graph()
    start_raw, final_raw = _build(g, node, False, d)

    # Resolve union-find roots.
    start, final = g.find(start_raw), g.find(final_raw)
    eps_from: Dict[int, List[int]] = {}
    for a, b in g.eps:
        eps_from.setdefault(g.find(a), []).append(g.find(b))
    edges_from: Dict[int, List[Tuple[Tuple, Tuple, int]]] = {}
    all_states: Set[int] = {start, final}
    for a, m, o, b in g.edges:
        ra, rb = g.find(a), g.find(b)
        edges_from.setdefault(ra, []).append((m, o, rb))
        all_states.update((ra, rb))
    for a, bs in eps_from.items():
        all_states.add(a)
        all_states.update(bs)

    closures = _eps_closures(g, eps_from, all_states)

    # ε-elimination: discover states reachable via labeled edges.
    trans: Set[Tuple[int, Tuple, Tuple, int]] = set()
    finals: Set[int] = set()
    seen: Set[int] = set()
    stack = [start]
    while stack:
        q = stack.pop()
        if q in seen:
            continue
        seen.add(q)
        if final in closures[q]:
            finals.add(q)
        for p in closures[q]:
            for m, o, b in edges_from.get(p, ()):
                trans.add((q, m, o, b))
                if b not in seen:
                    stack.append(b)

    # Backward trim: keep states from which a final is reachable.
    fwd: Dict[int, List[int]] = {}
    for a, _m, _o, b in trans:
        fwd.setdefault(a, []).append(b)
    productive: Set[int] = set(finals)
    changed = True
    while changed:
        changed = False
        for a, succs in fwd.items():
            if a not in productive and any(b in productive for b in succs):
                productive.add(a)
                changed = True
    trans = {
        (a, m, o, b)
        for (a, m, o, b) in trans
        if (a in productive or a == start) and b in productive
    }

    # Renumber: start first, then ascending construction id, for determinism.
    used = {start} | {a for a, *_ in trans} | {b for *_, b in trans}
    order = [start] + sorted(x for x in used if x != start)
    remap = {q: i for i, q in enumerate(order)}

    sorted_trans = sorted(trans, key=lambda t: (remap[t[0]], remap[t[3]], t[1], t[2]))
    transitions = tuple(
        Transition(remap[a], m, o, remap[b]) for a, m, o, b in sorted_trans
    )
    fst_finals = frozenset(remap[q] for q in finals if q in remap)
    return Fst(
        n_states=len(order),
        initial=0,
        finals=fst_finals,
        transitions=transitions,
    )
