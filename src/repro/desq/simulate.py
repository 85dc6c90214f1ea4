"""FST simulation: accepting runs and candidate subsequences (Sec. IV).

A *run* for input T = t1…tn is a transition sequence δ1–…–δn starting in the
initial state with ti ∈ in(δi); it is *accepting* if it ends in a final
state. The candidate subsequences Gπ(T) are the union over accepting runs of
the Cartesian products of the runs' output sets (ε contributes nothing).

Enumeration is exponential in the worst case; it is used as the NAÏVE /
SEMI-NAÏVE map phase and as the brute-force oracle in tests. A memoized
reachability check prunes dead branches so only prefixes of accepting runs
are explored. D-CAND's tries see only a run's σ-filtered non-ε output sets,
so :func:`label_paths` enumerates those *label paths* instead, each distinct
one once. ``max_candidates`` and ``max_paths`` guard against pathological
blow-ups (mirroring the paper's OOM findings).
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import EPS_BITS, Dictionary, item_bits
from repro.patex.fst import Fst, Step
from repro.desq.grid import merge_bits


class CandidateLimitExceeded(RuntimeError):
    """Raised when run, label-path or candidate enumeration exceeds its limit."""


def _limit_exceeded(what: str, T: Sequence[int], d: Dictionary) -> CandidateLimitExceeded:
    """The error for ``T``, named by its length and first items."""
    head = " ".join(d.decode(T[:5])) + (" ..." if len(T) > 5 else "")
    return CandidateLimitExceeded(f"more than {what} for the sequence of {len(T)} items [{head}]")


def acceptance_table(fst: Fst, T: Sequence[int], d: Dictionary) -> List[int]:
    """``alive[i]`` — bitset of the states ``q`` from which the simulation,
    having read ``i`` items, can still reach acceptance at position ``|T|``.

    Computed backwards (positions n..0) so run enumeration can prune
    non-accepting branches; iterative, so long sequences are safe.
    """
    n = len(T)
    alive = [0] * (n + 1)
    nxt = alive[n] = item_bits(fst.finals)
    for i in range(n - 1, -1, -1):
        cur = 0
        for q, steps in enumerate(fst.steps(T[i], d)):
            for dst, _, _ in steps:
                if nxt >> dst & 1:
                    cur |= 1 << q
                    break
        if not cur:
            break  # nothing before position i can accept either
        alive[i] = nxt = cur
    return alive


def accepting_runs(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    *,
    max_runs: Optional[int] = None,
) -> Iterator[Tuple[Step, ...]]:
    """Yield every accepting run for ``T`` (pruned depth-first search), as
    the run's :meth:`Fst.step` entries."""
    n = len(T)
    alive = acceptance_table(fst, T, d)
    if not alive[0] >> fst.initial & 1:
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
        nxt = alive[i + 1]
        for st in fst.step(q, T[i], d):
            if nxt >> st[0] & 1:  # st[0] is the target state
                stack.append((i + 1, st[0], st))


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

    Depth-first subset construction on the grid: a node is one distinct
    label prefix and holds the coordinates ``(i, q)`` its last label steps
    into; its children group the ε-closure's labelled steps by label, so
    runs that differ only in their ε steps are walked once. One backward
    pass tables, per coordinate, whether it accepts over ε steps only, its
    ε steps into coordinates that reach a live labelled step over ε steps
    only, and its live labelled steps (live: reaching acceptance over
    σ-live steps). So the closure never walks a tail that outputs nothing.
    ``max_paths`` bounds the paths yielded.
    """
    n, width = len(T), fst.n_states
    # Per coordinate c = i * width + q: accepts[c], eps[c] = (target, ...)
    # and outs[c] = (label, target, label, target, ...). Flat tuples of ints
    # leave the garbage collector nothing to trace on long sequences.
    # lv/ea/eo: the live, ε-accepting and ε-outputting states at i + 1.
    accepts = bytearray((n + 1) * width)
    eps: List[Tuple[int, ...]] = [()] * ((n + 1) * width)
    outs: List[Tuple[int, ...]] = [()] * ((n + 1) * width)
    lv = ea = item_bits(fst.finals)
    for q in fst.finals:
        accepts[n * width + q] = 1
    eo = 0
    for i in range(n - 1, -1, -1):
        a = o = 0
        base = (i + 1) * width
        for q, steps in enumerate(fst.steps(T[i], d)):
            e: Tuple[int, ...] = ()
            out: Tuple[int, ...] = ()
            for dst, _, bits in steps:
                if lv >> dst & 1:
                    b = bits & mask
                    if b == EPS_BITS:
                        a |= (ea >> dst & 1) << q
                        if eo >> dst & 1:
                            e += (base + dst,)
                    elif b:
                        out += (b, base + dst)
            c = base - width + q
            accepts[c] = a >> q & 1
            if e or out:
                o |= 1 << q
                eps[c], outs[c] = e, out
        lv, ea, eo = a | o, a, o  # live = accepts or outputs over ε steps
        if not lv:
            return  # nothing before position i can accept either
    if not lv >> fst.initial & 1:
        return
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
        c = seeds[0]
        if len(seeds) == 1 and not eps[c]:
            accept, steps = accepts[c], outs[c]
        else:  # walk the seeds' ε-closure, collecting its labelled steps
            seen = set(seeds)
            todo = list(seen)
            accept, steps = 0, []
            while todo:
                c = todo.pop()
                accept |= accepts[c]
                for t in eps[c]:
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
                steps += outs[c]
        if accept:
            count += 1
            if max_paths is not None and count > max_paths:
                raise _limit_exceeded(f"{max_paths} distinct label paths", T, d)
            yield tuple(path), fold & -2  # drop ε
        if not steps:
            continue
        if len(steps) == 2:
            kids: Iterable[Tuple[int, Sequence[int]]] = ((steps[0], steps[1:]),)
        else:  # group the targets by label
            grouped: Dict[int, List[int]] = {}
            for b, t in zip(steps[::2], steps[1::2]):
                grouped.setdefault(b, []).append(t)
            kids = grouped.items()
        depth += 1
        for b, coords in kids:
            stack.append((depth, b, merge_bits(fold, b), coords))


def run_output_sets(
    run: Sequence[Step], T: Sequence[int], d: Dictionary
) -> List[Tuple[int, ...]]:
    """Output sets of a run (one per position; ``()`` = ε). The run's steps
    carry them already; ``T`` and ``d`` stay for the callers' signature."""
    return [out for _, out, _ in run]


def _expand(output_sets: List[Tuple[int, ...]]) -> Iterator[Tuple[int, ...]]:
    """Cartesian product of the non-ε output sets, concatenated."""
    seqs: List[Tuple[int, ...]] = [()]
    for out in output_sets:
        if not out:
            continue
        seqs = [s + (w,) for s in seqs for w in out]
    return iter(seqs)


def generate(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    *,
    sigma: Optional[int] = None,
    max_candidates: Optional[int] = None,
) -> Set[Tuple[int, ...]]:
    """Gπ(T) — or Gσπ(T) when ``sigma`` is given (candidates consisting only
    of frequent items, Sec. III). The empty candidate is never included.
    """
    mask = d.frequent_mask(sigma)
    cands: Set[Tuple[int, ...]] = set()
    for run in accepting_runs(fst, T, d):
        # A position whose output items are all infrequent (masked to 0:
        # dead, unlike ε's 1) kills the run; dropping infrequent items from
        # mixed sets drops exactly the candidates containing them (support
        # antimonotonicity).
        if not all(bits & mask for _, _, bits in run):
            continue
        outs = [tuple(w for w in out if mask >> w & 1) for _, out, _ in run]
        for cand in _expand(outs):
            if cand:
                cands.add(cand)
                if max_candidates is not None and len(cands) > max_candidates:
                    raise _limit_exceeded(f"{max_candidates} candidates", T, d)
    return cands


def matches(fst: Fst, T: Sequence[int], d: Dictionary) -> bool:
    """True iff T has at least one accepting run."""
    return bool(acceptance_table(fst, T, d)[0] >> fst.initial & 1)
