"""FST simulation: accepting runs and candidate subsequences (Sec. IV).

A *run* for input T = t1…tn is a transition sequence δ1–…–δn starting in the
initial state with ti ∈ in(δi); it is *accepting* if it ends in a final
state. The candidate subsequences Gπ(T) are the union over accepting runs of
the Cartesian products of the runs' output sets (ε contributes nothing).

Enumeration is exponential in the worst case; it is used as the NAÏVE /
SEMI-NAÏVE map phase, as the brute-force oracle in tests, and (runs only)
by D-CAND's trie construction. A memoized reachability check prunes dead
branches so only prefixes of accepting runs are explored. ``max_candidates``
guards against pathological blow-ups (mirrors the paper's OOM findings).
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import Dictionary, item_bits
from repro.patex.fst import Fst, Step


class CandidateLimitExceeded(RuntimeError):
    """Raised when run or candidate enumeration exceeds its limit."""


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
    # Explicit stack of (position, state, run-so-far) to avoid recursion limits.
    stack: List[Tuple[int, int, Tuple[Step, ...]]] = [(0, fst.initial, ())]
    while stack:
        i, q, run = stack.pop()
        if i == n:
            count += 1
            if max_runs is not None and count > max_runs:
                raise _limit_exceeded(f"{max_runs} accepting runs", T, d)
            yield run
            continue
        nxt = alive[i + 1]
        for st in fst.step(q, T[i], d):
            if nxt >> st[0] & 1:  # st[0] is the target state
                stack.append((i + 1, st[0], run + (st,)))


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
