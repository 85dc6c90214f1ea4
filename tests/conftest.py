"""Shared fixtures: the paper's running example (Fig. 2)."""
import pytest

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.desq.simulate import CandidateLimitExceeded, accepting_runs, run_output_sets

DEX = [
    ["a1", "c", "d", "c", "b"],
    ["e", "e", "a1", "e", "a1", "e", "b"],
    ["c", "d", "c", "b"],
    ["a2", "d", "b"],
    ["a1", "a1", "b"],
]
HIER = {"a1": ["A"], "a2": ["A"]}
# Fig. 2c / Sec. V-A order: b < A < d < a1 < c < e < a2
PAPER_ORDER = ["b", "A", "d", "a1", "c", "e", "a2"]
PIEX = ".*(A)[(.^).*]*(b).*"


@pytest.fixture(scope="session")
def dex_dict() -> Dictionary:
    return Dictionary.build(DEX, HIER, order=PAPER_ORDER)


@pytest.fixture(scope="session")
def piex_fst(dex_dict):
    return compile_patex(PIEX, dex_dict)


@pytest.fixture(scope="session")
def dex_encoded(dex_dict):
    return [dex_dict.encode(s) for s in DEX]


def run_candidates(fst, T, d, sigma=None, max_candidates=None):
    """Reference Gπ(T) — or Gσπ(T) for ``sigma`` — by run enumeration,
    independent of the label paths that ``simulate.generate`` and D-CAND
    read: the Cartesian products of every accepting run's output sets,
    infrequent items dropped; the empty candidate is never included.
    Raises CandidateLimitExceeded once the set exceeds ``max_candidates``."""
    mask = d.frequent_mask(sigma)
    cands = set()
    for run in accepting_runs(fst, T, d):
        # A position whose output items are all infrequent (masked to 0:
        # dead, unlike ε's 1) kills the run; dropping infrequent items from
        # mixed sets drops exactly the candidates containing them (support
        # antimonotonicity).
        if not all(bits & mask for _, bits in run):
            continue
        seqs = [()]
        for out in run_output_sets(run, T, d):
            if out:
                seqs = [s + (w,) for s in seqs for w in out if mask >> w & 1]
        for cand in seqs:
            if cand:
                cands.add(cand)
                if max_candidates is not None and len(cands) > max_candidates:
                    raise CandidateLimitExceeded(f"more than {max_candidates} candidates")
    return cands


def pivot_items_bruteforce(fst, T, d, sigma):
    """Reference pivot items of T: enumerate Gσπ(T) and take maxima."""
    return {max(c) for c in run_candidates(fst, T, d, sigma)}
