"""Shared fixtures: the paper's running example (Fig. 2)."""
import pytest

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.desq.simulate import generate

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


def pivot_items_bruteforce(fst, T, d, sigma):
    """Reference pivot items of T: enumerate Gσπ(T) and take maxima."""
    return {max(c) for c in generate(fst, T, d, sigma=sigma)}
