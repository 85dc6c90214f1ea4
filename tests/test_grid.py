"""Tests for the position-state grid and pivot search (Sec. V-A)."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import mine_sequential
from repro.hierarchy import EPS_BITS, EPSILON, Dictionary, bit_items, item_bits
from repro.patex import compile_patex
from repro.desq.grid import (
    EMPTY,
    EPS_SET,
    build_grid,
    merge_bits,
    pivot_items_bruteforce,
    pivot_merge,
    prefix_pivots,
    suffix_pivots,
)
from repro.desq.rewrite import pivot_representations
from repro.desq.simulate import generate
from tests.conftest import DEX

# ε (0), small fids and fids above 63, so that bitsets span several words;
# min_size=0 adds ∅ (dead).
ITEMS = st.one_of(st.integers(0, 8), st.integers(60, 130))
SETS = st.frozensets(ITEMS, max_size=4)


def fs(*xs):
    return frozenset(xs)


def bits_merge(u, q):
    """⊕ through the bitset kernel, converted back to a set."""
    return frozenset(bit_items(merge_bits(item_bits(u), item_bits(q))))


class TestPivotMerge:
    def test_paper_example_r4(self):
        """K(r4) = {b,c} ⊕ {A} ⊕ {d,a1} = {c,d,a1} with b<A<d<a1<c
        (encoded b=1, A=2, d=3, a1=4, c=5)."""
        merged = pivot_merge(pivot_merge(fs(1, 5), fs(2)), fs(3, 4))
        assert merged == fs(5, 3, 4)

    def test_length_one_run_all_items_pivot(self):
        assert pivot_merge(EPS_SET, fs(1, 5)) == fs(1, 5)

    def test_two_sets(self):
        """r4'' = {b,c}-{A}: pivots {A, c}."""
        assert pivot_merge(fs(1, 5), fs(2)) == fs(5, 2)

    def test_eps_identity(self):
        assert pivot_merge(fs(3, 4), EPS_SET) == fs(3, 4)
        assert pivot_merge(EPS_SET, EPS_SET) == EPS_SET
        assert merge_bits(item_bits(fs(3, 70)), EPS_BITS) == item_bits(fs(3, 70))
        assert merge_bits(EPS_BITS, EPS_BITS) == EPS_BITS

    def test_empty_annihilates(self):
        assert pivot_merge(fs(1, 2), EMPTY) == EMPTY
        assert pivot_merge(EMPTY, fs(1, 2)) == EMPTY
        assert merge_bits(item_bits(fs(1, 99)), 0) == 0
        assert merge_bits(0, EPS_BITS) == 0

    @given(st.lists(SETS, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_bruteforce(self, sets):
        """Theorem 1: folding ⊕ over output sets = pivots of the Cartesian
        product; the bitset fold agrees."""
        folded, folded_bits = sets[0], item_bits(sets[0])
        for s in sets[1:]:
            folded = pivot_merge(folded, s)
            folded_bits = merge_bits(folded_bits, item_bits(s))
        brute = {max(combo) for combo in itertools.product(*sets)}
        assert folded == frozenset(brute)
        assert frozenset(bit_items(folded_bits)) == folded

    @given(SETS, SETS, SETS)
    @settings(max_examples=200, deadline=None)
    def test_commutative_associative(self, a, b, c):
        assert pivot_merge(a, b) == pivot_merge(b, a)
        assert pivot_merge(pivot_merge(a, b), c) == pivot_merge(
            a, pivot_merge(b, c)
        )
        assert bits_merge(a, b) == bits_merge(b, a) == pivot_merge(a, b)
        assert bits_merge(bits_merge(a, b), c) == pivot_merge(pivot_merge(a, b), c)
        assert bits_merge(a, bits_merge(b, c)) == pivot_merge(a, pivot_merge(b, c))

    @given(SETS, SETS, SETS)
    @settings(max_examples=200, deadline=None)
    def test_distributes_over_union(self, a, b, c):
        assert pivot_merge(a | b, c) == pivot_merge(a, c) | pivot_merge(b, c)
        assert bits_merge(a | b, c) == bits_merge(a, c) | bits_merge(b, c)
        assert bits_merge(a | b, c) == pivot_merge(a | b, c)


class TestGrid:
    def test_t3_has_no_accepting_runs(self, piex_fst, dex_dict, dex_encoded):
        grid = build_grid(piex_fst, dex_encoded[2], dex_dict)
        B = suffix_pivots(grid, piex_fst, dex_dict, sigma=None)
        assert B[0][piex_fst.initial] == 0

    def test_t5_grid_structure(self, piex_fst, dex_dict, dex_encoded):
        T5 = dex_encoded[4]
        grid = build_grid(piex_fst, T5, dex_dict)
        B = suffix_pivots(grid, piex_fst, dex_dict, sigma=None)
        assert B[0][piex_fst.initial]
        # B[|T|] = B[3]: only (3, q2) accepts, with the empty suffix {ε}.
        assert B[len(T5)] == [0, 0, EPS_BITS]

    def test_fig5_prefix_pivots_t2(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 5b / Sec. V-A: K(4, q1) = {a1} ∪ {e} = {a1, e}, unfiltered."""
        T2 = dex_encoded[1]
        grid = build_grid(piex_fst, T2, dex_dict)
        A = prefix_pivots(grid, piex_fst, dex_dict, sigma=None)
        K = lambda i, q: frozenset(bit_items(A[i][q]))  # noqa: E731
        a1, e = 4, 6
        assert K(4, 1) == fs(a1, e)
        assert K(3, 1) == fs(a1)
        # q0 coordinates carry {ε} only.
        assert K(2, 0) == EPS_SET
        # Final coordinate: K(7, q2) = {a1, e} before σ-filtering.
        assert K(7, 2) == fs(a1, e)

    def test_fig5_sigma_filter_excludes_e(self, piex_fst, dex_dict, dex_encoded):
        """With σ=2, e (f=1) is never added: K(T2) = {a1}."""
        assert set(pivot_representations(piex_fst, dex_encoded[1], dex_dict, 2)) == {4}


class TestDeadIsNotEpsilon:
    """An edge whose output items are all infrequent is dead, not ε: it kills
    every run through it and is never followed as an ε-output edge."""

    DB = [["a", "x", "b"], ["a", "y", "b"]]

    def test_mine_sequential(self):
        assert mine_sequential(self.DB, {}, "(a) (.) (b)", 2) == {}
        assert mine_sequential(self.DB, {}, "(a) . (b)", 2) == {("a", "b"): 2}

    def test_pivot_search_and_rewrite(self):
        d = Dictionary.build(self.DB, {})
        fst = compile_patex("(a) (.) (b)", d)
        for seq in self.DB:
            T = d.encode(seq)
            assert not suffix_pivots(build_grid(fst, T, d), fst, d, 2)[0][fst.initial]
            assert pivot_representations(fst, T, d, 2) == {}
            assert generate(fst, T, d, sigma=2) == set()


class TestPivotItems:
    """K(T) for the whole running example at σ=2 (Fig. 3 partitions)."""

    @pytest.mark.parametrize(
        "seq_idx, expected_names",
        [
            (0, {"a1", "c"}),  # T1 → Pa1, Pc
            (1, {"a1"}),  # T2 → Pa1 (e infrequent)
            (2, set()),  # T3 matches nothing
            (3, set()),  # T4: all candidates contain infrequent a2
            (4, {"a1"}),  # T5 → Pa1
        ],
    )
    def test_fig3(self, piex_fst, dex_dict, dex_encoded, seq_idx, expected_names):
        K = set(pivot_representations(piex_fst, dex_encoded[seq_idx], dex_dict, 2))
        assert {dex_dict.name(k) for k in K} == expected_names

    @pytest.mark.parametrize("seq_idx", range(5))
    @pytest.mark.parametrize("sigma", [1, 2, 3, 5])
    def test_grid_equals_bruteforce(
        self, piex_fst, dex_dict, dex_encoded, seq_idx, sigma
    ):
        assert set(pivot_representations(
            piex_fst, dex_encoded[seq_idx], dex_dict, sigma
        )) == pivot_items_bruteforce(piex_fst, dex_encoded[seq_idx], dex_dict, sigma)


class TestGridVsBruteforceRandom:
    """Randomized agreement between grid pivots and brute-force pivots."""

    @pytest.mark.parametrize(
        "expr",
        [
            ".*(A)[(.^).*]*(b).*",
            "(.^)[.{0,1}(.^)]{1,4}",
            ".*(.)[.*(.)]{,2}.*",
            ".*[(A^)|(d)]+.*",
            "[.|(.^)]*",
        ],
    )
    @pytest.mark.parametrize("sigma", [1, 2, 4])
    def test_random_sequences(self, dex_dict, expr, sigma):
        import random

        rng = random.Random(42)
        fst = compile_patex(expr, dex_dict)
        vocab = [dex_dict.fid_of[w] for w in ("b", "A", "d", "a1", "c", "e", "a2")]
        for _ in range(25):
            T = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 7)))
            assert set(pivot_representations(fst, T, dex_dict, sigma)) == pivot_items_bruteforce(
                fst, T, dex_dict, sigma
            ), (expr, sigma, T)
