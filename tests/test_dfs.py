"""Tests for the DESQ-DFS pattern-growth miner (Sec. V-C)."""
import random

import pytest

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.desq.dfs import mine
from repro.desq.rewrite import pivot_representations
from tests.conftest import DEX, PIEX, run_candidates


def wrap(seqs, weights=None):
    """Inputs without early-stopping metadata."""
    weights = weights or [1] * len(seqs)
    return [((tuple(s), None), w) for s, w in zip(seqs, weights)]


def brute_force_mine(fst, seqs, d, sigma, pivot=None):
    """Reference: enumerate Gσ per sequence, count distinct per sequence."""
    counts = {}
    for T in seqs:
        for c in run_candidates(fst, T, d, sigma):
            counts[c] = counts.get(c, 0) + 1
    out = {
        c: f
        for c, f in counts.items()
        if f >= sigma and (pivot is None or max(c) == pivot)
    }
    return out


class TestSequentialMining:
    def test_running_example_full_result(self, piex_fst, dex_dict, dex_encoded):
        """Problem statement (Sec. II): frequent subsequences for πex, σ=2
        are a1a1b (2), a1Ab (2), a1b (3)."""
        res = mine(wrap(dex_encoded), piex_fst, dex_dict, 2)
        named = {dex_dict.decode(c): f for c, f in res.items()}
        assert named == {
            ("a1", "a1", "b"): 2,
            ("a1", "A", "b"): 2,
            ("a1", "b"): 3,
        }

    def test_sigma1_matches_bruteforce(self, piex_fst, dex_dict, dex_encoded):
        res = mine(wrap(dex_encoded), piex_fst, dex_dict, 1)
        assert res == brute_force_mine(piex_fst, dex_encoded, dex_dict, 1)

    def test_high_sigma_empty(self, piex_fst, dex_dict, dex_encoded):
        assert mine(wrap(dex_encoded), piex_fst, dex_dict, 4) == {}

    def test_weights_aggregate(self, piex_fst, dex_dict, dex_encoded):
        """T5 with weight 3 == three copies of T5."""
        res = mine(wrap([dex_encoded[4]], [3]), piex_fst, dex_dict, 3)
        named = {dex_dict.decode(c): f for c, f in res.items()}
        assert named == {
            ("a1", "a1", "b"): 3,
            ("a1", "A", "b"): 3,
            ("a1", "b"): 3,
        }

    def test_zero_weight_ignored(self, piex_fst, dex_dict, dex_encoded):
        res = mine(wrap([dex_encoded[4]], [0]), piex_fst, dex_dict, 1)
        assert res == {}


class TestPivotRestrictedMining:
    def test_partition_pa1(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 6: partition Pa1 receives T1, T2, T5 and outputs the three
        pivot-a1 sequences."""
        a1 = dex_dict.fid_of["a1"]
        part = [dex_encoded[0], dex_encoded[1], dex_encoded[4]]
        res = mine(wrap(part), piex_fst, dex_dict, 2, pivot=a1)
        named = {dex_dict.decode(c): f for c, f in res.items()}
        assert named == {
            ("a1", "a1", "b"): 2,
            ("a1", "A", "b"): 2,
            ("a1", "b"): 3,
        }

    def test_partition_pc_outputs_nothing(self, piex_fst, dex_dict, dex_encoded):
        """Pc receives T1, T3; a1b is frequent there but has pivot a1 < c,
        so Pc outputs nothing (Sec. V-C early stopping discussion)."""
        c = dex_dict.fid_of["c"]
        part = [dex_encoded[0], dex_encoded[2]]
        res = mine(wrap(part), piex_fst, dex_dict, 2, pivot=c)
        assert res == {}

    @pytest.mark.parametrize("early_stop", [True, False])
    def test_union_over_pivots_equals_full(
        self, piex_fst, dex_dict, dex_encoded, early_stop
    ):
        """Mining each partition (with rewrites + early-stop metadata) and
        unioning reproduces the sequential result — for several σ."""
        for sigma in (1, 2, 3):
            full = mine(wrap(dex_encoded), piex_fst, dex_dict, sigma)
            parts = {}
            for T in dex_encoded:
                for k, (rho, lp) in pivot_representations(
                    piex_fst, T, dex_dict, sigma
                ).items():
                    parts.setdefault(k, []).append(((rho, lp), 1))
            combined = {}
            for k, inputs in parts.items():
                combined.update(
                    mine(
                        inputs,
                        piex_fst,
                        dex_dict,
                        sigma,
                        pivot=k,
                        early_stop=early_stop,
                    )
                )
            assert combined == full, sigma


class TestRandomizedAgreement:
    @pytest.mark.parametrize(
        "expr",
        [
            PIEX,
            "(.^)[.{0,1}(.^)]{1,3}",
            ".*(.)[.{0,2}(.)]{1,2}.*",
            ".*[(A^)|(d)]+.*",
        ],
    )
    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_mine_equals_bruteforce(self, dex_dict, expr, sigma):
        rng = random.Random(13)
        fst = compile_patex(expr, dex_dict)
        vocab = [dex_dict.fid_of[w] for w in ("b", "A", "d", "a1", "c", "e", "a2")]
        db = [
            tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7)))
            for _ in range(30)
        ]
        assert mine(wrap(db), fst, dex_dict, sigma) == brute_force_mine(
            fst, db, dex_dict, sigma
        )

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_partitioned_equals_bruteforce(self, dex_dict, sigma):
        """Full D-SEQ-style pipeline (rewrite + pivot mining + early stop)
        against brute force on random databases."""
        rng = random.Random(99)
        fst = compile_patex(PIEX, dex_dict)
        vocab = [dex_dict.fid_of[w] for w in ("b", "A", "d", "a1", "c", "e", "a2")]
        db = [
            tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            for _ in range(40)
        ]
        parts = {}
        for T in db:
            for k, rep in pivot_representations(fst, T, dex_dict, sigma).items():
                parts.setdefault(k, []).append((rep, 1))
        combined = {}
        for k, inputs in parts.items():
            combined.update(mine(inputs, fst, dex_dict, sigma, pivot=k))
        assert combined == brute_force_mine(fst, db, dex_dict, sigma)


def test_row_memo_is_keyed_by_sigma(dex_dict, dex_encoded):
    """One compiled FST mined at σ = 3, 1, 2 in turn, with its pivot
    partitions in between, gives a freshly compiled FST's results: the
    σ-live rows memoised at one σ are never reused at another."""
    fst = compile_patex(PIEX, dex_dict)
    for sigma in (3, 1, 2):
        assert mine(wrap(dex_encoded), fst, dex_dict, sigma) == mine(
            wrap(dex_encoded), compile_patex(PIEX, dex_dict), dex_dict, sigma
        ), sigma
        parts = {}
        for T in dex_encoded:
            for k, rep in pivot_representations(fst, T, dex_dict, sigma).items():
                parts.setdefault(k, []).append((rep, 1))
        for k, inputs in parts.items():
            assert mine(inputs, fst, dex_dict, sigma, pivot=k) == mine(
                inputs, compile_patex(PIEX, dex_dict), dex_dict, sigma, pivot=k
            ), (sigma, k)


def test_long_output_pattern():
    """Patterns thousands of items long (Table II: max length 21k-44k) are
    mined without hitting the interpreter's recursion limit."""
    seqs = [["a"] * 5000] * 2
    d = Dictionary.build(seqs)
    res = mine(wrap([d.encode(s) for s in seqs]), compile_patex("(a)+", d), d, 2)
    assert res == {(d.fid_of["a"],) * 5000: 2}
