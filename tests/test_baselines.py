"""Baseline oracles: gap miner vs the general FST stack; MLlib PrefixSpan
vs the T1 pattern expression."""
import random

import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.gapmine import gap_candidates, mine_gap
from repro.baselines.mllib import prefixspan
from repro.core import mine, mine_sequential
from repro.desq.dfs import mine as dfs_mine
from repro.desq.simulate import generate
from repro.experiments.constraints import t2_expr, t3_expr
from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from tests.test_generated import DATABASES, hierarchies


@pytest.fixture(scope="module")
def small_dict():
    hier = {"a1": ["A"], "a2": ["A"], "b1": ["B"]}
    rng = random.Random(3)
    vocab = ["a1", "a2", "b1", "c", "d", "e"]
    seqs = [
        [rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(40)
    ]
    return seqs, hier, Dictionary.build(seqs, hier)


class TestGapCandidates:
    @pytest.mark.parametrize("gamma,lam", [(0, 3), (1, 4), (2, 5)])
    @pytest.mark.parametrize("generalize", [False, True])
    def test_candidates_match_fst(self, small_dict, gamma, lam, generalize):
        """gap_candidates == Gπ(T) of the compiled T2/T3 expression."""
        seqs, hier, d = small_dict
        expr = t3_expr(gamma, lam) if generalize else t2_expr(gamma, lam)
        fst = compile_patex(expr, d)
        for s in seqs[:15]:
            T = d.encode(s)
            want = generate(fst, T, d)
            got = gap_candidates(T, d, gamma, lam, generalize=generalize)
            assert got == want, (s, gamma, lam, generalize)

    def test_gap_zero_is_consecutive(self, small_dict):
        _, _, d = small_dict
        T = d.encode(["c", "d", "e"])
        cands = gap_candidates(T, d, 0, 3)
        assert d.decode(min(cands)) is not None
        names = {d.decode(c) for c in cands}
        assert ("c", "d") in names and ("d", "e") in names and ("c", "d", "e") in names
        assert ("c", "e") not in names  # would need a gap

    def test_length_bound(self, small_dict):
        _, _, d = small_dict
        T = d.encode(["c", "d", "e", "c", "d"])
        cands = gap_candidates(T, d, 4, 3)
        assert all(2 <= len(c) <= 3 for c in cands)


class TestMineGapVsGeneralStack:
    @pytest.mark.parametrize("sigma,gamma,lam,generalize", [
        (2, 0, 3, False),
        (2, 1, 4, False),
        (3, 1, 4, True),
        (2, 2, 3, True),
    ])
    def test_frequent_sets_agree(self, small_dict, sigma, gamma, lam, generalize):
        seqs, hier, d = small_dict
        expr = t3_expr(gamma, lam) if generalize else t2_expr(gamma, lam)
        fst = compile_patex(expr, d)
        enc = [d.encode(s) for s in seqs]
        want = mine_gap(enc, d, sigma, gamma, lam, generalize=generalize)
        got = dfs_mine([((T, None), 1) for T in enc], fst, d, sigma)
        assert got == want


@given(db=DATABASES, hierarchy=hierarchies(), sigma=st.integers(1, 3),
       gamma=st.integers(0, 2), lam=st.integers(2, 4), generalize=st.booleans())
@settings(max_examples=200, deadline=None)
def test_mine_gap_equals_generated_t2_t3(db, hierarchy, sigma, gamma, lam, generalize):
    """mine_gap == DESQ-DFS on T2(σ, γ, λ) / T3(σ, γ, λ), over random
    hierarchy DAGs and small databases."""
    d = Dictionary.build(db, hierarchy)
    expr = t3_expr(gamma, lam) if generalize else t2_expr(gamma, lam)
    got = mine_gap([d.encode(s) for s in db], d, sigma, gamma, lam, generalize=generalize)
    want = mine_sequential(db, hierarchy, expr, sigma, dictionary=d)
    assert {d.decode(c): f for c, f in got.items()} == want


class TestPrefixSpan:
    def test_mllib_matches_t1_expression(self, spark, small_dict):
        """MLlib PrefixSpan == D-SEQ under T1(σ, λ) without hierarchy."""
        seqs, _, _ = small_dict
        lam, sigma = 3, 4
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": range(len(seqs)), "items": seqs})
        )
        ps = prefixspan(spark, df, sigma, lam)
        expr = f".*(.)[.*(.)]{{,{lam - 1}}}.*"
        out = mine(spark, df, {}, expr, sigma, algorithm="dseq")
        got = {tuple(r["pattern"].split(" ")): r["support"] for r in out.collect()}
        assert got == ps
