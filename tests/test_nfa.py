"""Tests for candidate NFAs: tries, minimization, serialization, mining
(Sec. VI, Figs. 7-8)."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy import EPSILON
from repro.patex import compile_patex
from repro.desq.grid import EPS_SET, pivot_merge
from repro.desq.nfa import (
    Nfa,
    Trie,
    build_pivot_nfas,
    deserialize,
    mine_nfas,
    minimize,
    serialize,
    trie_to_nfa,
)
from repro.desq.simulate import accepting_runs, generate, run_output_sets
from tests.conftest import PIEX


def nfas_for(fst, T, d, sigma):
    """Build per-pivot NFAs for one sequence (the D-CAND map step)."""

    def runs():
        for run in accepting_runs(fst, T, d):
            yield run_output_sets(run, T, d)

    def pivots_of_run(filtered):
        acc = EPS_SET
        for out in filtered:
            acc = pivot_merge(acc, frozenset(out))
        return {k for k in acc if k != EPSILON}

    def sigma_filter(out):
        return tuple(w for w in out if d.is_frequent(w, sigma))

    return build_pivot_nfas(runs(), pivots_of_run, sigma_filter)


class TestTrieAndMinimize:
    def test_fig7_trie_size(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 7b: the trie for ρc(T1) has 13 vertices and 12 edges."""
        c = dex_dict.fid_of["c"]

        def runs():
            for run in accepting_runs(piex_fst, dex_encoded[0], dex_dict):
                yield run_output_sets(run, dex_encoded[0], dex_dict)

        def pivots_of_run(filtered):
            acc = EPS_SET
            for out in filtered:
                acc = pivot_merge(acc, frozenset(out))
            return {k for k in acc if k != EPSILON}

        nfas = build_pivot_nfas(
            runs(), pivots_of_run, lambda o: tuple(o), minimize_nfas=False
        )
        trie_nfa = nfas[c]
        assert trie_nfa.n_states == 13
        assert trie_nfa.n_edges == 12

    def test_fig7_minimized_size(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 7c: minimization yields 7 vertices and 10 edges."""
        c = dex_dict.fid_of["c"]
        nfas = nfas_for(piex_fst, dex_encoded[0], dex_dict, sigma=1)
        assert nfas[c].n_states == 7
        assert nfas[c].n_edges == 10

    def test_fig8_nfa_for_rho_a1_t5(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 8: NFA for ρa1(T5) has 4 states and accepts exactly
        {a1a1b, a1Ab, a1b}."""
        a1 = dex_dict.fid_of["a1"]
        nfas = nfas_for(piex_fst, dex_encoded[4], dex_dict, sigma=1)
        nfa = nfas[a1]
        assert nfa.n_states == 4
        assert {dex_dict.decode(s) for s in nfa.language()} == {
            ("a1", "a1", "b"),
            ("a1", "A", "b"),
            ("a1", "b"),
        }

    def test_minimization_preserves_language(self, piex_fst, dex_dict, dex_encoded):
        for T in dex_encoded:
            def runs():
                for run in accepting_runs(piex_fst, T, dex_dict):
                    yield run_output_sets(run, T, dex_dict)

            def pivots_of_run(filtered):
                acc = EPS_SET
                for out in filtered:
                    acc = pivot_merge(acc, frozenset(out))
                return {k for k in acc if k != EPSILON}

            raw = build_pivot_nfas(
                runs(), pivots_of_run, lambda o: tuple(o), minimize_nfas=False
            )
            for k, nfa in raw.items():
                mini = minimize(nfa)
                assert mini.language() == nfa.language()
                assert mini.n_states <= nfa.n_states

    def test_pivot_nfa_language_is_pivot_share(
        self, piex_fst, dex_dict, dex_encoded
    ):
        """NFA_k(T) accepts exactly the σ-filtered candidates of T whose
        items are ≤ k — and its pivot-k share matches Gσ's."""
        sigma = 2
        for T in dex_encoded:
            nfas = nfas_for(piex_fst, T, dex_dict, sigma)
            full = generate(piex_fst, T, dex_dict, sigma=sigma)
            for k, nfa in nfas.items():
                got_pivot_share = {s for s in nfa.language() if max(s) == k}
                want = {c for c in full if max(c) == k}
                assert got_pivot_share == want


class TestSerialization:
    def test_roundtrip_running_example(self, piex_fst, dex_dict, dex_encoded):
        for T in dex_encoded:
            for k, nfa in nfas_for(piex_fst, T, dex_dict, 1).items():
                data = serialize(nfa)
                back = deserialize(data)
                assert back.language() == nfa.language()

    def test_roundtrip_preserves_statecount(self, piex_fst, dex_dict, dex_encoded):
        nfas = nfas_for(piex_fst, dex_encoded[0], dex_dict, 1)
        for nfa in nfas.values():
            back = deserialize(serialize(nfa))
            assert back.n_states == nfa.n_states
            assert back.n_edges == nfa.n_edges

    def test_serialized_is_hashable_and_deterministic(
        self, piex_fst, dex_dict, dex_encoded
    ):
        a = serialize(nfas_for(piex_fst, dex_encoded[4], dex_dict, 1)[4])
        b = serialize(nfas_for(piex_fst, dex_encoded[4], dex_dict, 1)[4])
        assert a == b
        hash(a)

    def test_identical_candidate_sets_serialize_identically(
        self, piex_fst, dex_dict, dex_encoded
    ):
        """T2 (σ=2) and T5 generate the same pivot-a1 candidates; after
        trimming/minimization their NFAs — and serializations — coincide.
        This is what makes D-CAND's combiner aggregation effective."""
        a1 = dex_dict.fid_of["a1"]
        n2 = nfas_for(piex_fst, dex_encoded[1], dex_dict, 2)[a1]
        n5 = nfas_for(piex_fst, dex_encoded[4], dex_dict, 2)[a1]
        assert n2.language() == n5.language()
        assert serialize(n2) == serialize(n5)

    @given(
        st.lists(
            st.lists(
                st.frozensets(st.integers(1, 5), min_size=1, max_size=3),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random_tries(self, runs):
        trie = Trie()
        for labels in runs:
            trie.insert([tuple(sorted(l)) for l in labels])
        nfa = minimize(trie_to_nfa(trie))
        back = deserialize(serialize(nfa))
        assert back.language() == nfa.language()


    def test_golden_payloads(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 7c's ρc(T1) and Fig. 8's ρa1(T5), int for int: the payload
        is what D-CAND shuffles, so its encoding must not drift."""
        c, a1 = dex_dict.fid_of["c"], dex_dict.fid_of["a1"]
        assert serialize(nfas_for(piex_fst, dex_encoded[0], dex_dict, 1)[c]) == (
            0, 1, 4, 0, 1, 3, 0, 1, 5, 4, 1, 1, 1, 1, 1, 5, 2, 1, 1, 4, 1, 5,
            1, 3, 2, 1, 1, 4, 3, 6, 1, 5, 3, 3, 5, 1, 5, 3,
        )
        assert serialize(nfas_for(piex_fst, dex_encoded[4], dex_dict, 1)[a1]) == (
            0, 1, 4, 4, 1, 1, 1, 1, 2, 2, 4, 2, 1, 1, 2,
        )

    def test_long_chain_roundtrip(self):
        """A 6000-state chain (Table II's sequences reach 10⁴+ items)
        serializes, deserializes and enumerates without recursion."""
        n = 6000
        labels = [(i % 7 + 1,) for i in range(n)]
        nfa = Nfa(
            tuple(((lab, i + 1),) for i, lab in enumerate(labels)) + ((),),
            (False,) * n + (True,),
        )
        data = serialize(nfa)
        assert len(data) == 3 * n  # flags, len(label), item per edge
        assert deserialize(data) == nfa
        assert nfa.language() == {tuple(lab[0] for lab in labels)}


class TestNfaMining:
    def test_counts_running_example_pa1(self, piex_fst, dex_dict, dex_encoded):
        """Partition Pa1 via NFAs: same result as the paper (σ=2)."""
        a1 = dex_dict.fid_of["a1"]
        weighted = {}
        for T in dex_encoded:
            nfas = nfas_for(piex_fst, T, dex_dict, 2)
            if a1 in nfas:
                key = serialize(nfas[a1])
                weighted[key] = weighted.get(key, 0) + 1
        inputs = [(deserialize(k), w) for k, w in weighted.items()]
        res = mine_nfas(inputs, sigma=2, pivot=a1)
        named = {dex_dict.decode(c): f for c, f in res.items()}
        assert named == {
            ("a1", "a1", "b"): 2,
            ("a1", "A", "b"): 2,
            ("a1", "b"): 3,
        }
        # Aggregation: T2 and T5 shipped identical NFAs.
        assert len(inputs) == 2

    def test_duplicate_paths_count_once(self):
        """An NFA accepting the same sequence via two paths counts it once."""
        trie = Trie()
        trie.insert([(1,), (2,)])
        nfa = trie_to_nfa(trie)
        # Craft a second NFA state layout accepting 1-2 twice.
        dup = Nfa(
            children=(
                (((1,), 1), ((1,), 2)),
                (((2,), 3),),
                (((2,), 3),),
                (),
            ),
            final=(False, False, False, True),
        )
        res = mine_nfas([(dup, 1)], sigma=1, pivot=2)
        assert res == {(1, 2): 1}

    def test_subsigma_filtered(self, piex_fst, dex_dict, dex_encoded):
        a1 = dex_dict.fid_of["a1"]
        nfas = nfas_for(piex_fst, dex_encoded[4], dex_dict, 2)
        res = mine_nfas([(nfas[a1], 1)], sigma=2, pivot=a1)
        assert res == {}

    def test_nonpivot_sequences_not_output(self, piex_fst, dex_dict, dex_encoded):
        """At Pc the NFA contains a1b-style candidates (items ≤ c) — they
        must not be output there."""
        c = dex_dict.fid_of["c"]
        nfas = nfas_for(piex_fst, dex_encoded[0], dex_dict, 1)
        res = mine_nfas([(nfas[c], 1)], sigma=1, pivot=c)
        for s in res:
            assert max(s) == c

    def test_long_chain(self):
        """A 5 000-state chain NFA is mined without hitting the interpreter's
        recursion limit."""
        nfas = build_pivot_nfas(iter([[(1,)] * 5000]), lambda f: {1}, lambda o: o)
        assert mine_nfas([(nfas[1], 2)], sigma=2, pivot=1) == {(1,) * 5000: 2}
