"""Tests for candidate NFAs: tries, minimization, serialization, mining
(Sec. VI, Figs. 7-8)."""
from hypothesis import example, given, settings, strategies as st

from repro.core.dcand import map_sequence
from repro.hierarchy import EPSILON, item_bits
from repro.desq.grid import EPS_SET, pivot_merge
from repro.desq.nfa import (
    Nfa,
    Trie,
    build_pivot_nfas,
    deserialize,
    mine_nfas,
    minimize,
    serialize,
)
from repro.desq.simulate import accepting_runs, generate, run_output_sets


# The tuple reference for D-CAND's bitset map: labels as item tuples, the
# frozenset ⊕, a trie over tuples, and Revuz minimisation on its NFA.

def pivots_of_run(filtered):
    """K(r): fold the run's output sets with the frozenset ⊕ (Theorem 1)."""
    acc = EPS_SET
    for out in filtered:
        acc = pivot_merge(acc, frozenset(out))
    return {k for k in acc if k != EPSILON}


def pivot_runs(fst, T, d, sigma):
    """Per pivot k, in order of first appearance: the label sequences of the
    runs with k ∈ K(r) — σ-filtered, ε dropped, items > k cut off."""
    runs = {}
    for run in accepting_runs(fst, T, d):
        filtered = [tuple(w for w in out if d.is_frequent(w, sigma))
                    for out in run_output_sets(run, T, d) if out]
        if not all(filtered):
            continue  # an all-infrequent output set kills the run
        for k in sorted(pivots_of_run(filtered)):
            runs.setdefault(k, []).append([tuple(w for w in out if w <= k) for out in filtered])
    return runs


class TupleTrie:
    """Trie over sequences of output sets; edge labels are item tuples."""

    def __init__(self, runs=()):
        self.children = [{}]
        self.final = [False]
        for labels in runs:
            node = 0
            for lab in labels:
                nxt = self.children[node].get(lab)
                if nxt is None:
                    nxt = self.children[node][lab] = len(self.children)
                    self.children.append({})
                    self.final.append(False)
                node = nxt
            self.final[node] = True

    def nfa(self):
        return Nfa(tuple(tuple(sorted(c.items())) for c in self.children), tuple(self.final))


def reference_minimize(nfa):
    """Revuz on an NFA whose edges lead to higher states, with sorted,
    distinct labels per state; classes numbered in reverse discovery order."""
    cls = [0] * nfa.n_states
    class_of, reps = {}, []
    for state in range(nfa.n_states - 1, -1, -1):
        sig = (nfa.final[state], tuple((lab, cls[tgt]) for lab, tgt in nfa.children[state]))
        if sig not in class_of:
            class_of[sig] = len(reps)
            reps.append(state)
        cls[state] = class_of[sig]
    last = len(reps) - 1
    reps.reverse()
    children = tuple(
        tuple((lab, last - cls[tgt]) for lab, tgt in nfa.children[s]) for s in reps
    )
    return Nfa(children, tuple(nfa.final[s] for s in reps))


def reference_nfas(fst, T, d, sigma):
    return {k: reference_minimize(TupleTrie(runs).nfa())
            for k, runs in pivot_runs(fst, T, d, sigma).items()}


def bits_trie(runs):
    """:class:`Trie` of label sequences given as item collections."""
    trie = Trie()
    for labels in runs:
        trie.insert([item_bits(lab) for lab in labels], -1)
    return trie


def nfas_for(fst, T, d, sigma):
    """Per-pivot NFAs of one sequence as D-CAND's reducer receives them:
    :func:`map_sequence`'s payloads, deserialized."""
    return {k: deserialize(p) for k, p in map_sequence(fst, d, T, sigma)}


# Runs of a trie: each a list of output sets (the labels of its path).
RUNS = st.lists(
    st.lists(
        st.frozensets(st.integers(1, 5), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=6,
)


def tuple_runs(runs):
    return [[tuple(sorted(lab)) for lab in labels] for labels in runs]


def right_languages(nfa):
    """Per state, the label sequences that lead from it to a final state.

    Labels, not items: minimisation merges states with equal (label,
    target) edges, so two states whose item languages agree only through
    different labels (``{1,3}`` vs. ``{1}`` and ``{3}``) stay apart."""
    memo = {}

    def lang(q):
        if q not in memo:
            words = {()} if nfa.final[q] else set()
            for lab, tgt in nfa.children[q]:
                words |= {(lab,) + rest for rest in lang(tgt)}
            memo[q] = frozenset(words)
        return memo[q]

    return [lang(q) for q in range(nfa.n_states)]


class TestTrieAndMinimize:
    def test_fig7_trie_size(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 7b: the trie for ρc(T1) has 13 vertices and 12 edges."""
        c = dex_dict.fid_of["c"]
        trie = bits_trie(pivot_runs(piex_fst, dex_encoded[0], dex_dict, 1)[c])
        assert len(trie) == 13
        assert sum(map(len, trie.children)) == 12

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
            for k, runs in pivot_runs(piex_fst, T, dex_dict, 1).items():
                trie_nfa = TupleTrie(runs).nfa()
                mini = minimize(bits_trie(runs))
                assert mini.language() == trie_nfa.language()
                assert mini.n_states <= trie_nfa.n_states
                assert mini == reference_minimize(trie_nfa)

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

    @given(RUNS)
    @example([[frozenset({1}), frozenset({1, 3})], [frozenset({3}), frozenset({1})],
              [frozenset({3}), frozenset({3})]])
    @example([[frozenset({1, 3})], [frozenset({3})]])
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random_tries(self, runs):
        """Minimising a trie over bitsets gives the tuple reference's NFA,
        with edges in tuple order ({1, 3} before {3}, unlike 0b1010 > 0b1000)."""
        nfa = minimize(bits_trie(runs))
        trie_nfa = TupleTrie(tuple_runs(runs)).nfa()
        assert nfa == reference_minimize(trie_nfa)
        assert nfa.language() == trie_nfa.language()
        # Minimal: no two states accept the same label language.
        langs = right_languages(nfa)
        assert len(set(langs)) == len(langs)
        back = deserialize(serialize(nfa))
        assert back.language() == nfa.language()
        assert serialize(back) == serialize(nfa)
        assert all(list(edges) == sorted(edges) for edges in back.children)

    def test_golden_payloads(self, piex_fst, dex_dict, dex_encoded):
        """Fig. 7c's ρc(T1) and Fig. 8's ρa1(T5), int for int: the payload
        is what D-CAND shuffles, so its encoding must not drift."""
        c, a1 = dex_dict.fid_of["c"], dex_dict.fid_of["a1"]
        rho_c_t1 = (
            0, 1, 4, 0, 1, 3, 0, 1, 5, 4, 1, 1, 1, 1, 1, 5, 2, 1, 1, 4, 1, 5,
            1, 3, 2, 1, 1, 4, 3, 6, 1, 5, 3, 3, 5, 1, 5, 3,
        )
        rho_a1_t5 = (0, 1, 4, 4, 1, 1, 1, 1, 2, 2, 4, 2, 1, 1, 2)
        assert serialize(reference_nfas(piex_fst, dex_encoded[0], dex_dict, 1)[c]) == rho_c_t1
        assert serialize(reference_nfas(piex_fst, dex_encoded[4], dex_dict, 1)[a1]) == rho_a1_t5
        assert dict(map_sequence(piex_fst, dex_dict, dex_encoded[0], 1))[c] == rho_c_t1
        assert dict(map_sequence(piex_fst, dex_dict, dex_encoded[4], 1))[a1] == rho_a1_t5

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
        # An NFA state layout accepting 1-2 twice.
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

    @given(st.lists(st.tuples(RUNS, st.integers(1, 3)), min_size=1, max_size=4),
           st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_language_count(self, weighted_runs, sigma, pivot):
        """Random weighted NFAs against a brute-force count over their
        languages: weights summed, each NFA counted once, support ≥ σ and
        maximum item = pivot."""
        weighted = [(minimize(bits_trie(runs)), w) for runs, w in weighted_runs]
        counts = {}
        for nfa, w in weighted:
            for s in nfa.language():
                counts[s] = counts.get(s, 0) + w
        want = {s: f for s, f in counts.items() if f >= sigma and max(s) == pivot}
        assert mine_nfas(weighted, sigma, pivot) == want

    def test_long_chain(self):
        """A 5 000-state chain NFA is mined without hitting the interpreter's
        recursion limit."""
        nfas = build_pivot_nfas(iter([[(1,)] * 5000]), lambda f: {1}, lambda o: o)
        assert mine_nfas([(nfas[1], 2)], sigma=2, pivot=1) == {(1,) * 5000: 2}
