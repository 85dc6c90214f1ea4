"""Tests for sequence rewriting (Sec. V-B): trimming must preserve the
per-pivot candidate sets, and the two-pass map must equal a per-run
brute-force definition of relevance."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hierarchy import EPS_BITS, Dictionary, bit_items
from repro.patex import compile_patex
from repro.desq.grid import merge_bits
from repro.desq.rewrite import pivot_representations
from repro.desq.simulate import accepting_runs, generate
from tests.test_generated import DATABASES, PATTERNS, hierarchies


def pivot_share(fst, T, d, sigma, k):
    """σ-filtered candidates of T with pivot exactly k."""
    return {c for c in generate(fst, T, d, sigma=sigma) if max(c) == k}


class TestRunningExample:
    def test_rho_a1_t2_trims_leading_es(self, piex_fst, dex_dict, dex_encoded):
        """Sec. V-B: ρa1(T2) = a1ea1eb — the two leading e's are irrelevant."""
        reps = pivot_representations(piex_fst, dex_encoded[1], dex_dict, 2)
        a1 = dex_dict.fid_of["a1"]
        assert set(reps) == {a1}
        rho, last_piv = reps[a1]
        assert dex_dict.decode(rho) == ("a1", "e", "a1", "e", "b")
        # Last position that can output a1 within ρ: index 2 (the second a1).
        assert last_piv == 2

    def test_keys_equal_pivot_items(self, piex_fst, dex_dict, dex_encoded):
        from repro.desq.grid import pivot_items_bruteforce

        for T in dex_encoded:
            reps = pivot_representations(piex_fst, T, dex_dict, 2)
            assert set(reps) == pivot_items_bruteforce(piex_fst, T, dex_dict, 2)

    def test_t1_full_for_both_pivots(self, piex_fst, dex_dict, dex_encoded):
        """T1 = a1cdcb: position 1 (a1) and 5 (b) are relevant for both
        pivots, so no trimming is possible."""
        reps = pivot_representations(piex_fst, dex_encoded[0], dex_dict, 2)
        for k, (rho, _) in reps.items():
            assert rho == dex_encoded[0]


class TestTrimmingPreservesPivotCandidates:
    """The correctness contract: Gσ(ρk(T)) and Gσ(T) agree on pivot-k
    candidates, for every pivot k."""

    @pytest.mark.parametrize(
        "expr",
        [
            ".*(A)[(.^).*]*(b).*",
            "(.^)[.{0,1}(.^)]{1,4}",
            ".*(.)[.{0,2}(.)]{1,3}.*",
            ".*[(A^)|(d)]+.*",
            ".*(A) (b) .*",
        ],
    )
    @pytest.mark.parametrize("sigma", [1, 2])
    def test_random(self, dex_dict, expr, sigma):
        rng = random.Random(7)
        fst = compile_patex(expr, dex_dict)
        vocab = [dex_dict.fid_of[w] for w in ("b", "A", "d", "a1", "c", "e", "a2")]
        for _ in range(40):
            T = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            reps = pivot_representations(fst, T, dex_dict, sigma)
            full = generate(fst, T, dex_dict, sigma=sigma)
            assert set(reps) == {max(c) for c in full}
            for k, (rho, _) in reps.items():
                assert pivot_share(fst, rho, dex_dict, sigma, k) == {
                    c for c in full if max(c) == k
                }, (expr, sigma, T, k)

    def test_no_candidates_empty_reps(self, piex_fst, dex_dict, dex_encoded):
        assert pivot_representations(piex_fst, dex_encoded[2], dex_dict, 2) == {}
        assert pivot_representations(piex_fst, dex_encoded[3], dex_dict, 2) == {}


class TestLastPivotPosition:
    def test_last_pivot_within_bounds(self, piex_fst, dex_dict, dex_encoded):
        for T in dex_encoded:
            for k, (rho, lp) in pivot_representations(
                piex_fst, T, dex_dict, 2
            ).items():
                assert 0 <= lp < len(rho)

    def test_last_pivot_points_to_producer(self, piex_fst, dex_dict, dex_encoded):
        """Dropping everything after last_pivot_pos must kill all pivot-k
        candidates that contain k at a later output position — sanity: the
        item at last_pivot_pos can actually output k (k ∈ anc-outputs)."""
        for T in dex_encoded:
            for k, (rho, lp) in pivot_representations(
                piex_fst, T, dex_dict, 2
            ).items():
                t = rho[lp]
                assert k in dex_dict.ancestors(t)


def reference_representations(fst, T, d, sigma):
    """``pivot_representations`` by enumerating accepting runs. Per σ-live
    run r, K(r) folds ``merge_bits`` over the σ-masked outputs. Each step of
    r is relevant for every k ∈ K(r) if it changes the state, else for the
    k ≥ min(out items); it produces k if k ∈ out. Each ρk(T) is trimmed to
    k's relevant positions. Pivots are ordered by their first relevant
    position, then by item."""
    mask = d.frequent_mask(sigma)
    relevant, producing = {}, {}
    for run in accepting_runs(fst, T, d):
        outs = [bits & mask for _, _, bits in run]
        if not all(outs):
            continue  # σ-dead: some position outputs only infrequent items
        K = EPS_BITS
        for o in outs:
            K = merge_bits(K, o)
        q = fst.initial
        for i, ((dst, _, _), o) in enumerate(zip(run, outs), 1):
            items = bit_items(o & -2)
            for k in bit_items(K & -2):
                if dst != q or (items and min(items) <= k):
                    relevant.setdefault(k, set()).add(i)
                if o >> k & 1:
                    producing.setdefault(k, set()).add(i)
            q = dst
    firsts = sorted((min(pos), k) for k, pos in relevant.items())
    return [
        (k, (tuple(T[first - 1 : max(relevant[k])]), max(producing[k]) - first))
        for first, k in firsts
    ]


@given(expr=PATTERNS, db=DATABASES, hierarchy=hierarchies(), sigma=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_two_passes_equal_run_enumeration(expr, db, hierarchy, sigma):
    """The backward/forward passes give, per sequence, exactly the per-run
    reference's ``[(k, (ρk(T), last_pivot_pos))]``, order included."""
    d = Dictionary.build(db, hierarchy)
    fst = compile_patex(expr, d)
    for T in map(d.encode, db):
        got = list(pivot_representations(fst, T, d, sigma).items())
        assert got == reference_representations(fst, T, d, sigma), (expr, T)
