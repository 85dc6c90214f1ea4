"""Tests for the synthetic dataset substitutes (DESIGN.md §4)."""
import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    amzn_f_lite_raw,
    amzn_lite_raw,
    cw_lite_raw,
    nyt_hierarchy,
    nyt_lite_raw,
    zipf_sequences_raw,
)
from repro.hierarchy import Dictionary, ancestor_closure


class TestDeterminism:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_same_seed_same_data(self, name):
        a, ha = DATASETS[name](100, 7)
        b, hb = DATASETS[name](100, 7)
        assert a == b
        assert ha == hb

    def test_different_seed_differs(self):
        a, _ = nyt_lite_raw(100, 1)
        b, _ = nyt_lite_raw(100, 2)
        assert a != b


class TestNytLite:
    def test_hierarchy_shape(self):
        """NYT shape: word → lemma → POS and entity → type → ENTITY chains;
        max |anc| = 3 (Tab. II: max ancestors 3, mean 2.8)."""
        h = nyt_hierarchy()
        closure = ancestor_closure(h)
        assert closure["lives"] == frozenset({"lives", "live", "VERB"})
        assert closure["per_0"] == frozenset({"per_0", "PER", "ENTITY"})
        assert closure["in"] == frozenset({"in", "PREP"})
        assert max(len(a) for a in closure.values()) == 3

    def test_sentences_contain_planted_relations(self):
        seqs, _ = nyt_lite_raw(400, 17)
        joined = [" ".join(s) for s in seqs]
        assert any("lives in loc_" in s for s in joined)
        assert any("graduated from org_" in s for s in joined)
        assert any("is survived by per_" in s for s in joined)

    def test_mean_length_nyt_like(self):
        seqs, _ = nyt_lite_raw(400, 17)
        mean = np.mean([len(s) for s in seqs])
        assert 10 <= mean <= 30  # paper: 22.8

    def test_all_items_in_hierarchy_closure(self):
        seqs, h = nyt_lite_raw(200, 17)
        closure = ancestor_closure(h)
        for s in seqs:
            for t in s:
                assert t in closure


class TestAmznLite:
    def test_hierarchy_is_dag_with_multi_parents(self):
        _, h = amzn_lite_raw(50, 23)
        multi = [w for w, ps in h.items() if len(ps) > 1]
        assert multi, "AMZN DAG must contain multi-parent products"

    def test_forest_variant_single_parent(self):
        _, h = amzn_f_lite_raw(50, 23)
        assert all(len(ps) <= 1 for ps in h.values())

    def test_same_sequences_different_hierarchy(self):
        a, _ = amzn_lite_raw(100, 23)
        b, _ = amzn_f_lite_raw(100, 23)
        assert a == b  # AMZN-F differs only in the hierarchy (paper Sec. VII-A)

    def test_mean_length_amzn_like(self):
        seqs, _ = amzn_lite_raw(400, 23)
        mean = np.mean([len(s) for s in seqs])
        assert 2 <= mean <= 9  # paper: 3.9

    def test_products_generalize_to_departments(self):
        seqs, h = amzn_lite_raw(100, 23)
        closure = ancestor_closure(h)
        some_prod = next(t for s in seqs for t in s if t.startswith("mp3player_"))
        assert "Electr" in closure[some_prod]

    def test_series_products_exist_in_order(self):
        seqs, _ = amzn_lite_raw(600, 23)
        found = False
        for s in seqs:
            idx = [i for i, t in enumerate(s) if t == "fantasy_series_0"]
            for i in idx:
                if i + 1 < len(s) and s[i + 1] == "fantasy_series_1":
                    found = True
        assert found, "ordered series purchases must be planted (A2)"

    def test_camera_followups_planted(self):
        seqs, _ = amzn_lite_raw(600, 23)
        found = False
        for s in seqs:
            for i, t in enumerate(s[:-1]):
                if t.startswith("digitalcamera_") and (
                    s[i + 1].startswith("lenses_")
                    or s[i + 1].startswith("tripods_")
                    or s[i + 1].startswith("batteries_")
                    or s[i + 1].startswith("memorycard_")
                ):
                    found = True
        assert found, "camera accessory co-purchases must be planted (A3)"


class TestCwLite:
    def test_no_hierarchy(self):
        _, h = cw_lite_raw(50, 31)
        assert h == {}

    def test_mean_length_cw_like(self):
        seqs, _ = cw_lite_raw(400, 31)
        mean = np.mean([len(s) for s in seqs])
        assert 15 <= mean <= 23  # paper: 19.0

    def test_zipf_skew(self):
        seqs = zipf_sequences_raw(n=300, vocab_size=500, alpha=1.25, seed=1)
        from collections import Counter

        counts = Counter(t for s in seqs for t in s)
        top = counts.most_common(1)[0][1]
        median = sorted(counts.values())[len(counts) // 2]
        assert top > 10 * median


class TestDictionaryIntegration:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_dictionary_builds(self, name):
        seqs, h = DATASETS[name](150, 11)
        d = Dictionary.build(seqs, h)
        # Frequencies are non-increasing in fid.
        assert list(d.dfreq) == sorted(d.dfreq, reverse=True)
        # Encoding round-trips.
        assert d.decode(d.encode(seqs[0])) == tuple(seqs[0])

    def test_nyt_mean_ancestors(self):
        """Tab. II shape: NYT mean ancestors ≈ 2.8 (incl. self)."""
        seqs, h = nyt_lite_raw(200, 17)
        d = Dictionary.build(seqs, h)
        mean_anc = np.mean([len(d.ancestors(f)) for f in range(1, len(d) + 1)])
        assert 2.0 <= mean_anc <= 3.0

    def test_amzn_mean_ancestors_deeper_than_forest(self):
        seqs, dag = amzn_lite_raw(200, 23)
        _, forest = amzn_f_lite_raw(200, 23)
        d_dag = Dictionary.build(seqs, dag)
        d_for = Dictionary.build(seqs, forest)
        mean = lambda d: np.mean([len(d.ancestors(f)) for f in range(1, len(d) + 1)])
        assert mean(d_dag) >= mean(d_for)
