"""Unit tests for repro.hierarchy (vocabulary, DAG closure, f-list, encoding)."""
import pytest

from repro.hierarchy import (
    EPS_BITS,
    EPSILON,
    Dictionary,
    HierarchyError,
    ancestor_closure,
    document_frequencies,
)

# Paper running example (Fig. 2): Dex, hierarchy a1,a2 → A, item freqs.
DEX = [
    list("a@cdcb".replace("@", "1")),  # placeholder trick avoided below
]

# Build Dex properly: sequences of multi-char items.
DEX = [
    ["a1", "c", "d", "c", "b"],
    ["e", "e", "a1", "e", "a1", "e", "b"],
    ["c", "d", "c", "b"],
    ["a2", "d", "b"],
    ["a1", "a1", "b"],
]
HIER = {"a1": ["A"], "a2": ["A"]}
# Paper order (Fig. 2c, Sec. V-A): b < A < d < a1 < c < e < a2
PAPER_ORDER = ["b", "A", "d", "a1", "c", "e", "a2"]


@pytest.fixture(scope="module")
def dex_dict() -> Dictionary:
    return Dictionary.build(DEX, HIER, order=PAPER_ORDER)


class TestAncestorClosure:
    def test_running_example(self):
        c = ancestor_closure(HIER)
        assert c["a1"] == frozenset({"a1", "A"})
        assert c["a2"] == frozenset({"a2", "A"})
        assert c["A"] == frozenset({"A"})

    def test_parents_only_items_included(self):
        c = ancestor_closure({"x": ["y"]})
        assert c["y"] == frozenset({"y"})

    def test_diamond_dag(self):
        c = ancestor_closure({"d": ["b", "c"], "b": ["a"], "c": ["a"]})
        assert c["d"] == frozenset({"d", "b", "c", "a"})

    def test_deep_chain(self):
        h = {f"n{i}": [f"n{i+1}"] for i in range(50)}
        c = ancestor_closure(h)
        assert len(c["n0"]) == 51

    def test_cycle_raises(self):
        with pytest.raises(HierarchyError):
            ancestor_closure({"x": ["y"], "y": ["x"]})

    def test_self_cycle_raises(self):
        with pytest.raises(HierarchyError):
            ancestor_closure({"x": ["x"]})


class TestDocumentFrequencies:
    def test_running_example_flist(self):
        """Fig. 2c: b:5 A:4 d:3 a1:3 c:2 e:1 a2:1."""
        closure = ancestor_closure(
            {**{t: [] for s in DEX for t in s}, **HIER}
        )
        f = document_frequencies(DEX, closure)
        assert f["b"] == 5
        assert f["A"] == 4  # via descendants a1 (T1,T2,T5) and a2 (T4)
        assert f["d"] == 3
        assert f["a1"] == 3
        assert f["c"] == 2
        assert f["e"] == 1
        assert f["a2"] == 1

    def test_duplicates_in_sequence_count_once(self):
        closure = {"x": frozenset({"x"})}
        f = document_frequencies([["x", "x", "x"]], closure)
        assert f["x"] == 1


class TestDictionary:
    def test_paper_order_pinned(self, dex_dict):
        assert dex_dict.names == tuple(PAPER_ORDER)
        assert dex_dict.fid_of["b"] == 1
        assert dex_dict.fid_of["a2"] == 7

    def test_freqs_via_fids(self, dex_dict):
        assert [dex_dict.freq(dex_dict.fid_of[w]) for w in PAPER_ORDER] == [
            5, 4, 3, 3, 2, 1, 1,
        ]

    def test_default_order_is_frequency_sorted(self):
        d = Dictionary.build(DEX, HIER)
        freqs = list(d.dfreq)
        assert freqs == sorted(freqs, reverse=True)
        assert d.names[0] == "b"  # most frequent first

    def test_default_order_tie_break_by_name(self):
        d = Dictionary.build([["x", "y"]], {})
        assert d.names == ("x", "y")

    def test_ancestors_include_self_sorted(self, dex_dict):
        a1 = dex_dict.fid_of["a1"]
        A = dex_dict.fid_of["A"]
        assert dex_dict.ancestors(a1) == (A, a1)  # A=2 < a1=4
        assert dex_dict.ancestors(A) == (A,)

    def test_is_descendant(self, dex_dict):
        a1, a2, A, b = (dex_dict.fid_of[w] for w in ("a1", "a2", "A", "b"))
        assert dex_dict.is_descendant(a1, A)
        assert dex_dict.is_descendant(a2, A)
        assert dex_dict.is_descendant(A, A)
        assert not dex_dict.is_descendant(A, a1)
        assert not dex_dict.is_descendant(b, A)

    def test_encode_decode_roundtrip(self, dex_dict):
        enc = dex_dict.encode(DEX[0])
        assert dex_dict.decode(enc) == tuple(DEX[0])
        assert dex_dict.decode_str(enc) == "a1 c d c b"

    def test_fmax_sigma2(self, dex_dict):
        """σ=2: frequent = {b, A, d, a1, c}, the prefix of fids up to
        fmax = 5; e and a2 infrequent."""
        assert dex_dict.fid_of["c"] == 5
        assert dex_dict.frequent_mask(2) == (1 << 6) - 1  # ε and fids 1..5
        assert dex_dict.is_frequent(dex_dict.fid_of["c"], 2)
        assert not dex_dict.is_frequent(dex_dict.fid_of["e"], 2)

    def test_fmax_sigma_all_and_none(self, dex_dict):
        """fmax = 7 (every item) at σ=1 and 0 (only ε) at σ=100."""
        assert dex_dict.frequent_mask(1) == (1 << 8) - 1
        assert dex_dict.frequent_mask(100) == EPS_BITS

    def test_order_missing_item_raises(self):
        with pytest.raises(HierarchyError):
            Dictionary.build(DEX, HIER, order=["b", "A"])

    def test_build_from_external_dfreq(self):
        d = Dictionary.build([], {"x": ["p"]}, dfreq={"x": 3, "p": 5, "q": 1})
        assert d.fid_of["p"] == 1
        assert d.freq(d.fid_of["x"]) == 3
        assert d.freq(d.fid_of["q"]) == 1

    def test_len(self, dex_dict):
        assert len(dex_dict) == 7


class TestPivot:
    """The pivot of an encoded subsequence is its maximum fid (Sec. III-B):
    the least frequent item."""

    def test_pivot_is_max_fid(self, dex_dict):
        enc = dex_dict.encode(["a1", "A", "b"])
        assert max(enc) == dex_dict.fid_of["a1"]

    def test_epsilon_below_items(self):
        assert EPSILON == 0
        assert max((EPSILON, 3)) == 3
