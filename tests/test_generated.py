"""Differential test of the miners over generated pattern expressions.

Hypothesis draws pattern expressions from a grammar over the running
example's items (captures, ``.``, ``^``, ``=``, ``|``, ``?``, ``*``, ``+``,
``{m,n}``), small random databases and a random item hierarchy (a DAG in
which an item has 0–2 parents). On every draw, DESQ-DFS must equal
brute-force counting over the generated candidates, and the union of the
per-pivot D-SEQ (early stopping on and off) and D-CAND results must equal
DESQ-DFS, and D-CAND's map must ship the payloads of its tuple reference. Expressions and sequences are kept short, so that brute-force
candidate enumeration stays cheap.
"""
from hypothesis import given, settings, strategies as st

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.core.dcand import map_sequence
from repro.desq.dfs import mine
from repro.desq.nfa import deserialize, mine_nfas, serialize
from repro.desq.rewrite import pivot_representations
from tests.conftest import PAPER_ORDER
from tests.test_dfs import brute_force_mine, wrap
from tests.test_nfa import reference_nfas

NAMED = st.tuples(st.sampled_from(PAPER_ORDER), st.sampled_from(["", "^"]),
                  st.sampled_from(["", "="])).map("".join)
ITEM = st.one_of(NAMED, st.sampled_from([".", ".^"]))
ATOM = st.tuples(ITEM, st.booleans()).map(lambda p: f"({p[0]})" if p[1] else p[0])
POSTFIX = st.sampled_from(["?", "*", "+", "{2}", "{0,1}", "{1,2}", "{1,}"])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, inner).map(" ".join),
        st.tuples(inner, inner).map(lambda p: f"[{p[0]}|{p[1]}]"),
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, POSTFIX).map(lambda p: f"[{p[0]}]{p[1]}"),
    )


# Two thirds of the expressions may skip items before and after the match,
# so that more draws have frequent patterns.
PATTERNS = st.tuples(
    st.recursive(ATOM, _compound, max_leaves=4), st.sampled_from(["{}", ".* {} .*", ".* {} .*"])
).map(lambda p: p[1].format(p[0]))
DATABASES = st.lists(
    st.lists(st.sampled_from(PAPER_ORDER), min_size=1, max_size=5), min_size=2, max_size=6
)


@st.composite
def hierarchies(draw):
    """Each item takes up to two parents among the items before it in a
    drawn order, so the hierarchy is a DAG and may have two-parent items
    (AMZN's products in two subcategories)."""
    items = draw(st.permutations(PAPER_ORDER))
    return {
        w: draw(st.lists(st.sampled_from(items[:i]), max_size=2, unique=True)) if i else []
        for i, w in enumerate(items)
    }


@given(expr=PATTERNS, db=DATABASES, hierarchy=hierarchies(), sigma=st.integers(1, 3))
@settings(max_examples=600, deadline=None)
def test_miners_agree(expr, db, hierarchy, sigma):
    d = Dictionary.build(db, hierarchy)
    fst = compile_patex(expr, d)
    encoded = [d.encode(s) for s in db]
    full = mine(wrap(encoded), fst, d, sigma)
    assert full == brute_force_mine(fst, encoded, d, sigma)

    seq_parts, cand_parts = {}, {}
    for T in encoded:
        for k, rep in pivot_representations(fst, T, d, sigma).items():
            seq_parts.setdefault(k, []).append((rep, 1))
        for k, payload in map_sequence(fst, d, T, sigma):
            cand_parts.setdefault(k, []).append((deserialize(payload), 1))
    for early_stop in (True, False):
        union = {}
        for k, inputs in seq_parts.items():
            union.update(mine(inputs, fst, d, sigma, pivot=k, early_stop=early_stop))
        assert union == full, early_stop
    union = {}
    for k, nfas in cand_parts.items():
        union.update(mine_nfas(nfas, sigma, k))
    assert union == full


@given(expr=PATTERNS, db=DATABASES, hierarchy=hierarchies(), sigma=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_bitset_map_matches_tuple_reference(expr, db, hierarchy, sigma):
    """D-CAND's map on output bitsets ships, per sequence, exactly the
    payloads of the tuple reference, pivots in the same order."""
    d = Dictionary.build(db, hierarchy)
    fst = compile_patex(expr, d)
    for T in map(d.encode, db):
        want = [(k, serialize(nfa)) for k, nfa in reference_nfas(fst, T, d, sigma).items()]
        assert map_sequence(fst, d, T, sigma) == want
