"""Compiler + simulation tests at the language level.

The real spec of the compiler is: for expression E and input T, the
candidate set generated by the compiled FST equals the paper's semantics.
We pin the running example (Fig. 2/3) and the Tab. I semantics.
"""
import pytest

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.patex.compiler import CompileError
from repro.desq.simulate import (
    CandidateLimitExceeded,
    accepting_runs,
    generate,
    label_paths,
    live_rows,
    matches,
)

DEX = [
    ["a1", "c", "d", "c", "b"],
    ["e", "e", "a1", "e", "a1", "e", "b"],
    ["c", "d", "c", "b"],
    ["a2", "d", "b"],
    ["a1", "a1", "b"],
]
HIER = {"a1": ["A"], "a2": ["A"]}
PAPER_ORDER = ["b", "A", "d", "a1", "c", "e", "a2"]
PIEX = ".*(A)[(.^).*]*(b).*"


@pytest.fixture(scope="module")
def d() -> Dictionary:
    return Dictionary.build(DEX, HIER, order=PAPER_ORDER)


def gen_names(expr, seq, d, sigma=None):
    fst = compile_patex(expr, d)
    return {d.decode(c) for c in generate(fst, d.encode(seq), d, sigma=sigma)}


class TestRunningExample:
    """Fig. 3 candidate sets, verbatim."""

    def test_t1(self, d):
        assert gen_names(PIEX, DEX[0], d) == {
            ("a1", "c", "d", "c", "b"),
            ("a1", "c", "d", "b"),
            ("a1", "c", "b"),
            ("a1", "d", "c", "b"),
            ("a1", "c", "c", "b"),
            ("a1", "d", "b"),
            ("a1", "b"),
        }

    def test_t2(self, d):
        assert gen_names(PIEX, DEX[1], d) == {
            ("a1", "a1", "b"),
            ("a1", "A", "b"),
            ("a1", "b"),
            ("a1", "e", "b"),
            ("a1", "e", "e", "b"),
            ("a1", "a1", "e", "b"),
            ("a1", "A", "e", "b"),
            ("a1", "e", "a1", "b"),
            ("a1", "e", "A", "b"),
            ("a1", "e", "a1", "e", "b"),
            ("a1", "e", "A", "e", "b"),
        }

    def test_t3_empty(self, d):
        assert gen_names(PIEX, DEX[2], d) == set()
        fst = compile_patex(PIEX, d)
        assert not matches(fst, d.encode(DEX[2]), d)

    def test_t4(self, d):
        assert gen_names(PIEX, DEX[3], d) == {("a2", "d", "b"), ("a2", "b")}

    def test_t5(self, d):
        assert gen_names(PIEX, DEX[4], d) == {
            ("a1", "a1", "b"),
            ("a1", "A", "b"),
            ("a1", "b"),
        }

    def test_t5_sigma2(self, d):
        """Gσ with σ=2 keeps all of T5's candidates (no infrequent items)."""
        assert gen_names(PIEX, DEX[4], d, sigma=2) == {
            ("a1", "a1", "b"),
            ("a1", "A", "b"),
            ("a1", "b"),
        }

    def test_t2_sigma2(self, d):
        """σ=2 kills every candidate of T2 that contains e (f(e)=1)."""
        assert gen_names(PIEX, DEX[1], d, sigma=2) == {
            ("a1", "a1", "b"),
            ("a1", "A", "b"),
            ("a1", "b"),
        }

    def test_t4_sigma2_dead(self, d):
        """All of T4's candidates contain infrequent a2 -> Gσ empty."""
        assert gen_names(PIEX, DEX[3], d, sigma=2) == set()


class TestTableISemantics:
    """Tab. I + Sec. II: inputs and outputs of atomic expressions."""

    def test_uncaptured_dot_outputs_nothing(self, d):
        # ". . ." over a 3-item sequence yields no candidates at all.
        assert gen_names(". . .", ["a1", "c", "b"], d) == set()

    def test_captured_dot_outputs_match(self, d):
        assert gen_names("(.) . .", ["a1", "c", "b"], d) == {("a1",)}

    def test_captured_dot_up_outputs_ancestors(self, d):
        assert gen_names("(.^) . .", ["a1", "c", "b"], d) == {("a1",), ("A",)}

    def test_captured_item_matches_descendants_no_generalization(self, d):
        """(A) matches a1 but outputs a1 only — 'Aa1b not generated' rule."""
        assert gen_names("(A) (A)", ["a1", "a2"], d) == {("a1", "a2")}

    def test_item_eq_matches_only_itself(self, d):
        assert gen_names("(A=)", ["a1"], d) == set()
        assert gen_names("(A=)", ["A"], d) == {("A",)}

    def test_item_up_generalizes_up_to_item(self, d):
        assert gen_names("(A^)", ["a1"], d) == {("a1",), ("A",)}

    def test_item_up_eq_full_generalization(self, d):
        assert gen_names("(A^=)", ["a1"], d) == {("A",)}
        assert gen_names("(A^=)", ["A"], d) == {("A",)}

    def test_uncaptured_item_matches_descendants_silently(self, d):
        assert gen_names("A (b)", ["a2", "b"], d) == {("b",)}
        assert gen_names("A (b)", ["c", "b"], d) == set()

    def test_whole_sequence_must_match(self, d):
        """FSTs consume the entire input: no implicit padding."""
        assert gen_names("(A)", ["a1", "b"], d) == set()
        assert gen_names(".*(A).*", ["a1", "b"], d) == {("a1",)}


class TestRepetitionSemantics:
    def test_exact_count(self, d):
        assert gen_names("(b){3}", ["b", "b", "b"], d) == {("b", "b", "b")}
        assert gen_names("(b){3}", ["b", "b"], d) == set()

    def test_range_count(self, d):
        fst = compile_patex("(b){1,2}", d)
        assert generate(fst, d.encode(["b"]), d) == {(1,)}
        assert generate(fst, d.encode(["b", "b"]), d) == {(1, 1)}
        assert generate(fst, d.encode(["b", "b", "b"]), d) == set()

    def test_at_most(self, d):
        fst = compile_patex("(b){,2}", d)
        assert generate(fst, (), d) == set()  # empty candidate suppressed
        assert matches(fst, (), d)
        assert generate(fst, d.encode(["b", "b"]), d) == {(1, 1)}

    def test_plus(self, d):
        fst = compile_patex("(b)+", d)
        assert not matches(fst, (), d)
        assert generate(fst, d.encode(["b", "b"]), d) == {(1, 1)}

    def test_opt(self, d):
        fst = compile_patex("(b)? (c)", d)
        assert generate(fst, d.encode(["c"]), d) == {(d.fid_of["c"],)}
        assert generate(fst, d.encode(["b", "c"]), d) == {
            (d.fid_of["b"], d.fid_of["c"])
        }

    def test_gap_expression(self, d):
        """`.{0,2}` consumes 0-2 arbitrary items silently (A1-A4 style)."""
        fst = compile_patex("(b)[.{0,2}(b)]{1,2}", d)
        assert generate(fst, d.encode(["b", "c", "c", "b"]), d) == {(1, 1)}
        assert not matches(fst, d.encode(["b", "c", "c", "c", "b"]), d)

    def test_alternation(self, d):
        assert gen_names("(b)|(c)", ["b"], d) == {("b",)}
        assert gen_names("(b)|(c)", ["c"], d) == {("c",)}


class TestGuards:
    def test_unknown_item(self, d):
        with pytest.raises(CompileError):
            compile_patex("(zzz)", d)

    def test_max_candidates_guard(self, d):
        """Both limits fail with an error naming the sequence: its length
        and first items, decoded."""
        fst = compile_patex("[(.^)|.]{7}", d)
        T = d.encode(["a1"] * 6 + ["b"])
        named = r"the sequence of 7 items \[a1 a1 a1 a1 a1 \.\.\.\]"
        with pytest.raises(CandidateLimitExceeded, match="more than 5 candidates for " + named):
            generate(fst, T, d, max_candidates=5)
        with pytest.raises(CandidateLimitExceeded, match="more than 5 accepting runs for " + named):
            list(accepting_runs(fst, T, d, max_runs=5))
        with pytest.raises(CandidateLimitExceeded,
                           match="more than 5 distinct label paths for " + named):
            list(label_paths(fst, T, d, -1, max_paths=5))

    def test_run_enumeration_is_linear(self, d):
        """Table II's sequences run to 21k–44k items: the one run of a
        4×-longer ``(b)+`` input costs about 4× (copying the run at every
        search node would cost about 16×)."""
        import time

        fst = compile_patex("(b)+", d)

        def seconds(n):
            T = d.encode(["b"] * n)
            best = float("inf")
            for _ in range(3):
                t0 = time.process_time()
                [run] = accepting_runs(fst, T, d)
                best = min(best, time.process_time() - t0)
            assert len(run) == n
            return best

        assert seconds(40_000) / seconds(10_000) < 8

    def test_label_path_enumeration_is_linear(self, d):
        """The same pin for D-CAND's label paths: the one path of a
        4×-longer ``(b)+`` input costs about 4× (copying the labels at every
        search node would cost about 16×)."""
        import time

        fst = compile_patex("(b)+", d)

        def seconds(n):
            T = d.encode(["b"] * n)
            best = float("inf")
            for _ in range(3):
                t0 = time.process_time()
                [(labels, pivots)] = label_paths(fst, T, d, -1)
                best = min(best, time.process_time() - t0)
            assert len(labels) == n and pivots == 1 << T[0]
            return best

        assert seconds(40_000) / seconds(10_000) < 8

    def test_live_rows_are_linear(self, d):
        """The same pin for the σ-live row pass: a 4×-longer ``(b)+`` input
        costs about 4×, and its rows are a few shared tuples, so a long
        input leaves no per-position containers for the garbage collector
        to trace."""
        import time

        fst = compile_patex("(b)+", d)

        def seconds(n):
            T = d.encode(["b"] * n)
            best = float("inf")
            for _ in range(3):
                t0 = time.process_time()
                rows = live_rows(fst, T, d, -1)
                best = min(best, time.process_time() - t0)
            assert len(rows) == n + 1 and len({id(row) for row in rows}) <= 3
            return best

        assert seconds(40_000) / seconds(10_000) < 8

    def test_fst_is_picklable(self, d):
        import pickle

        fst = compile_patex(PIEX, d)
        fst2 = pickle.loads(pickle.dumps(fst))
        assert generate(fst2, d.encode(DEX[4]), d) == generate(
            fst, d.encode(DEX[4]), d
        )
        # The step and row memos filled above are not shipped with the FST.
        list(label_paths(fst, d.encode(DEX[4]), d, -1))
        assert "_steps" in fst.__dict__ and "_rows" in fst.__dict__
        shipped = pickle.loads(pickle.dumps(fst)).__dict__
        assert "_steps" not in shipped and "_rows" not in shipped

    def test_step_memo_is_per_dictionary(self, d):
        """The step and row memos belong to one Dictionary: the same fids
        under another hierarchy must not reuse their rows."""
        fst = compile_patex("(A^)", d)
        a1 = d.fid_of["a1"]
        assert fst.steps(a1, d)[0] == ((1, 0b10100),)  # anc(a1) = {A, a1}
        assert live_rows(fst, (a1,), d, -1)[0][3][0] == ((0b10100, 1),)
        flat = Dictionary.build(DEX, {"a2": ["A"]}, order=PAPER_ORDER)
        assert fst.steps(a1, flat)[0] == ()  # a1 is no longer below A
        assert live_rows(fst, (a1,), flat, -1) is None

    def test_piex_fst_small(self, d):
        """ε-elimination + trimming yields a compact FST (Fig. 4 has 3
        states; ours may differ slightly but must stay small)."""
        fst = compile_patex(PIEX, d)
        assert fst.n_states <= 6
        assert len(fst.transitions) <= 14
