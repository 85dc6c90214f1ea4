"""Spark integration tests: f-list, the four distributed algorithms, the
one-shuffle property, and the facade."""
import random

import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st
from py4j.protocol import Py4JJavaError
from pyspark.sql import DataFrame

from repro import datasets, oracle
from repro.core import ALGORITHMS, mine, mine_sequential
from repro.core.flist import build_dictionary
from repro.core.framework import encode_rdd
from repro.hierarchy import Dictionary, ancestor_closure
from repro.patex import compile_patex
from tests.conftest import DEX, HIER, PAPER_ORDER, PIEX
from tests.test_generated import PATTERNS

EXPECTED = {"a1 a1 b": 2, "a1 A b": 2, "a1 b": 3}


def count_shuffles(rdd) -> int:
    """Number of shuffle boundaries in an RDD lineage."""
    return rdd.toDebugString().decode().count("ShuffledRDD")


@pytest.fixture(scope="module")
def dex_df(spark):
    return spark.createDataFrame(
        pd.DataFrame({"seq_id": range(len(DEX)), "items": DEX})
    )


@pytest.fixture(scope="module")
def dex_rdd(spark, dex_df, dex_dict):
    return encode_rdd(dex_df, dex_dict).cache()


# The f-list as SQL over (seq_id, item) and (item, anc) tables: the
# independent definition DuckDB checks the Spark f-list against.
FLIST_ORACLE_SQL = """
    SELECT c.anc AS item, COUNT(DISTINCT s.seq_id) AS dfreq
    FROM exploded s JOIN closure c ON s.item = c.item
    GROUP BY c.anc
"""


def dictionary_freqs(d):
    return dict(zip(d.names, d.dfreq))


class TestFlist:
    def test_flist_matches_paper(self, spark, dex_df):
        assert dictionary_freqs(build_dictionary(spark, dex_df, HIER)) == {
            "b": 5, "A": 4, "d": 3, "a1": 3, "c": 2, "e": 1, "a2": 1,
        }

    def test_flist_oracle(self, spark, dex_df):
        """DuckDB verifies the Spark f-list against the SQL definition."""
        exploded = pd.DataFrame(
            sorted({(i, t) for i, s in enumerate(DEX) for t in s}),
            columns=["seq_id", "item"],
        )
        closure = ancestor_closure(HIER)
        closure_rows = [(w, a) for w, ancs in closure.items() for a in ancs]
        closure_rows += [(t, t) for t in set(exploded["item"]) - set(closure)]
        freqs = dictionary_freqs(build_dictionary(spark, dex_df, HIER))
        got = spark.createDataFrame(
            pd.DataFrame(
                [(w, f) for w, f in freqs.items() if f], columns=["item", "dfreq"]
            )
        )
        oracle.assert_equivalent(
            got,
            FLIST_ORACLE_SQL,
            exploded=exploded,
            closure=pd.DataFrame(closure_rows, columns=["item", "anc"]),
        )

    def test_build_dictionary_spark(self, spark, dex_df):
        d = build_dictionary(spark, dex_df, HIER)
        driver = Dictionary.build(DEX, HIER)
        assert d.names == driver.names
        assert d.dfreq == driver.dfreq

    def test_hierarchy_only_items_get_zero(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": [0], "items": [["x"]]})
        )
        d = build_dictionary(spark, df, {"x": ["p"], "q": ["p"]})
        assert d.freq(d.fid_of["q"]) == 0
        assert d.freq(d.fid_of["p"]) == 1

    def test_empty_dataframe(self, spark):
        """No rows and no partitions: the hierarchy items get 0."""
        df = spark.createDataFrame(spark.sparkContext.emptyRDD(), "items array<string>")
        d = build_dictionary(spark, df, {"x": ["p"], "q": ["p"]})
        assert dictionary_freqs(d) == {"p": 0, "q": 0, "x": 0}

    @pytest.mark.parametrize("name", sorted(datasets.DATASETS))
    def test_matches_driver_dictionary(self, spark, name):
        """The partition-wise Spark f-list equals the driver's on every
        corpus. Each parent's count is also checked against a brute-force
        count of the sequences holding one of its descendants: AMZN-lite's
        products with two subcategories in one department must add that
        department once per sequence."""
        seqs, hierarchy = datasets.DATASETS[name](150, 17)
        df = spark.createDataFrame(
            spark.sparkContext.parallelize([(s,) for s in seqs], 3),
            "items array<string>",
        )
        d = build_dictionary(spark, df, hierarchy)
        want = Dictionary.build(seqs, hierarchy)
        assert (d.names, d.dfreq, d.anc) == (want.names, want.dfreq, want.anc)
        encoded = [set(d.encode(s)) for s in seqs]
        for parent in {p for ps in hierarchy.values() for p in ps}:
            w = d.fid_of[parent]
            assert d.freq(w) == sum(
                any(d.is_descendant(t, w) for t in s) for s in encoded
            ), parent


def run_algorithm(algo, rdd, fst, d, sigma, **kw):
    out = ALGORITHMS[algo](rdd, fst, d, sigma, **kw)
    return {d.decode_str(seq): f for seq, f in out.collect()}


class TestRunningExampleAllAlgorithms:
    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_expected_result(self, algo, dex_rdd, piex_fst, dex_dict):
        assert run_algorithm(algo, dex_rdd, piex_fst, dex_dict, 2) == EXPECTED

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_cross_algorithm_agreement(self, sigma, dex_rdd, piex_fst, dex_dict):
        results = [
            run_algorithm(a, dex_rdd, piex_fst, dex_dict, sigma)
            for a in ("naive", "semi_naive", "dseq", "dcand")
        ]
        assert results[0] == results[1] == results[2] == results[3]


class TestOneShuffle:
    """The BSP-with-one-communication-round property (Alg. 1)."""

    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_single_shuffle(self, algo, dex_rdd, piex_fst, dex_dict):
        out = ALGORITHMS[algo](dex_rdd, piex_fst, dex_dict, 2)
        assert count_shuffles(out) == 1


@pytest.fixture(scope="module")
def random_db(spark):
    """60 random sequences over the running example's items, with their
    Dictionary and encoded RDD."""
    rng = random.Random(5)
    db = [
        [rng.choice(PAPER_ORDER) for _ in range(rng.randint(1, 8))]
        for _ in range(60)
    ]
    d = Dictionary.build(db, HIER)
    df = spark.createDataFrame(pd.DataFrame({"seq_id": range(len(db)), "items": db}))
    return db, d, encode_rdd(df, d).cache()


class TestRandomizedCrossAlgorithm:
    @staticmethod
    def _check_agreement(random_db, expr, sigma):
        db, d, rdd = random_db
        fst = compile_patex(expr, d)
        want = {
            " ".join(p): f
            for p, f in mine_sequential(db, HIER, expr, sigma, dictionary=d).items()
        }
        for algo in ALGORITHMS:
            assert run_algorithm(algo, rdd, fst, d, sigma) == want, algo

    @pytest.mark.parametrize(
        "expr, sigma",
        [
            (PIEX, 2),
            ("(.^)[.{0,1}(.^)]{1,3}", 3),
            (".*(.)[.{0,2}(.)]{1,2}.*", 4),
            (".*[(A^)|(d)]+.*", 2),
        ],
    )
    def test_agreement_random_db(self, random_db, expr, sigma):
        """On hand-picked expressions (generalized output, gaps, repetition,
        alternation), the four distributed algorithms return what the
        sequential miner returns."""
        self._check_agreement(random_db, expr, sigma)

    @given(expr=PATTERNS, sigma=st.integers(2, 4))
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_agreement_generated_patterns(self, random_db, expr, sigma):
        """On generated pattern expressions, the four distributed algorithms
        return what the sequential miner returns."""
        self._check_agreement(random_db, expr, sigma)


class TestFacade:
    def test_mine_dataframe_result(self, spark, dex_df):
        out = mine(
            spark,
            dex_df,
            HIER,
            PIEX,
            2,
            algorithm="dseq",
            dictionary=Dictionary.build(DEX, HIER, order=PAPER_ORDER),
        )
        got = {r["pattern"]: r["support"] for r in out.collect()}
        assert got == EXPECTED
        assert set(out.columns) == {"pattern", "support"}

    def test_mine_builds_dictionary_itself(self, spark, dex_df):
        out = mine(spark, dex_df, HIER, PIEX, 2, algorithm="dcand")
        got = {r["pattern"]: r["support"] for r in out.collect()}
        assert got == EXPECTED

    def test_mine_without_seq_id_column(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"items": DEX}))
        out = mine(spark, df, HIER, PIEX, 2, algorithm="semi_naive")
        got = {r["pattern"]: r["support"] for r in out.collect()}
        assert got == EXPECTED

    def test_unknown_algorithm(self, spark, dex_df):
        with pytest.raises(ValueError):
            mine(spark, dex_df, HIER, PIEX, 2, algorithm="bogus")

    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_one_job_per_action(self, spark, dex_df, dex_dict, algo):
        """With a Dictionary supplied, ``mine()`` runs no Spark job, and
        collecting its DataFrame runs one: Alg. 1's round with the patterns
        decoded in its reduce stage, and no driver round trip."""
        sc = spark.sparkContext
        group = f"one-job-{algo}"
        sc.setJobGroup(group, algo)
        try:
            rows = mine(spark, dex_df, HIER, PIEX, 2, algorithm=algo, dictionary=dex_dict).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert {r["pattern"]: r["support"] for r in rows} == EXPECTED
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1

    def test_mine_sequential_names(self):
        res = mine_sequential(DEX, HIER, PIEX, 2)
        assert {" ".join(p): f for p, f in res.items()} == EXPECTED


class TestEdgeInputs:
    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_sigma_and_empty_sequences(self, spark, algo):
        """σ < 1 is rejected, empty sequences are ignored, and σ > |D|
        finds nothing."""
        db = DEX + [[], []]
        df = spark.createDataFrame([(s,) for s in db], "items array<string>")
        for sigma in (0, -1):
            with pytest.raises(ValueError):
                mine(spark, df, HIER, PIEX, sigma, algorithm=algo)
        got = {r["pattern"]: r["support"]
               for r in mine(spark, df, HIER, PIEX, 2, algorithm=algo).collect()}
        assert got == EXPECTED
        assert mine(spark, df, HIER, PIEX, len(db) + 1, algorithm=algo).count() == 0

    def test_unknown_item_is_named(self, spark, dex_dict):
        """An item that the supplied Dictionary lacks fails the encoding with
        a ValueError that names the item (raised on an executor, so the
        driver sees it inside Spark's job failure). ``mine()`` returns a lazy
        DataFrame, so the error comes at its first action."""
        df = spark.createDataFrame([(DEX[0] + ["zzz"],)] * 2, "items array<string>")
        out = mine(spark, df, HIER, PIEX, 2, dictionary=dex_dict)
        assert isinstance(out, DataFrame)
        with pytest.raises(Py4JJavaError, match=r"ValueError: item 'zzz' is not in the dictionary"
                                                r" \(input partition \d+, record 0\)"):
            out.collect()

    def test_map_error_names_partition_and_record(self, spark):
        """A map-side limit error names the input partition and the offset
        of the failing record in it: here the 4th record, the 2nd of
        partition 1, has two distinct label paths against ``max_runs=1``.
        Each ``[a a]`` before it has two accepting runs but one label path."""
        db = [["a", "a"]] * 3 + [["a", "b"]]
        d = Dictionary.build(db, {})
        rdd = spark.sparkContext.parallelize([d.encode(s) for s in db], 2)
        out = ALGORITHMS["dcand"](rdd, compile_patex(".* (.) .*", d), d, 1, max_runs=1)
        with pytest.raises(Py4JJavaError, match=r"CandidateLimitExceeded: more than 1 distinct"
                                                r" label paths for the sequence of 2 items"
                                                r" \[a b\] \(input partition 1, record 1\)"):
            out.collect()

    def test_mine_sequential_names_unknown_item(self, dex_dict):
        """The driver-side miner encodes with the same Dictionary.encode,
        so an unknown item fails with the same named ValueError."""
        with pytest.raises(ValueError, match="item 'zzz' is not in the dictionary"):
            mine_sequential([DEX[0] + ["zzz"]] * 2, HIER, PIEX, 2, dictionary=dex_dict)

    def test_mine_sequential_rejects_sigma_below_one(self):
        with pytest.raises(ValueError):
            mine_sequential([["a", "b"]] * 2, {}, "(a) (b)", 0)

    @pytest.mark.parametrize("algo", ["dseq", "dcand"])
    def test_long_sequences(self, spark, algo):
        """An output pattern 44 000 items long (Table II's maximum sequence
        length) is mined on executors without hitting the interpreter's
        recursion limit."""
        df = spark.createDataFrame([(["a"] * 44000,)] * 2, "items array<string>")
        out = mine(spark, df, {}, "(a)+", 2, algorithm=algo).collect()
        assert [(r["pattern"], r["support"]) for r in out] == [(" ".join(["a"] * 44000), 2)]
