"""Spark integration tests: f-list, the four distributed algorithms, the
one-shuffle property, and the facade."""
import random

import pandas as pd
import pytest

from repro import oracle
from repro.core import ALGORITHMS, mine, mine_sequential
from repro.core.flist import (
    FLIST_ORACLE_SQL,
    build_dictionary,
    closure_df,
    exploded_df,
    flist_df,
)
from repro.core.framework import count_shuffles, encode_rdd
from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from tests.conftest import DEX, HIER, PAPER_ORDER, PIEX

EXPECTED = {"a1 a1 b": 2, "a1 A b": 2, "a1 b": 3}


@pytest.fixture(scope="module")
def dex_df(spark):
    return spark.createDataFrame(
        pd.DataFrame({"seq_id": range(len(DEX)), "items": DEX})
    )


@pytest.fixture(scope="module")
def dex_rdd(spark, dex_df, dex_dict):
    return encode_rdd(dex_df, dex_dict).cache()


class TestFlist:
    def test_flist_matches_paper(self, spark, dex_df):
        rows = {
            r["item"]: r["dfreq"]
            for r in flist_df(spark, dex_df, HIER).collect()
        }
        assert rows == {"b": 5, "A": 4, "d": 3, "a1": 3, "c": 2, "e": 1, "a2": 1}

    def test_flist_oracle(self, spark, dex_df):
        """DuckDB verifies the Spark f-list aggregation."""
        vocab = sorted({t for s in DEX for t in s})
        cdf = closure_df(spark, HIER, vocab)
        edf = exploded_df(dex_df)
        got = flist_df(spark, dex_df, HIER)
        oracle.assert_equivalent(got, FLIST_ORACLE_SQL, exploded=edf, closure=cdf)

    def test_build_dictionary_spark(self, spark, dex_df, dex_dict):
        d = build_dictionary(spark, dex_df, HIER, order=PAPER_ORDER)
        assert d.names == dex_dict.names
        assert d.dfreq == dex_dict.dfreq

    def test_hierarchy_only_items_get_zero(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": [0], "items": [["x"]]})
        )
        d = build_dictionary(spark, df, {"x": ["p"], "q": ["p"]})
        assert d.freq(d.fid_of["q"]) == 0
        assert d.freq(d.fid_of["p"]) == 1


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


class TestDseqAblations:
    """Fig. 10a: each component can be disabled without changing results."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(use_grid=False, rewrite=False, early_stop=False),
            dict(rewrite=False, early_stop=False),
            dict(early_stop=False),
            dict(),
        ],
    )
    def test_same_result(self, kw, dex_rdd, piex_fst, dex_dict):
        assert run_algorithm("dseq", dex_rdd, piex_fst, dex_dict, 2, **kw) == EXPECTED


class TestDcandAblations:
    """Fig. 10b: aggregation and minimization are performance-only."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(aggregate=False, minimize_nfas=False),
            dict(minimize_nfas=False),
            dict(),
        ],
    )
    def test_same_result(self, kw, dex_rdd, piex_fst, dex_dict):
        assert run_algorithm("dcand", dex_rdd, piex_fst, dex_dict, 2, **kw) == EXPECTED


class TestRandomizedCrossAlgorithm:
    @pytest.mark.parametrize(
        "expr, sigma",
        [
            (PIEX, 2),
            ("(.^)[.{0,1}(.^)]{1,3}", 3),
            (".*(.)[.{0,2}(.)]{1,2}.*", 4),
            (".*[(A^)|(d)]+.*", 2),
        ],
    )
    def test_agreement_random_db(self, spark, dex_dict, expr, sigma):
        rng = random.Random(5)
        vocab = ["b", "A", "d", "a1", "c", "e", "a2"]
        db = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            for _ in range(60)
        ]
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": range(len(db)), "items": db})
        )
        d = Dictionary.build(db, HIER)
        rdd = encode_rdd(df, d).cache()
        fst = compile_patex(expr, d)
        results = [
            run_algorithm(a, rdd, fst, d, sigma)
            for a in ("semi_naive", "dseq", "dcand")
        ]
        assert results[0] == results[1] == results[2]
        # And the sequential miner agrees too.
        seq = {
            " ".join(p): f
            for p, f in mine_sequential(db, HIER, expr, sigma, dictionary=d).items()
        }
        assert seq == results[0]


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

    def test_mine_sequential_rejects_sigma_below_one(self):
        with pytest.raises(ValueError):
            mine_sequential([["a", "b"]] * 2, {}, "(a) (b)", 0)

    @pytest.mark.parametrize("algo", ["dseq", "dcand"])
    def test_long_sequences(self, spark, algo):
        """An output pattern 3 000 items long is mined on executors without
        hitting the interpreter's recursion limit."""
        df = spark.createDataFrame([(["a"] * 3000,)] * 2, "items array<string>")
        out = mine(spark, df, {}, "(a)+", 2, algorithm=algo).collect()
        assert [(r["pattern"], r["support"]) for r in out] == [(" ".join(["a"] * 3000), 2)]
