"""Tests for the shared distributed-framework plumbing."""
import pandas as pd

from repro.core.framework import (
    encode_rdd,
    merge_weight_dicts,
    results_to_df,
)
from repro.hierarchy import Dictionary


class TestMergeWeightDicts:
    def test_disjoint(self):
        assert merge_weight_dicts({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}

    def test_overlap_sums(self):
        assert merge_weight_dicts({"a": 1, "b": 1}, {"a": 3}) == {"a": 4, "b": 1}

    def test_swap_optimization_result_equal(self):
        big = {i: 1 for i in range(10)}
        assert merge_weight_dicts({99: 5}, dict(big)) == {**big, 99: 5}

    def test_empty(self):
        assert merge_weight_dicts({}, {}) == {}


class TestSparkPlumbing:
    def test_encode_rdd_roundtrip(self, spark):
        d = Dictionary.build([["x", "y"]], {})
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": [0], "items": [["y", "x", "y"]]})
        )
        [enc] = encode_rdd(df, d).collect()
        assert d.decode(enc) == ("y", "x", "y")

    def test_results_to_df_schema(self, spark):
        d = Dictionary.build([["x", "y"]], {})
        df = results_to_df(spark, [((1, 2), 3)], d)
        row = df.collect()[0]
        assert row["pattern"] == f"{d.name(1)} {d.name(2)}"
        assert row["support"] == 3
        assert dict(df.dtypes) == {"pattern": "string", "support": "bigint"}
