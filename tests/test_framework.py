"""Tests for the shared distributed-framework plumbing."""
import pandas as pd
import pytest
from py4j.protocol import Py4JJavaError

from repro.core.framework import (
    encode_rdd,
    merge_weight_dicts,
    one_round,
    results_to_df,
)
from repro.desq.simulate import CandidateLimitExceeded
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

    def test_results_to_df_rdd_equals_list(self, spark):
        """An RDD of (fid tuple, support) pairs and the same pairs as a list
        give the same schema and rows."""
        d = Dictionary.build([["x", "y", "z"]], {})
        pairs = [((1, 2), 3), ((3,), 1), ((2, 2, 1), 5)]
        from_list = results_to_df(spark, pairs, d)
        from_rdd = results_to_df(spark, spark.sparkContext.parallelize(pairs, 2), d)
        assert from_rdd.schema == from_list.schema
        assert sorted(from_rdd.collect()) == sorted(from_list.collect())

    def test_tasks_prune_zip_importers(self, spark):
        """The skeleton's map and reduce tasks start by dropping their
        worker's cached zip importers, so PySpark's per-task
        ``importlib.invalidate_caches()`` re-reads no archive index. The map
        then looks up a missing module, which recreates the importers of
        ``sys.path``'s zips as any import on a worker may, so the reduce
        must drop them itself. Where the workers do not import pyspark from
        a zip, there are none to drop and the test passes trivially."""

        def zip_importers():
            import sys
            import zipimport

            return sum(isinstance(f, zipimport.zipimporter)
                       for f in sys.path_importer_cache.values())

        def map_fn(fst, d, T):
            from importlib.machinery import PathFinder

            yield zip_importers(), T
            PathFinder.find_spec("no_such_module")

        def reduce_fn(fst, d, key, weights):
            yield key, zip_importers()

        seqs = spark.sparkContext.parallelize(range(4), 4)  # a record per task
        for _ in range(2):  # the second job runs on the reused workers
            counts = one_round(seqs, None, None, map_fn, reduce_fn).collect()
            assert counts == [(0, 0)]

    def test_reduce_error_names_pivot_and_records(self, spark):
        """A reduce-side limit error names the key it was mining (the
        pivot) and how many records the shuffle brought for it: here three
        records, two of them identical and combined into one weight."""

        def map_fn(fst, d, T):
            yield T % 2, T // 2  # keys 0 and 1; key 1 gets reps 0, 0 and 1

        def reduce_fn(fst, d, key, weights):
            if key == 1:
                raise CandidateLimitExceeded("more than 1 candidates")
            yield key, sum(weights.values())

        seqs = spark.sparkContext.parallelize([0, 1, 1, 3], 2)
        out = one_round(seqs, None, None, map_fn, reduce_fn)
        with pytest.raises(Py4JJavaError, match=r"CandidateLimitExceeded: more than 1 candidates"
                                                r" \(pivot 1, 3 records\)"):
            out.collect()
