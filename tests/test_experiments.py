"""Smoke tests for the table harnesses at test scale, plus the oracle check
for Table II's sequence statistics."""
import pandas as pd
import pytest

from repro import oracle
from repro.datasets import load, nyt_lite_raw
from repro.experiments import table2, table3, table4, table5
from repro.experiments.constraints import (
    constraint_grid,
    flexible_constraints,
    traditional_constraints,
)


class TestConstraintsRegistry:
    def test_all_constraints_compile(self):
        from repro.hierarchy import Dictionary
        from repro.patex import compile_patex
        from repro.datasets import DATASETS

        for c in flexible_constraints(0.1) + traditional_constraints(0.1):
            seqs, h = DATASETS[c.dataset](50, 17)
            d = Dictionary.build(seqs, h)
            fst = compile_patex(c.expr, d)
            assert fst.n_states > 0

    def test_sigma_scaling(self):
        lo = flexible_constraints(0.1)
        hi = flexible_constraints(1.0)
        for a, b in zip(lo, hi):
            assert a.sigma <= b.sigma
            assert a.sigma >= 2

    def test_grid_selects_named_rows(self):
        n, grid = constraint_grid("test", ["T3(50,1,5)", "N4"])
        assert n == 150
        assert [c.name for c in grid] == ["N4", "T3(50,1,5)"]
        assert len(constraint_grid("test")[1]) == 12

    def test_grid_rejects_unknown_name(self):
        """A name in no row raises and names the valid rows, instead of
        returning an empty selection."""
        with pytest.raises(ValueError, match=r"no row XYZ; .*N1 N2 .*T3\(50,1,5\)"):
            constraint_grid("test", ["N4", "XYZ"])


class TestTable2:
    def test_rows_and_shapes(self, spark):
        rows = table2.run(spark, "test")
        assert {r["dataset"] for r in rows} == {
            "NYT-lite", "AMZN-lite", "AMZN-F-lite", "CW-lite",
        }
        by = {r["dataset"]: r for r in rows}
        # Tab. II shapes: CW has no hierarchy (mean anc 1.0), NYT max 3,
        # AMZN's DAG is at least as deep as AMZN-F's forest.
        assert by["CW-lite"]["mean_ancestors"] == 1.0
        assert by["NYT-lite"]["max_ancestors"] == 3
        assert (
            by["AMZN-lite"]["mean_ancestors"]
            >= by["AMZN-F-lite"]["mean_ancestors"]
        )
        assert by["AMZN-lite"]["mean_len"] < by["NYT-lite"]["mean_len"]

    def test_sequence_stats_oracle(self, spark):
        """DuckDB verifies total/unique counts on NYT-lite."""
        seqs, _ = load("NYT-lite", 150, 17)
        rows = [
            (i, len(s), t) for i, s in enumerate(seqs) for t in s
        ]
        exploded = pd.DataFrame(rows, columns=["seq_id", "n_items", "item"])
        stats_df = spark.createDataFrame(
            [(i, s) for i, s in enumerate(seqs)], "seq_id long, items array<string>"
        )
        got = table2.sequence_stats(stats_df)
        chk = spark.createDataFrame(
            pd.DataFrame(
                {
                    "total_sequences": [got["total_sequences"]],
                    "total_items": [got["total_items"]],
                    "unique_items": [got["unique_items"]],
                }
            )
        )
        oracle.assert_equivalent(
            chk,
            """
            SELECT COUNT(DISTINCT seq_id) AS total_sequences,
                   COUNT(*)               AS total_items,
                   COUNT(DISTINCT item)   AS unique_items
            FROM exploded
            """,
            exploded=exploded,
        )

    def test_format(self, spark):
        out = table2.format_rows(table2.run(spark, "test"))
        assert "NYT-lite" in out and "meananc" in out


class TestTable3:
    def test_n1_finds_planted_relations(self, spark):
        rows = table3.run(spark, "test", names=["N1"])
        assert len(rows) == 1
        examples = dict(rows[0]["examples"])
        assert any("lives in" == p for p in examples)

    def test_a2_finds_series(self, spark):
        rows = table3.run(spark, "test", names=["A2"])
        patterns = [p for p, _ in rows[0]["examples"]]
        assert any("fantasy_series" in p for p in patterns)

    def test_format(self, spark):
        rows = table3.run(spark, "test", names=["N3"])
        assert "N3" in table3.format_rows(rows)


# Table IV at test scale: (constraint, dataset, σ, matched %, #candidates,
# CSPI mean, CSPI median, capped sequences), floats to 3 decimals.
TABLE4_TEST_ROWS = [
    ("N1", "NYT-lite", 2, 56.667, 85, 1, 1, 0),
    ("N2", "NYT-lite", 2, 56.667, 729, 8.576, 9, 0),
    ("N3", "NYT-lite", 2, 8.0, 34, 2.833, 3.0, 0),
    ("N4", "NYT-lite", 15, 84.667, 2419, 19.047, 16, 0),
    ("N5", "NYT-lite", 15, 100.0, 4592, 30.613, 30.0, 0),
    ("A1", "AMZN-lite", 4, 35.333, 32478, 612.792, 34, 0),
    ("A2", "AMZN-lite", 2, 18.0, 1218, 45.111, 4, 0),
    ("A3", "AMZN-lite", 2, 12.667, 6315, 332.368, 55, 0),
    ("A4", "AMZN-lite", 4, 19.333, 27766, 957.448, 9, 0),
    ("T1(100,5)", "AMZN-lite", 10, 41.333, 167, 2.694, 1.0, 0),
    ("T2(100,1,5)", "NYT-lite", 10, 100.0, 21960, 146.4, 122.5, 0),
    ("T3(50,1,5)", "AMZN-F-lite", 5, 100.0, 107481, 716.54, 74.0, 0),
]


class TestTable4:
    def test_rows_pinned(self, spark):
        got = [
            tuple(round(v, 3) if isinstance(v, float) else v for v in r.values())
            for r in table4.run(spark, "test")
        ]
        assert got == TABLE4_TEST_ROWS

    def test_selective_vs_loose(self, spark):
        rows = table4.run(spark, "test", names=["N1", "N4"])
        by = {r["constraint"]: r for r in rows}
        assert by["N1"]["cspi_mean"] < by["N4"]["cspi_mean"]
        assert 0 < by["N1"]["matched_pct"] <= 100
        assert by["N1"]["capped_sequences"] == 0

    def test_cap_flags_truncation(self, spark):
        from repro.experiments.constraints import Constraint, t3_expr

        c = Constraint("T3cap", "AMZN-F-lite", t3_expr(2, 5), 2)
        row = table4.candidate_stats(spark, c, 150, cap=50)
        assert row["capped_sequences"] > 0

    def test_format(self, spark):
        rows = table4.run(spark, "test", names=["N3"])
        assert "CSPI" in table4.format_rows(rows)


class TestTable5:
    def test_single_row_agreement(self, spark):
        """run_config asserts result equality internally; a row returning
        is the test."""
        rows = table5.run(spark, "test", names=["T2(100,0,5)"])
        assert len(rows) == 1
        r = rows[0]
        assert r["t_seq"] > 0 and r["t_dseq"] > 0 and r["t_dcand"] > 0
        assert r["n_frequent"] > 0

    def test_configs_have_both_scales(self):
        test_cfg = table5.configs("test")
        bench_cfg = table5.configs("bench")
        assert [c.name for c in test_cfg] == [c.name for c in bench_cfg]
        for t, b in zip(test_cfg, bench_cfg):
            assert t.sigma <= b.sigma

    def test_configs_select_named_rows(self):
        assert [c.name for c in table5.configs("test", ["N5", "N4"])] == ["N4", "N5"]

    def test_unknown_name_raises(self, spark):
        """Table V's grid rejects a name in no row (here a Table III row
        name) before mining anything, for configs and for run."""
        with pytest.raises(ValueError, match=r"no row T2\(100,1,5\); .*N4 N5 "):
            table5.configs("test", ["T2(100,1,5)"])
        with pytest.raises(ValueError, match="no row XYZ"):
            table5.run(spark, "test", names=["XYZ"])

    def test_format(self, spark):
        rows = table5.run(spark, "test", names=["T2(300,0,5)"])
        assert "DESQ-DFS" in table5.format_rows(rows)
