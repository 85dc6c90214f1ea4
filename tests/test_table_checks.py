"""``jobs/table.py``'s bench-scale shape checks, run without Spark."""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location(
    "table_job", Path(__file__).resolve().parents[1] / "jobs" / "table.py")
table_job = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(table_job)

# The fields the checks read, as `python jobs/table.py N bench` printed them.
BENCH_ROWS = {
    "2": [{}] * 4,
    "3": [{"n_frequent": f}
          for f in (8, 197, 23, 29, 53, 1103, 88, 610, 561, 33, 50, 1582)],
    "4": [dict(constraint=c, cspi_mean=m, cspi_median=med) for c, m, med in (
        ("N1", 1.0, 1.0), ("N2", 9.0, 9.0), ("N3", 3.0, 3.0), ("N4", 25.2, 20.0),
        ("N5", 52.3, 51.0), ("A1", 1095.1, 48.0), ("A2", 38.1, 4.0),
        ("A3", 591.1, 52.5), ("A4", 577.7, 33.0), ("T1(100,5)", 9.0, 3.0),
        ("T2(100,1,5)", 173.1, 163.5), ("T3(50,1,5)", 1094.3, 110.0))],
    "5": [dict(constraint=c, speedup_dseq=s, speedup_dcand=t) for c, s, t in (
        ("N4", 1.2, 1.8), ("N5", 2.5, 3.3), ("T3(100,1,5)", 1.3, 1.4),
        ("T3(500,1,5)", 1.1, 1.2), ("T3(150,3,5)", 1.9, 1.3),
        ("T2(100,0,5)", 2.0, 2.2), ("T2(300,0,5)", 1.8, 1.8))],
}


def run_main(monkeypatch, capsys, number, rows, *args):
    """Exit code and stderr of ``main`` on a stand-in table returning ``rows``."""
    table = SimpleNamespace(configs=lambda scale, names: None,
                            run=lambda spark, scale, names=None: rows,
                            format_rows=lambda rows: f"{len(rows)} rows")
    session = SimpleNamespace(build_session=lambda: SimpleNamespace(stop=lambda: None))
    monkeypatch.setitem(sys.modules, f"repro.experiments.table{number}", table)
    monkeypatch.setitem(sys.modules, "_session", session)
    code = table_job.main([number, "bench", *args])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("number", sorted(BENCH_ROWS))
def test_bench_shaped_rows_pass(monkeypatch, capsys, number):
    assert run_main(monkeypatch, capsys, number, BENCH_ROWS[number]) == (0, "")


@pytest.mark.parametrize("number, name, fields", [
    ("5", "N5", {"speedup_dseq": 0.9}), ("4", "N2", {"cspi_mean": 0.9})])
def test_failed_shape_check_exits_1(monkeypatch, capsys, number, name, fields):
    rows = [dict(r, **fields) if r["constraint"] == name else r
            for r in BENCH_ROWS[number]]
    code, err = run_main(monkeypatch, capsys, number, rows)
    assert code == 1
    assert err.startswith(f"table {number} fails its shape check: assert ")
    # Named rows are a partial grid, which is not checked.
    assert run_main(monkeypatch, capsys, number, rows, "N4") == (0, "")
