"""The documented command, ``python jobs/table.py``, run as a user runs it:
from the repo root, as a subprocess, with no ``PYTHONPATH``."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    # A second, small JVM beside the test session's.
    env.update(SPARK_MASTER="local[2]", SPARK_DRIVER_MEM="1g")
    return subprocess.run(
        [sys.executable, "jobs/table.py", *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )


def test_table2_at_test_scale():
    p = _run("2", "test")
    assert p.returncode == 0, p.stderr[-2000:]
    header, rule, *rows = p.stdout.strip().splitlines()
    assert header.split() == [
        "dataset", "seqs", "items", "uniq", "maxlen", "meanlen", "hier",
        "maxanc", "meananc",
    ]
    assert set(rule) == {"-"}
    assert [r.split()[0] for r in rows] == [
        "NYT-lite", "AMZN-lite", "AMZN-F-lite", "CW-lite",
    ]
    assert all(r.split()[1] == "150" for r in rows)


def test_unknown_table_is_a_usage_error():
    for args in (("6", "test"), (), ("3", "huge")):
        p = _run(*args)
        assert p.returncode != 0
        assert p.stderr.startswith("usage: python jobs/table.py")
        assert p.stdout == ""


def test_unknown_constraint_is_a_usage_error():
    """A constraint name that is none of the table's rows exits 2 with the
    usage line and the valid rows, before a Spark session starts (which
    would log to standard error)."""
    for args, rows in ((("3", "test", "XYZ"), "N1 N2 N3 N4 N5 A1"),
                       (("4", "test", "N4", "T2(100,0,5)"), "T2(100,1,5) T3(50,1,5)"),
                       (("5", "test", "N4", "T2(100,1,5)"), "N4 N5 T3(100,1,5)"),
                       (("2", "test", "N4"), "(none)")):
        p = _run(*args)
        assert p.returncode == 2, args
        usage, message = p.stderr.splitlines()
        assert usage.startswith("usage: python jobs/table.py"), args
        assert message.startswith(f"table {args[0]} has no row") and rows in message, args
        assert p.stdout == "", args
