"""Tables II–V of the paper from the command line.

Usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]

Prints the table's rows at the given scale (default: bench). Constraint
names, e.g. ``N4`` or ``T2(100,0,5)``, restrict Tables III–V to those rows.
"""
import importlib
import sys

USAGE = "usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]"


def main(argv) -> int:
    number = argv[0] if argv else None
    scale = argv[1] if len(argv) > 1 else "bench"
    names = argv[2:] or None
    if number not in ("2", "3", "4", "5") or scale not in ("test", "bench"):
        print(USAGE, file=sys.stderr)
        return 2
    from _session import build_session  # sets PYTHONPATH before the JVM starts

    table = importlib.import_module(f"repro.experiments.table{number}")
    spark = build_session()
    try:
        if number == "2":
            rows = table.run(spark, scale)
        else:
            rows = table.run(spark, scale, names=names)
    finally:
        spark.stop()
    print(table.format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
