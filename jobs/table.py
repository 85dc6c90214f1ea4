"""Tables II–V of the paper from the command line.

Usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]

Prints the table's rows at the given scale (default: bench). Constraint
names, e.g. ``N4`` or ``T2(100,0,5)``, restrict Tables III–V to those rows;
a name that is not one of the table's rows is a usage error.
"""
import importlib
import sys

USAGE = "usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]"


def check_names(table, number: str, scale: str, names) -> None:
    """Raise ValueError, naming the valid rows, for a name that is not one of
    the table's rows at ``scale`` (Table II has none)."""
    from repro.experiments.constraints import constraint_grid, select

    if number == "2":
        select([], names)
    elif number == "5":
        table.configs(scale, names)
    else:
        constraint_grid(scale, names)


def main(argv) -> int:
    number = argv[0] if argv else None
    scale = argv[1] if len(argv) > 1 else "bench"
    names = argv[2:] or None
    if number not in ("2", "3", "4", "5") or scale not in ("test", "bench"):
        print(USAGE, file=sys.stderr)
        return 2
    from _session import build_session  # sets PYTHONPATH before the JVM starts

    table = importlib.import_module(f"repro.experiments.table{number}")
    try:
        check_names(table, number, scale, names)
    except ValueError as e:
        print(f"{USAGE}\ntable {number} has {e}", file=sys.stderr)
        return 2
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
