"""Tables II–V of the paper from the command line.

Usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]

Prints the table's rows at the given scale (default: bench). Constraint
names, e.g. ``N4`` or ``T2(100,0,5)``, restrict Tables III–V to those rows;
a name that is not one of the table's rows is a usage error.
"""
import importlib
import sys

USAGE = "usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]"


def row_names(table, number: str, scale: str):
    """The constraint names of the table's rows at ``scale`` (none for Table II)."""
    from repro.experiments.constraints import constraint_grid

    if number == "2":
        return []
    grid = table.configs(scale) if number == "5" else constraint_grid(scale)[1]
    return [c.name for c in grid]


def main(argv) -> int:
    number = argv[0] if argv else None
    scale = argv[1] if len(argv) > 1 else "bench"
    names = argv[2:] or None
    if number not in ("2", "3", "4", "5") or scale not in ("test", "bench"):
        print(USAGE, file=sys.stderr)
        return 2
    from _session import build_session  # sets PYTHONPATH before the JVM starts

    table = importlib.import_module(f"repro.experiments.table{number}")
    valid = row_names(table, number, scale)
    unknown = [x for x in names or () if x not in valid]
    if unknown:
        print(f"{USAGE}\ntable {number} has no row {' '.join(unknown)}; its rows are:"
              f" {' '.join(valid) or '(none)'}", file=sys.stderr)
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
