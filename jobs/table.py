"""Tables II–V of the paper from the command line.

Usage: python jobs/table.py {2,3,4,5} [test|bench] [constraint ...]

Prints the table's rows at the given scale (default: bench). Constraint
names, e.g. ``N4`` or ``T2(100,0,5)``, restrict Tables III–V to those rows;
a name that is not one of the table's rows is a usage error.
At bench scale with no constraint names, it then asserts the table's
shape (:func:`check_shape`) and exits 1 if that fails.
"""
import importlib
import sys
import traceback

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


def check_shape(number: str, rows) -> None:
    """Assert the shape of Table ``number``'s full bench-scale grid."""
    if number == "2":
        assert len(rows) == 4
    elif number == "3":
        assert len(rows) == 12
        # A constraint with no frequent sequence means σ or a generator regressed.
        assert all(r["n_frequent"] > 0 for r in rows)
    elif number == "4":
        assert len(rows) == 12
        by_name = {r["constraint"]: r for r in rows}
        # Tab. IV's ordering: N1 most selective, A1 skewed by long inputs, T3 loosest.
        assert by_name["N1"]["cspi_mean"] <= by_name["N2"]["cspi_mean"]
        assert by_name["N2"]["cspi_mean"] <= by_name["N4"]["cspi_mean"]
        assert by_name["A1"]["cspi_mean"] > by_name["A1"]["cspi_median"]
        assert by_name["T3(50,1,5)"]["cspi_mean"] >= by_name["T2(100,1,5)"]["cspi_mean"]
    else:
        assert len(rows) == 7
        # Distributed beats sequential on N5, the heaviest row (the paper's core claim).
        n5 = next(r for r in rows if r["constraint"] == "N5")
        assert n5["speedup_dseq"] > 1.0
        assert n5["speedup_dcand"] > 1.0


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
    if scale == "bench" and names is None:
        try:
            check_shape(number, rows)
        except AssertionError as e:
            line = traceback.extract_tb(e.__traceback__)[-1].line
            print(f"table {number} fails its shape check: {line}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
