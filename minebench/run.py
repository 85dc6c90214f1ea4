"""minebench: end-to-end and per-layer benchmark of ``repro.core.mine()``.

    python3 minebench/run.py --workload nyt-n5 --seed 17 --seconds 8 --trace 0

Runs from the root of a source checkout; needs no installed package and
no ``PYTHONPATH``. One driver process, ``local[4]``, one client in a closed
loop: each call starts after the previous one returned.

``--trace 0`` is the timing run. It first times DESQ-DFS
(``mine_sequential``) ``DFS_REPEATS`` times, before Spark starts; its result
is the reference. It then sets up ``SETUPS`` times in one session (the first
also launches the JVM; the median is ``setup_s``), warms the Python workers
up, and repeats rounds of D-SEQ and D-CAND ``mine()`` calls for
``--seconds`` (at least ``MIN_ROUNDS`` rounds). It reports the median time
of each distributed algorithm and of the set-ups, the shuffle bytes of each
distributed call, and the peak resident memory of the process tree; the
DESQ-DFS median goes to the record line. ``--trace 1`` is the separate traced
run; see ``traced.py``.

Every result is hashed and compared with DESQ-DFS's. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the corpus fingerprint and the per-call samples.
On any failed or mismatching call the command reports no metrics and exits
with 1.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from typing import Dict, List

import session

SETUPS = 3
DFS_REPEATS = 2
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "dseq_s": "s",
    "dcand_s": "s",
    "dseq_shuffle_mb": "MB",
    "dcand_shuffle_mb": "MB",
    "peak_rss_mb": "MB",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=0,
                   help="corpus size; default: the workload's own")
    return p.parse_args(argv)


def timed_run(w, n: int, seed: int, seconds: float) -> int:
    import harness
    from repro.hierarchy import Dictionary
    from workloads import fingerprint

    sigma = w.sigma(n)
    calls = harness.Calls()
    shuffle: Dict[str, List[int]] = {m: [] for m in harness.MINERS}
    setups: List[float] = []

    # DESQ-DFS first, before Spark starts: its result is the reference, and
    # the sequential baseline runs as a sequential user runs it, with no JVM
    # beside it. Its dictionary is built on the driver, so the reference
    # also cross-checks the Spark f-list.
    seqs, hierarchy = w.generate(n, seed)
    d = Dictionary.build(seqs, hierarchy)
    for _ in range(DFS_REPEATS):
        calls.run("dfs_s", lambda: harness.run_dfs(seqs, hierarchy, w, sigma, d))

    s = None
    with session.PeakRss() as rss:
        try:
            for _ in range(SETUPS):
                if s is not None:
                    s.df.unpersist(blocking=True)
                t0 = time.perf_counter()
                s = harness.set_up(w, n, seed)
                setups.append(time.perf_counter() - t0)
            harness.warm_up(s, w, sigma)
            rounds = 0
            start = time.perf_counter()
            while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
                for m in harness.MINERS:
                    group = f"{m}-{rounds}"
                    if calls.run(f"{m}_s",
                                 lambda: harness.run_once(s, w, sigma, m, group)):
                        shuffle[m].append(session.shuffle_write_bytes(s.spark, group))
                rounds += 1
        finally:
            session.shutdown(s.spark if s else None)

    def med(xs):
        return statistics.median(xs) if xs else float("nan")

    times = calls.times
    metrics = {
        "setup_s": med(setups),
        "dseq_s": med(times.get("dseq_s", [])),
        "dcand_s": med(times.get("dcand_s", [])),
        "dseq_shuffle_mb": med(shuffle["dseq"]) / 1e6,
        "dcand_shuffle_mb": med(shuffle["dcand"]) / 1e6,
        "peak_rss_mb": rss.peak_mb,
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": 0,
        "corpus": fingerprint(seqs, sigma),
        "output.patterns": calls.patterns,
        # Reported, not gated: across seeds its quartile spread exceeded the
        # largest bound BENCHMARK.json allows (single-threaded Python on a
        # shared host varies more than the Spark calls do).
        "dfs_s": med(times.get("dfs_s", [])),
        "rss_at_peak_mb": {k: v / 1024.0 for k, v in rss.at_peak_kb.items()},
        "samples": {**times, "setup_s": setups,
                    "dseq_shuffle_bytes": shuffle["dseq"],
                    "dcand_shuffle_bytes": shuffle["dcand"]},
    }
    return harness.emit(record, calls, metrics, END_TO_END_UNITS)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not session.source_tree_present():
        print(f"minebench: no source tree at {session.SRC}; run from the root "
              "of a repro checkout", file=sys.stderr)
        return 2
    session.configure()
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"minebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    n = args.n or w.n
    if args.trace:
        import traced

        return traced.traced_run(w, n, args.seed, args.seconds)
    return timed_run(w, n, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
