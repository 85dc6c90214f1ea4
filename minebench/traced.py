"""The traced run: per-layer metrics, kept apart from the timing run.

1. Session without event log: set-up (``flist.build_dictionary_s``), the
   DESQ-DFS reference, and ``mine()`` for D-SEQ and D-CAND, alternated for
   half of ``--seconds``.
2. Session with Spark's event log: the same ``mine()`` calls, tagged with
   job groups, plus ``encode_rdd`` forced by a count and ``results_to_df``.
   The log gives stage spans, shuffle records, reduce task run times and GC
   time per algorithm; the two sessions' ``mine()`` medians give
   ``trace.overhead_pct``.
3. A driver-serial pass that calls each layer's public functions directly,
   per sequence (map) and per pivot (reduce), with timers around the calls.
   It mines its own per-pivot partitions with ``dfs.mine`` and
   ``mine_nfas``; both unions must equal the reference.

Span boundaries are this file's calls into the program; nothing inside the
program is instrumented.
"""
from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core import framework
from repro.core.dcand import d_cand
from repro.desq import dfs
from repro.desq.grid import (
    EPS_SET, build_grid, pivot_merge, prefix_pivots, suffix_pivots,
)
from repro.desq.nfa import build_pivot_nfas, deserialize, mine_nfas, serialize
from repro.desq.rewrite import pivot_representations
from repro.desq.simulate import accepting_runs, run_output_sets
from repro.hierarchy import EPSILON
from repro.patex import compile_patex

import harness
import session
from workloads import Workload, decoded_pairs, fingerprint, result_digest

MINERS = harness.MINERS
COMPILE_REPEATS = 5
# D-CAND's own per-sequence run bound, so the serial pass fails where the
# Spark job would.
MAX_RUNS = inspect.signature(d_cand).parameters["max_runs"].default

PER_LAYER_UNITS: Dict[str, str] = {
    "flist.build_dictionary_s": "s",
    "patex.compile_s": "s",
    "framework.encode_s": "s",
    "framework.results_to_df_s": "s",
    "output.patterns": "count",
    "grid.build_s": "s",
    "grid.pivot_search_s": "s",
    "rewrite.pivot_representations_s": "s",
    "dseq.matched_seqs": "count",
    "dseq.pivots_emitted": "count",
    "dseq.items_shipped": "count",
    "dseq.distinct_reps": "count",
    "dseq.combine_ratio": "ratio",
    "dfs.local_mine_s": "s",
    "dfs.pivot_max_s": "s",
    "dfs.pivot_p50_s": "s",
    "dfs.partitions": "count",
    "dfs.partition_max_records": "count",
    "simulate.accepting_runs_s": "s",
    "nfa.build_pivot_nfas_s": "s",
    "nfa.serialize_s": "s",
    "dcand.runs": "count",
    "dcand.nfas_emitted": "count",
    "dcand.ints_shipped": "count",
    "dcand.distinct_nfas": "count",
    "dcand.combine_ratio": "ratio",
    "nfa.states": "count",
    "nfa.edges": "count",
    "nfa.deserialize_s": "s",
    "nfa.mine_nfas_s": "s",
    "nfa.pivot_max_s": "s",
    "nfa.pivot_p50_s": "s",
    **{
        f"{m}.{k}": u
        for m in MINERS
        for k, u in (
            ("map_stage_s", "s"),
            ("reduce_stage_s", "s"),
            ("job_overhead_s", "s"),
            ("shuffle_records", "count"),
            ("reduce_task_max_s", "s"),
            ("reduce_task_p50_s", "s"),
            ("gc_s", "s"),
        )
    },
    "trace.overhead_pct": "%",
}


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def mine_loop(calls: harness.Calls, s: harness.SetUp, w: Workload, sigma: int,
              budget: float, tag: str) -> Dict[str, List[Tuple[str, float]]]:
    """Alternate D-SEQ and D-CAND for ``budget`` seconds (at least one
    pair); returns ``{miner: [(job group, seconds)]}`` of the correct calls."""
    out: Dict[str, List[Tuple[str, float]]] = {m: [] for m in MINERS}
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < budget:
        for m in MINERS:
            group = f"{tag}-{m}-{rep}"
            what = f"{tag}.{m}_s"
            if calls.run(what, lambda: harness.run_once(s, w, sigma, m, group)):
                out[m].append((group, calls.times[what][-1]))
        rep += 1
    return out


# ---------------------------------------------------------------------------
# Spark event log
# ---------------------------------------------------------------------------

def read_event_log(app_id: str) -> List[Dict]:
    """The finished event log of application ``app_id``; deleted once read."""
    path = session.EVENT_LOG_DIR / app_id
    with open(path) as f:
        events = [json.loads(line) for line in f if line.strip()]
    path.unlink()
    return events


def _span(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def group_stats(events: List[Dict], group: str, wall_s: float) -> Dict[str, float]:
    """Stage spans, shuffle records, reduce task times and GC of the jobs
    of one ``mine()`` call (one job group)."""
    stage_ids = set()
    for e in events:
        if (e["Event"] == "SparkListenerJobStart"
                and e.get("Properties", {}).get("spark.jobGroup.id") == group):
            stage_ids.update(e["Stage IDs"])
    spans: Dict[int, Tuple[float, float]] = {}
    parents: Dict[int, List[int]] = {}
    tasks: Dict[int, List[Dict]] = {sid: [] for sid in stage_ids}
    for e in events:
        if e["Event"] == "SparkListenerStageCompleted":
            info = e["Stage Info"]
            if info["Stage ID"] in stage_ids:
                spans[info["Stage ID"]] = (info["Submission Time"] / 1e3,
                                           info["Completion Time"] / 1e3)
                parents[info["Stage ID"]] = info["Parent IDs"]
        elif e["Event"] == "SparkListenerTaskEnd" and e["Stage ID"] in stage_ids:
            tasks[e["Stage ID"]].append(e["Task Metrics"])

    def written(sid: int) -> int:
        return sum(t["Shuffle Write Metrics"]["Shuffle Records Written"]
                   for t in tasks[sid])

    # The map stage writes the shuffle, the reduce stage reads it; the
    # remaining stage collects the materialised result.
    map_stages = [sid for sid in spans if written(sid) > 0]
    reduce_stages = [sid for sid in spans
                     if set(parents[sid]) & set(map_stages)]
    reduce_runs = [t["Executor Run Time"] / 1e3
                   for sid in reduce_stages for t in tasks[sid]]
    return {
        "map_stage_s": _span(spans[s] for s in map_stages),
        "reduce_stage_s": _span(spans[s] for s in reduce_stages),
        "job_overhead_s": wall_s - _span(spans.values()),
        "shuffle_records": sum(written(s) for s in map_stages),
        "reduce_task_max_s": max(reduce_runs, default=0.0),
        "reduce_task_p50_s": _median(reduce_runs),
        "gc_s": sum(t["JVM GC Time"] for ts in tasks.values() for t in ts) / 1e3,
    }


# ---------------------------------------------------------------------------
# Driver-serial pass
# ---------------------------------------------------------------------------

class _Clock:
    """Accumulated seconds per metric name."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}

    def time(self, name: str, fn: Callable, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.total[name] = self.total.get(name, 0.0) + time.perf_counter() - t0
        return out


def _add(weights: Dict, key) -> None:
    weights[key] = weights.get(key, 0) + 1


def serial_pass(encoded: List[Tuple[int, ...]], fst, d, sigma: int,
                reference: Dict[Tuple[str, ...], int]) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics of D-SEQ and D-CAND from one pass on the driver;
    returns ``(metrics, number of mismatching reconstructions)``."""
    clock = _Clock()
    m: Dict[str, float] = {}

    def pivot_search(grid):
        prefix_pivots(grid, fst, d, sigma)
        suffix_pivots(grid, fst, d, sigma)

    # D-SEQ map: grid, pivot search (⊕ passes) and rewrite, per sequence.
    seq_parts: Dict[int, Dict] = {}
    matched = emitted = items = 0
    for T in encoded:
        grid = clock.time("grid.build_s", build_grid, fst, T, d)
        clock.time("grid.pivot_search_s", pivot_search, grid)
        reps = clock.time("rewrite.pivot_representations_s",
                          pivot_representations, fst, T, d, sigma, grid=grid)
        matched += bool(reps)
        for k, rep in reps.items():
            emitted += 1
            items += len(rep[0])
            _add(seq_parts.setdefault(k, {}), rep)
    distinct = sum(len(p) for p in seq_parts.values())
    m.update({
        "dseq.matched_seqs": matched,
        "dseq.pivots_emitted": emitted,
        "dseq.items_shipped": items,
        "dseq.distinct_reps": distinct,
        "dseq.combine_ratio": emitted / distinct if distinct else 0.0,
    })

    # D-SEQ reduce: pivot-restricted DESQ-DFS per partition.
    per_pivot: List[float] = []
    mined: Dict[Tuple[int, ...], int] = {}
    for k, weights in seq_parts.items():
        t0 = time.perf_counter()
        res = dfs.mine(list(weights.items()), fst, d, sigma, pivot=k, early_stop=True)
        per_pivot.append(time.perf_counter() - t0)
        mined.update(res)
    mismatches = _check("serial D-SEQ", mined, d, reference)
    m.update({
        "dfs.local_mine_s": sum(per_pivot),
        "dfs.pivot_max_s": max(per_pivot, default=0.0),
        "dfs.pivot_p50_s": _median(per_pivot),
        "dfs.partitions": len(seq_parts),
        "dfs.partition_max_records": max(
            (sum(p.values()) for p in seq_parts.values()), default=0),
    })

    # D-CAND map: accepting runs, per-pivot NFAs, serialisation.
    def pivots_of_run(filtered):
        acc = EPS_SET
        for out in filtered:
            acc = pivot_merge(acc, frozenset(out))
        return {k for k in acc if k != EPSILON}

    def sigma_filter(out):
        return tuple(w for w in out if d.is_frequent(w, sigma))

    def runs_of(T):
        return [run_output_sets(r, T, d)
                for r in accepting_runs(fst, T, d, max_runs=MAX_RUNS)]

    cand_parts: Dict[int, Dict] = {}
    n_runs = n_nfas = ints = states = edges = 0
    for T in encoded:
        runs = clock.time("simulate.accepting_runs_s", runs_of, T)
        nfas = clock.time("nfa.build_pivot_nfas_s", build_pivot_nfas,
                          iter(runs), pivots_of_run, sigma_filter)
        payloads = clock.time("nfa.serialize_s", lambda: {
            k: serialize(nfa) for k, nfa in nfas.items()})
        n_runs += len(runs)
        n_nfas += len(nfas)
        for k, nfa in nfas.items():
            states += nfa.n_states
            edges += nfa.n_edges
            ints += len(payloads[k])
            _add(cand_parts.setdefault(k, {}), payloads[k])
    distinct = sum(len(p) for p in cand_parts.values())
    m.update({
        "dcand.runs": n_runs,
        "dcand.nfas_emitted": n_nfas,
        "dcand.ints_shipped": ints,
        "dcand.distinct_nfas": distinct,
        "dcand.combine_ratio": n_nfas / distinct if distinct else 0.0,
        "nfa.states": states,
        "nfa.edges": edges,
    })

    # D-CAND reduce: deserialise and mine the weighted NFAs per partition.
    per_pivot = []
    mined = {}
    for k, weights in cand_parts.items():
        inputs = clock.time("nfa.deserialize_s", lambda: [
            (deserialize(p), w) for p, w in weights.items()])
        t0 = time.perf_counter()
        res = mine_nfas(inputs, sigma, pivot=k)
        per_pivot.append(time.perf_counter() - t0)
        mined.update(res)
    mismatches += _check("serial D-CAND", mined, d, reference)
    m.update({
        "nfa.mine_nfas_s": sum(per_pivot),
        "nfa.pivot_max_s": max(per_pivot, default=0.0),
        "nfa.pivot_p50_s": _median(per_pivot),
    })

    for name in ("grid.build_s", "grid.pivot_search_s",
                 "rewrite.pivot_representations_s", "simulate.accepting_runs_s",
                 "nfa.build_pivot_nfas_s", "nfa.serialize_s", "nfa.deserialize_s"):
        m[name] = clock.total.get(name, 0.0)
    return m, mismatches


def _check(what: str, mined: Dict[Tuple[int, ...], int], d,
           reference: Dict[Tuple[str, ...], int]) -> int:
    decoded = {d.decode(seq): f for seq, f in mined.items()}
    if decoded != reference:
        print(f"minebench: {what} result differs from DESQ-DFS "
              f"({len(decoded)} vs {len(reference)} patterns)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def traced_run(w: Workload, n: int, seed: int, seconds: float) -> int:
    from repro.core import mine_sequential

    sigma = w.sigma(n)
    calls = harness.Calls()
    m: Dict[str, float] = {}
    s = None
    try:
        s = harness.set_up(w, n, seed)
        m["flist.build_dictionary_s"] = s.flist_s
        reference = mine_sequential(s.seqs, s.hierarchy, w.expr, sigma, dictionary=s.d)
        calls.reference = result_digest(decoded_pairs(reference))
        harness.warm_up(s, w, sigma)
        off = mine_loop(calls, s, w, sigma, seconds / 2, "off")
        s.spark.stop()

        seqs, d = s.seqs, s.d
        spark = session.start(event_log=True)
        df = harness.cached_corpus(spark, seqs)
        s = harness.SetUp(spark, seqs, s.hierarchy, df, d, s.flist_s)
        harness.warm_up(s, w, sigma)
        on = mine_loop(calls, s, w, sigma, seconds / 2, "on")
        t0 = time.perf_counter()
        framework.encode_rdd(df, d).count()
        m["framework.encode_s"] = time.perf_counter() - t0
        fid_results = [(d.encode(k), f) for k, f in reference.items()]
        t0 = time.perf_counter()
        framework.results_to_df(spark, fid_results, d)
        m["framework.results_to_df_s"] = time.perf_counter() - t0
        app_id = spark.sparkContext.applicationId
    finally:
        session.shutdown(s.spark if s else None)

    events = read_event_log(app_id)
    for miner in MINERS:
        per_call = [group_stats(events, g, secs) for g, secs in on[miner]]
        for key in per_call[0] if per_call else ():
            m[f"{miner}.{key}"] = _median([c[key] for c in per_call])

    def total(runs):
        return sum(_median([secs for _, secs in runs[x]]) for x in MINERS)

    base = total(off)
    m["trace.overhead_pct"] = 100.0 * (total(on) - base) / base if base else float("nan")

    compile_times = []
    for _ in range(COMPILE_REPEATS):
        t0 = time.perf_counter()
        fst = compile_patex(w.expr, d)
        compile_times.append(time.perf_counter() - t0)
    m["patex.compile_s"] = _median(compile_times)
    m["output.patterns"] = len(reference)
    encoded = [d.encode(x) for x in seqs]
    layer, mismatches = serial_pass(encoded, fst, d, sigma, reference)
    m.update(layer)
    calls.attempted += 2
    calls.failed += mismatches

    record = {
        "workload": w.name,
        "seed": seed,
        "trace": 1,
        "corpus": fingerprint(seqs, sigma),
        "output.patterns": len(reference),
        "samples": calls.times,
    }
    return harness.emit(record, calls, m, PER_LAYER_UNITS)
