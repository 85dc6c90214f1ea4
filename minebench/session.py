"""Spark session, working directory and process bookkeeping for minebench.

Everything a run writes goes under ``<checkout>/.minebench``: Spark's local
and temp directories, the JVM's temp directory and the event log of the
traced run. :func:`configure` must run before ``pyspark`` is imported,
because the JVM reads its launch arguments and environment once.
"""
from __future__ import annotations

import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".minebench"
EVENT_LOG_DIR = WORK / "eventlog"

MASTER = "local[4]"
# A fixed, pre-touched JVM heap: the JVM's resident size then no longer
# depends on when its collector decides to grow the heap, so the peak RSS
# of the process tree moves with the miners' own memory.
DRIVER_MEMORY = "1g"


def source_tree_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def configure() -> None:
    """Point the driver, the JVM and the Python workers at this checkout.

    The workers are forked by the JVM and inherit its environment, so
    ``PYTHONPATH`` set here is what makes ``repro`` importable on them
    without an installed package.
    """
    for sub in ("tmp", "local"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    env = os.environ
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYSPARK_PYTHON"] = sys.executable
    env["PYSPARK_DRIVER_PYTHON"] = sys.executable
    env["TMPDIR"] = str(WORK / "tmp")
    env["SPARK_LOCAL_DIRS"] = str(WORK / "local")
    # Every JVM, spark-submit's launcher included: no /tmp/hsperfdata_*.
    env["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'tmp'}"
    # C1 only: in runs this short, C2 compilation costs more CPU than it
    # saves and adds run-to-run noise.
    java_opts = f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -XX:TieredStopAtLevel=1"
    env["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ]
    )


def start(event_log: bool = False):
    """A local SparkSession configured like ``jobs/_session.py``.

    With ``event_log`` the session writes Spark's JSON event log,
    uncompressed and unrolled, to :data:`EVENT_LOG_DIR`.
    """
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(MASTER)
        .appName("minebench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(WORK / "local"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.eventLog.enabled", str(event_log).lower())
    )
    if event_log:
        EVENT_LOG_DIR.mkdir(parents=True, exist_ok=True)
        b = (
            b.config("spark.eventLog.dir", EVENT_LOG_DIR.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shuffle_write_bytes(spark, group: str) -> int:
    """Shuffle bytes written by the jobs of one job group, from Spark's
    status store (waits until the listener bus has delivered every event)."""
    sc = spark.sparkContext
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    store = jsc.statusStore()
    total = 0
    for job in tracker.getJobIdsForGroup(group):
        for stage in tracker.getJobInfo(job).stageIds:
            total += store.lastStageAttempt(stage).shuffleWriteBytes()
    return total


def _children() -> dict:
    """ppid -> [pid] over every process visible in /proc."""
    kids: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # Field 4 is the parent pid; the command name before it may hold spaces.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(root: Optional[int] = None, kids: Optional[dict] = None) -> List[int]:
    kids = _children() if kids is None else kids
    out: List[int] = []
    todo = [root or os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Samples the summed resident memory of this process and all of its
    descendants (JVM, Python daemon and workers) on a background thread."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak_kb = 0
        self.at_peak_kb: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def sample(self) -> None:
        me = os.getpid()
        kids = _children()
        rss = {"driver": _rss_kb(me), "jvm": 0, "workers": 0}
        for jvm in kids.get(me, ()):
            rss["jvm"] += _rss_kb(jvm)
            rss["workers"] += sum(_rss_kb(p) for p in descendants(jvm, kids))
        total = sum(rss.values())
        if total > self.peak_kb:
            self.peak_kb = total
            self.at_peak_kb = rss

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _running(pid: int) -> bool:
    """False once ``pid`` has exited (a zombie awaiting its reaper counts as
    exited: it holds no memory and runs no code)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids: Iterable[int], timeout: float) -> Set[int]:
    alive = set(pids)
    deadline = time.monotonic() + timeout
    while alive and time.monotonic() < deadline:
        alive = {pid for pid in alive if _running(pid)}
        if alive:
            time.sleep(0.05)
    return alive


def shutdown(spark) -> None:
    """Stop Spark and the JVM, then wait until every process started by this
    run (JVM, Python daemon, workers) has exited."""
    from pyspark import SparkContext

    started = descendants()
    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            # The gateway JVM exits when its stdin closes.
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
    left = _wait_gone(started, 30)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _wait_gone(left, 10)
