"""Process environment, Spark session lifecycle and process metrics.

Everything a Spark worker inherits (BLAS threads, PYTHONPATH, temp
dirs) must be in the environment before the JVM launches, so
:func:`prepare_environment` runs before pyspark or NumPy is imported.
All files Spark and Python write go under ``perfbench/out``.
"""
from __future__ import annotations

import functools
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DRIVER_MEMORY = "2g"


def slots() -> int:
    """Task slots: the grid slices are sized for 4, never more than nproc."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def prepare_environment() -> None:
    """Pin BLAS to one thread and point Python and the JVM at the checkout."""
    for sub in ("tmp", "spark-local"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Workers unpickle functions defined in perfbench, and run_unit needs repro.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    # Every JVM (spark-submit's launcher and the driver) keeps its temp
    # files in the checkout and writes no hsperfdata file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={OUT / 'tmp'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{slots()}] --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    for p in (str(ROOT / "src"), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)


def start_spark():
    """Launch the JVM and a local session configured like jobs/run_cleanml.py."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("cleanml-perfbench")
        .master(f"local[{slots()}]")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _warm_slot(batches, datasets):
    """Import repro and materialise the datasets in one Python worker."""
    import pandas as pd

    import repro.core.runner  # noqa: F401
    from repro.datasets.registry import load_dataset

    for _ in batches:
        pass
    for name in datasets:
        load_dataset(name)
    yield pd.DataFrame({"pid": [os.getpid()]})


def warm_workers(spark, datasets: tuple[str, ...]) -> list[int]:
    """Start and warm one Python worker per slot.

    The warm-up goes through the same Arrow path as ``applyInPandas``
    (``mapInPandas``): workers started by a plain RDD job are not the
    ones the grid's pandas UDF tasks are given.
    """
    n = slots()
    fn = functools.partial(_warm_slot, datasets=datasets)
    return [r.pid for r in spark.range(n, numPartitions=n).mapInPandas(fn, "pid long").collect()]


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def descendants() -> list[int]:
    tree = _children()
    out, todo = [], [os.getpid()]
    while todo:
        for child in tree.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _status_kb(pid: int, field: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def python_workers() -> list[int]:
    """Spark's Python daemon and workers: Python processes under the JVM."""
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ")
        except OSError:
            continue
        if b"pyspark.daemon" in cmd or b"pyspark.worker" in cmd:
            out.append(pid)
    return out


def worker_peak_rss_mb() -> float:
    peaks = [_status_kb(pid, "VmHWM") or 0 for pid in python_workers()]
    return max(peaks, default=0) / 1024.0


def driver_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def java_version(spark) -> str:
    return spark.sparkContext._jvm.java.lang.System.getProperty("java.version")


def stop_spark(timeout: float = 60.0) -> None:
    """Stop the active context, the JVM and the Python workers, and wait
    until each has exited. Safe to call when none was started."""
    from pyspark import SparkContext

    pids = descendants()
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        proc = gateway.proc
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
    deadline = time.monotonic() + timeout
    alive = pids
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        # Exited children may linger as zombies, which have no VmRSS.
        alive = [p for p in alive if _status_kb(p, "VmRSS") is not None]
    if alive:
        raise RuntimeError(f"processes still running after stop: {alive}")
