"""Set-up timing, the timed closed loop, per-problem deadlines and statistics.

One caller runs problems back to back: each starts when the previous one
returns. The loop runs whole cycles of the workload's problem classes
until the requested seconds have passed, so every run sees the same mix.
Answers are kept and checked against the oracle after the loop, outside
both the timed region and the set-up time.

Times are kept twice: as wall seconds and as reference seconds. The
speed of a shared virtual machine swings by tens of percent from one
second to the next, which no amount of work in a 45 s run averages out.
So a fixed pure-Python loop is timed between every two problems and
around every set-up, and each wall time is scaled by REFERENCE_S over the
mean of the loop's two timings on either side of it: a reference second
is the time in which the loop would take exactly REFERENCE_S. Timing the
loop once per cycle of problems tracked the swings too coarsely to help,
and a reference of dense numpy pivoting tracked them worse than the loop.
The reported metrics use reference seconds; the summary shows both.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("probspace", "envelope", "geometry", "lp", "forward", "inverse",
          "allocation", "blacklitterman", "cli")
SETUP_REPS = 7
# In reference seconds, so a slower machine gets longer. The deadline
# catches runaway problems; it sits far above the slowest problem of the
# benchmark's workloads (about 1.6 s), so that a burst of load on a shared
# machine does not turn a sound answer into a failure.
DEADLINE_S = 30.0
TAIL_BEYOND = 10
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.005


class Deadline(BaseException):
    """Raised by the alarm when a problem passes its deadline.

    A BaseException, so that no handler for library errors can swallow it.
    """


class MissingProgram(RuntimeError):
    pass


def import_devport() -> SimpleNamespace:
    """Import devport from this checkout's src/, afresh, and return its modules."""
    if not (SRC / "devport" / "__init__.py").is_file():
        raise MissingProgram(f"no devport package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "devport" or m.startswith("devport.")]:
        del sys.modules[name]
    package = importlib.import_module("devport")
    if Path(package.__file__).resolve().parent != SRC / "devport":
        raise MissingProgram(f"devport was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"devport.{m}") for m in LAYERS})


def reference_time() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall seconds in reference seconds, by the loop timed on either side."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


def timed_setup(workload, seed: int):
    """Import devport and build the seeded pool SETUP_REPS times.

    Returns the modules and pool of the last repetition and every
    repetition's time in reference seconds. Each repetition re-imports
    devport's own modules; numpy stays imported.
    """
    times = []
    before = reference_time()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        dv = import_devport()
        pool = workload.setup(dv, np.random.default_rng(seed))
        elapsed = time.perf_counter() - start
        after = reference_time()
        times.append(to_reference(elapsed, before, after))
        before = after
    return dv, pool, times


@dataclass
class Record:
    problem: object
    seconds: float  # wall seconds
    output: object = None
    failure: str | None = None  # exception class, "timeout" or "oracle_mismatch"
    detail: str = ""
    scaled: float = 0.0  # reference seconds


def _on_alarm(_signum, _frame):
    raise Deadline()


def run_one(workload, dv, problem, scale: float = 1.0) -> Record:
    """Solve one problem under its deadline; scale is reference over wall seconds."""
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S / scale)
        try:
            output = workload.solve(dv, problem)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return Record(problem, time.perf_counter() - start, None, "timeout",
                      f"passed the deadline of {DEADLINE_S:g} reference seconds")
    except Exception as exc:  # every library failure is a failed problem
        return Record(problem, time.perf_counter() - start, None,
                      type(exc).__name__, str(exc))
    return Record(problem, time.perf_counter() - start, output)


@dataclass
class Loop:
    records: list
    wall: float  # seconds spent in problems, reference loops excluded
    scaled: float  # the same in reference seconds


def timed_loop(workload, dv, pool, seconds: float) -> Loop:
    """Run whole cycles from the start of the pool until `seconds` have passed."""
    cycle = len(workload.classes)
    loop = Loop([], 0.0, 0.0)
    index = 0
    before = reference_time()
    while True:
        for _ in range(cycle):
            record = run_one(workload, dv, pool[index % len(pool)], REFERENCE_S / before)
            after = reference_time()
            record.scaled = to_reference(record.seconds, before, after)
            before = after
            loop.records.append(record)
            loop.wall += record.seconds
            loop.scaled += record.scaled
            index += 1
        if loop.wall >= seconds:
            return loop


def check_all(workload, records) -> None:
    """Mark every answer that misses the oracle as a failed problem."""
    for record in records:
        if record.failure is not None:
            continue
        try:
            reason = workload.check(record.problem, record.output)
        except Exception as exc:  # an answer the oracle cannot read is wrong
            reason = f"oracle could not evaluate the answer: {type(exc).__name__}: {exc}"
        if reason is not None:
            record.failure, record.detail = "oracle_mismatch", reason


def golden_gate(dv) -> bool:
    """`devport paper-examples`: every golden example of the paper holds."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return dv.cli.run(["paper-examples"]) == 0


@dataclass
class Summary:
    attempted: int
    failed: int
    failures: dict = field(default_factory=dict)
    examples: dict = field(default_factory=dict)


def summarize_failures(records) -> Summary:
    failed = [r for r in records if r.failure is not None]
    examples = {}
    for r in failed:
        examples.setdefault(r.failure, f"{r.problem.label}: {r.detail}"[:300])
    counts = dict(Counter(r.failure for r in failed))
    return Summary(len(records), len(failed), counts, examples)


def latency_stats(times) -> dict:
    """Median and tail of per-problem times.

    The tail is the highest order statistic with TAIL_BEYOND problems
    beyond it; its percentile is recorded with it.
    """
    times = sorted(times)
    n = len(times)
    rank = max(n - TAIL_BEYOND, 1)
    return {
        "p50": statistics.median(times),
        "tail": times[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "tail_beyond": n - rank,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "devport").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }
