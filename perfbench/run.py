"""Run the devport benchmark on one workload, or on all of them.

From the root of a checkout:

    python3 perfbench/run.py --workload forward_inverse --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

The program under test is the devport package in ``src/`` of the same
checkout. The run is one process, with BLAS pinned to one thread.

Output: an ``environment`` JSON line, a readable summary (every metric by
name with its unit and sample count, and the failures by type), then as
the last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics of an untraced run, with
  times in reference seconds (see harness.py): wall seconds corrected
  for the machine's speed drift. The summary also shows wall figures.
* ``--trace 1`` runs half the time untraced and half traced over the same
  problems, and reports the per-layer metrics of the traced half plus the
  tracing overhead.

``attempted`` counts the problems run; ``failed`` counts those that
raised, passed their deadline or gave an answer the oracle rejects.
``correct`` is true when the paper's golden examples all hold and every
answer was checked; a wrong answer makes its problem a failure.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# BLAS reads its thread count when numpy loads, so pin it before the
# benchmark's own modules import numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"=== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def _line(name, value, unit, count):
    return f"  {name:<44} {value:>14.6g} {unit:<14} {count}"


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    workload = WORKLOADS[args.workload]
    try:
        dv, pool, setup_times = harness.timed_setup(workload, args.seed)
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        half = args.seconds / 2.0
        plain = harness.timed_loop(workload, dv, pool, half)
        tracer = layertrace.Tracer(dv)
        tracer.install()
        try:
            traced = harness.timed_loop(workload, dv, pool, half)
        finally:
            tracer.uninstall()
        records = plain.records + traced.records
    else:
        loop = harness.timed_loop(workload, dv, pool, args.seconds)
        records = loop.records
    rss = harness.peak_rss_mb()

    harness.check_all(workload, records)
    golden_ok = harness.golden_gate(dv)
    summary = harness.summarize_failures(records)

    print(json.dumps({"environment": harness.environment(args.seed)}))
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"classes per cycle {len(workload.classes)}  golden gate "
          f"{'passed' if golden_ok else 'FAILED'}")
    print(f"times in reference seconds, in which the reference loop takes "
          f"{harness.REFERENCE_S} s")
    n = summary.attempted
    if args.trace:
        plain_rate = len(plain.records) / plain.scaled
        traced_rate = len(traced.records) / traced.scaled
        overhead = plain_rate / traced_rate - 1.0
        metrics = tracer.metrics(len(traced.records), traced.scaled / traced.wall)
        metrics["bench.untraced_problems_per_s"] = (plain_rate, "1/s")
        metrics["bench.traced_problems_per_s"] = (traced_rate, "1/s")
        metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
        print(f"per-layer metrics over {len(traced.records)} traced problems; tracing "
              f"overhead {overhead:+.2%} ({plain_rate:.4g}/s untraced over "
              f"{len(plain.records)} problems, {traced_rate:.4g}/s traced)")
        for name, (value, unit) in metrics.items():
            print(_line(name, value, unit, f"n={len(traced.records)}"))
    else:
        lat = harness.latency_stats([r.scaled for r in records])
        wall_lat = harness.latency_stats([r.seconds for r in records])
        setup_s = statistics.median(setup_times)
        metrics = {
            "problems_per_s": (n / loop.scaled, "1/s"),
            "solve_p50_s": (lat["p50"], "s"),
            "solve_tail_s": (lat["tail"], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        print(_line("problems_per_s", n / loop.scaled, "1/s",
                    f"n={n} [wall clock: {n / loop.wall:.4g}/s over {loop.wall:.2f} s]"))
        print(_line("solve_p50_s", lat["p50"], "s",
                    f"n={n} [wall clock: {wall_lat['p50']:.4g} s]"))
        print(_line("solve_tail_s", lat["tail"], "s",
                    f"n={n}, p{lat['tail_percentile']:.1f} with {lat['tail_beyond']} beyond "
                    f"[wall clock: {wall_lat['tail']:.4g} s]"))
        print(_line("fail_frac", summary.failed / n, "ratio",
                    f"n={n}, failed={summary.failed}"))
        print(_line("setup_s", setup_s, "s", f"n={len(setup_times)}, median of set-ups"))
        print(_line("peak_rss_mb", rss, "MB", "n=1"))
    for kind, count in sorted(summary.failures.items()):
        print(f"  failed: {count} x {kind}, e.g. {summary.examples[kind]}")

    print(json.dumps({
        "correct": bool(golden_ok),
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
