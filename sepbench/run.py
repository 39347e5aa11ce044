"""sepcodes benchmark: run one workload for a fixed time and print its metrics.

    python3 sepbench/run.py --workload exact-solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; sepcodes is imported from its
src/ directory.  One process, one thread.  The last line of stdout is one
JSON object with "correct", "attempted", "failed" and "metrics": with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced run (spans are also written to .sepbench_out/).  Progress and
mismatches go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".sepbench_out"
# Set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS,
# and its median is reported, so that a set-up of a few milliseconds is
# still measured steadily.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5


def percentile(values, q: float):
    """Nearest-rank q-th percentile (0 < q <= 100): the smallest sample value
    with at least q percent of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def import_program():
    """Import sepcodes from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sepcodes

    if Path(sepcodes.__file__).resolve().parent.parent != src:
        raise SystemExit("sepcodes was imported from %s, not from %s" % (sepcodes.__file__, src))


@dataclass
class Round:
    """One pass over every op: its wall time, the time and output of each
    op that returned, and the error of each op that raised."""

    seconds: float
    times: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


def measure(calls, seconds: float, rng: random.Random) -> list[Round]:
    """Run whole rounds of `calls`, each round in a fresh shuffled order,
    until `seconds` have passed."""
    rounds = []
    order = list(range(len(calls)))
    start = time.perf_counter()
    while True:
        rng.shuffle(order)
        r = Round(0.0)
        r0 = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            try:
                r.outputs[i] = calls[i]()
            except Exception as exc:  # an op that raises is counted as failed
                r.errors[i] = "%s: %s" % (type(exc).__name__, str(exc)[:200])
                continue
            r.times[i] = time.perf_counter() - t0
        r.seconds = time.perf_counter() - r0
        rounds.append(r)
        if time.perf_counter() - start >= seconds:
            return rounds


def end_to_end(rounds: list[Round], setup_times) -> dict:
    """Throughput of the median round, and percentiles over ops of each
    op's median time across rounds.

    The host these figures were taken on runs at a steady speed with
    bursts of slowdown lasting seconds; a median over the repeated rounds
    keeps a burst that hits one round out of every figure.
    """
    per_op = {}
    for r in rounds:
        for i, dt in r.times.items():
            per_op.setdefault(i, []).append(dt * 1000.0)
    op_ms = [statistics.median(ts) for ts in per_op.values()]
    return {
        "ops_per_s": {"value": statistics.median(len(r.times) / r.seconds for r in rounds),
                      "unit": "op/s"},
        "op_p50_ms": {"value": percentile(op_ms, 50), "unit": "ms"},
        "op_p90_ms": {"value": percentile(op_ms, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    import_program()
    import workloads
    from tracing import OP, Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = workloads.WORKLOADS[args.workload]
    workdir = OUT / ("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            ops = setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        calls = [op.call for op in ops]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            calls = [tracer.span(OP, call) for call in calls]
        rng = random.Random(args.seed)
        rounds = measure(calls, args.seconds, rng)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(OUT / ("trace-%s-seed%d.tsv" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = set()
    for r in rounds:
        for i, out in r.outputs.items():
            problem = ops[i].check(out)
            if problem is not None:
                mismatches.add("%s: %s" % (ops[i].label, problem))
    for msg in sorted(mismatches):
        print("MISMATCH %s" % msg, file=sys.stderr)
    for msg in sorted({"%s: %s" % (ops[i].label, e) for r in rounds for i, e in r.errors.items()}):
        print("FAILED %s" % msg, file=sys.stderr)

    failed = sum(len(r.errors) for r in rounds)
    attempted = failed + sum(len(r.times) for r in rounds)
    print("%s seed %d: %d ops in %d rounds, %.3f s, %d failed%s" % (
        args.workload, args.seed, attempted, len(rounds), sum(r.seconds for r in rounds),
        failed, ", traced" if tracer else ""), file=sys.stderr)
    metrics = tracer.metrics() if tracer is not None else end_to_end(rounds, setup_times)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
