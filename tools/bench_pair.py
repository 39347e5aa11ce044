"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_pair.py PARENT CHANGE PAIRS --out BENCH_<N>.json \
        [--workload NAME=PAIRS]...

PARENT and CHANGE are git checkouts, each with its own sepbench/ and src/.
Every workload of CHANGE/BENCHMARK.json runs PAIRS pairs, or the count a
--workload NAME=PAIRS gives it.  Pair i runs `python3 sepbench/run.py
--workload W --seed i --seconds S --trace 0`, S being the run_seconds of
BENCHMARK.json, once in each checkout, the parent first in odd pairs and
the change first in even ones.  Each side's commit and the git tree of its
src/ are recorded.  The output holds every run, and per workload and end-to-end
metric each side's median and quartiles, the pairs the change won, and a
verdict against the metric's bound.  Before the pairs, each checkout runs the
tier-1 suite once with pytest's `--durations=0`; its wall time, summary line
and the call time of each acceptance criterion are recorded under "tier1".
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=0"]
CRITERION = re.compile(r"\s*([\d.]+)s call\s+tests/test_acceptance\.py::(test_criterion_\w+)")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: the JSON object of its last stdout line."""
    argv = [sys.executable, "sepbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s in %s exited %d:\n%s" % (" ".join(argv[1:]), checkout,
                                                      proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def tier1_times(checkout: Path) -> dict:
    """One tier-1 run in the checkout, on its own src/: the wall time, the
    exit code, pytest's summary line and each acceptance criterion's call
    time, parsed from the durations table."""
    path = [str(checkout.resolve() / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else "",
            "criterion_call_s": {m[2]: float(m[1]) for m in map(CRITERION.match, lines) if m}}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's spread, the pairs the change won (ties count for
    neither), and a verdict: "worse than bound" when the change's median is
    worse than the parent's by more than the bound; otherwise "unresolved"
    when the parent's own quartile spread exceeds the bound, unless every
    change run beats every parent run; otherwise "within bound"."""
    higher = metric["better"] == "higher"
    p, c = spread(parent), spread(change)

    def better(a, b):
        return a > b if higher else a < b

    worse_by = (p["median"] - c["median"] if higher else c["median"] - p["median"]) / p["median"]
    parent_spread = (p["q3"] - p["q1"]) / p["median"]
    if worse_by > metric["bound"]:
        verdict = "worse than bound"
    elif parent_spread > metric["bound"] and not all(better(x, y) for x in change for y in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c,
            "change_wins": sum(better(x, y) for x, y in zip(change, parent)),
            "worse_by": worse_by, "parent_spread": parent_spread,
            "parent_spread_exceeds_bound": parent_spread > metric["bound"],
            "verdict": verdict}


def commit_of(checkout: Path) -> dict:
    """HEAD of the checkout and the tree of its src/; refuses a checkout
    whose src/ or sepbench/ differs from HEAD, as the runs would not
    measure the recorded commit."""
    def git(*argv):
        proc = subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit("git %s in %s failed:\n%s" % (" ".join(argv), checkout, proc.stderr))
        return proc.stdout.strip()

    if git("status", "--porcelain", "--", "src", "sepbench"):
        raise SystemExit("%s has uncommitted changes under src/ or sepbench/" % checkout)
    return {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("pairs", type=int)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", default=[], metavar="NAME=PAIRS",
                    help="pair count of one workload instead of PAIRS")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    plan = {w["name"]: args.pairs for w in bench["workloads"]}
    for spec in args.workload:
        name, eq, count = spec.partition("=")
        if name not in plan or not eq or not count.isdigit():
            ap.error("--workload takes NAME=PAIRS with NAME one of %s" % ", ".join(plan))
        plan[name] = int(count)
    if min(plan.values()) < 1:
        ap.error("every workload needs at least one pair")
    seconds = bench["run_seconds"]

    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": seconds,
        "parent": commit_of(args.parent),
        "change": commit_of(args.change),
        "workloads": {},
    }
    out["tier1"] = {side: tier1_times(getattr(args, side)) for side in ("parent", "change")}
    print("tier1: %s" % json.dumps({s: t["wall_s"] for s, t in out["tier1"].items()}),
          file=sys.stderr)
    for name, pairs in plan.items():
        runs = []
        for seed in range(1, pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(getattr(args, side), name, seed, seconds)
                print("%s pair %d/%d %s: %s" % (name, seed, pairs, side,
                                                json.dumps(run[side]["metrics"])), file=sys.stderr)
            runs.append(run)
        out["workloads"][name] = {
            "pairs": pairs,
            "all_correct": {s: all(r[s]["correct"] for r in runs) for s in ("parent", "change")},
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in ("parent", "change")},
            "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in ("parent", "change")},
            "metrics": {m["name"]: compare(m, [r["parent"]["metrics"][m["name"]] for r in runs],
                                           [r["change"]["metrics"][m["name"]] for r in runs])
                        for m in bench["end_to_end"]},
            "runs": runs,
        }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
