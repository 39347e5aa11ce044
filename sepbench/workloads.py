"""The three workloads: their inputs, their ops and the check of each op.

Set-up builds one round: a list of ops, each a timed public call into
sepcodes plus a check of its output against the stored MILP reference
(reference.json) or a property the answer must have.  The runner repeats
whole rounds, in an order drawn from the seed, until its time is up.

Why these three: reduction-iff is almost all capped decision search
(covering_number_at_most on the budget-2 L reductions), exact-solve is
almost all optimisation plus lex-min witness search (covering_number) on
graphs of 22 to 28 vertices, and verify-sweep is many small solves where
building hypergraphs, clutter reduction and the CLI's repeated
all_numbers passes weigh as much as the searches.  A change to one layer
should move one of them and leave the others alone.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import defs

REFERENCE = Path(__file__).resolve().with_name("reference.json")

# reduction-iff keeps, from each class (budget, order of the L reduction
# graph, Test-Cover answer), the first PER_CLASS instances in
# tiny_instances() order: 36 instances, 108 ops.  The budget-2 L graphs of
# 45 to 48 vertices must be among them, YES and NO.
PER_CLASS = 2
BIG_L_ORDERS = range(45, 49)
REDUCTION_KINDS = ("I", "O", "L")


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def l_graph_order(num_items: int, num_tests: int, budget: int) -> int:
    """Vertices of the L reduction graph: budget+1 copies of the items,
    each with two closed-twin pairs, one vertex per test, a 4-vertex gadget
    per test and one more gadget."""
    return (budget + 1) * (num_items + 4) + 5 * num_tests + 4


def reduction_subset(instances) -> list[tuple[object, bool]]:
    """(instance, Test-Cover YES?) for the first PER_CLASS instances of each
    class, with the answer from the benchmark's own enumeration of test
    subsets."""
    first = {}
    for inst in instances:
        tau = defs.min_test_cover(inst.num_items, inst.tests)
        yes = tau is not None and tau <= inst.budget
        key = (inst.budget, l_graph_order(inst.num_items, len(inst.tests), inst.budget), yes)
        kept = first.setdefault(key, [])
        if len(kept) < PER_CLASS:
            kept.append((inst, yes))
    big = {yes for (budget, order, yes) in first if budget == 2 and order in BIG_L_ORDERS}
    if big != {True, False}:
        raise RuntimeError("tiny_instances() lacks a budget-2 L instance of 45-48 vertices "
                           "with a YES or a NO answer")
    return [pair for key in sorted(first) for pair in first[key]]


def _expect_true(out) -> str | None:
    return None if out is True else "verify_reduction_iff returned %r" % (out,)


def setup_reduction_iff(seed: int, workdir: Path) -> list[Op]:
    from sepcodes import reductions

    ops = []
    for inst, yes in reduction_subset(reductions.tiny_instances()):
        tag = "z%d,y%d,b%d,%s" % (inst.num_items, len(inst.tests), inst.budget,
                                  "YES" if yes else "NO")
        for s in REDUCTION_KINDS:
            call = functools.partial(_reduction_iff, reductions, inst, s)
            ops.append(Op("%s:%s" % (s, tag), call, _expect_true))
    return ops


def _reduction_iff(module, inst, s):
    # looked up at call time, so that a traced run sees the wrapped function
    return module.verify_reduction_iff(inst, s)


# ---------------------------------------------------------------------------
# CLI-driven workloads.


def run_cli(argv: list[str]) -> tuple[int, str]:
    """sepcodes.cli.main in process, with its stdout captured."""
    from sepcodes import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def write_graph(path: Path, n: int, edges) -> None:
    lines = ["%d %d" % (n, len(edges))] + ["%d %d" % (u, v) for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_compute(adj, kind: str, expected: int, out) -> str | None:
    rc, text = out
    if rc != 0:
        return "exit code %d" % rc
    payload = json.loads(text)
    if payload["number"] != expected:
        return "number %r, reference %d" % (payload["number"], expected)
    witness = payload["witness"]
    if len(witness) != expected:
        return "witness of size %d for number %d" % (len(witness), expected)
    if not defs.is_code(adj, kind, witness):
        return "witness %s is not a %s set" % (witness, kind)
    return None


def setup_exact_solve(seed: int, workdir: Path) -> list[Op]:
    ref = load_reference()
    ops = []
    for i, g in enumerate(ref["exact-solve"]):
        n, edges = g["n"], [tuple(e) for e in g["edges"]]
        path = workdir / ("exact%d_n%d.txt" % (i, n))
        write_graph(path, n, edges)
        adj = defs.neighbourhoods(n, edges)
        for kind in defs.KINDS:
            argv = ["compute", "--graph", str(path), "--kind", kind]
            check = functools.partial(check_compute, adj, kind, g["numbers"][kind])
            ops.append(Op("%s:n%d" % (kind, n), functools.partial(run_cli, argv), check))
    # A path long enough that the recursive lex-min search overflows the
    # interpreter stack; this op fails until that search is made iterative.
    p = ref["path"]
    n, edges = p["n"], [(i, i + 1) for i in range(p["n"] - 1)]
    path = workdir / ("path_n%d.txt" % n)
    write_graph(path, n, edges)
    argv = ["compute", "--graph", str(path), "--kind", p["kind"], "--guard", str(n)]
    check = functools.partial(check_compute, defs.neighbourhoods(n, edges), p["kind"], p["number"])
    ops.append(Op("%s:path%d" % (p["kind"], n), functools.partial(run_cli, argv), check))
    return ops


# Labels of the verify report quantities that pair G with its complement,
# as in "I(G)=O(co-G)" (thm7) and "|LD(G)-LD(co-G)|<=1" (cor2).
_PAIR_LABEL = re.compile(r"\|?([A-Z]+)\(G\)[=-]([A-Z]+)\(co-G\)(?:\|<=1)?")


def check_verify(numbers: dict, co_numbers: dict, out) -> str | None:
    rc, text = out
    payload = json.loads(text)
    if rc != 0 or payload["all_passed"] is not True:
        return "exit code %d, all_passed %r" % (rc, payload["all_passed"])
    for report in payload["reports"]:
        for label, value in report["quantities"].items():
            if label in numbers:
                expected = numbers[label]
            else:
                m = _PAIR_LABEL.fullmatch(label)
                if m is None:
                    return "%s: unrecognised quantity %r" % (report["theorem"], label)
                expected = [numbers[m.group(1)], co_numbers[m.group(2)]]
            if value != expected:
                return "%s: %s = %r, reference %r" % (report["theorem"], label, value, expected)
    return None


def setup_verify_sweep(seed: int, workdir: Path) -> list[Op]:
    """Each pool graph under a vertex relabelling drawn from the seed: the
    numbers, and so the reference, do not change, the search paths do."""
    ref = load_reference()
    rng = random.Random(seed)
    ops = []
    for i, g in enumerate(ref["verify-sweep"]):
        n = g["n"]
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g["edges"])
        path = workdir / ("verify%d_n%d.txt" % (i, n))
        write_graph(path, n, edges)
        check = functools.partial(check_verify, g["numbers"], g["co_numbers"])
        argv = ["verify", "--graph", str(path)]
        ops.append(Op("verify:n%d,p%s" % (n, g["density"]), functools.partial(run_cli, argv), check))
    return ops


WORKLOADS = {
    "reduction-iff": setup_reduction_iff,
    "exact-solve": setup_exact_solve,
    "verify-sweep": setup_verify_sweep,
}
