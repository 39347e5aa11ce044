"""Tests of the benchmark's own checks.

    python3 -m pytest sepbench -q

The MILP tests need scipy and are skipped without it.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import defs  # noqa: E402
import make_reference  # noqa: E402
import workloads  # noqa: E402
from run import percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

from sepcodes.graphs import Graph  # noqa: E402
from sepcodes.reductions import solve_test_cover, tiny_instances  # noqa: E402
from sepcodes.separation import is_x_code, x_number_bruteforce  # noqa: E402


def _canonical(n, edges):
    return min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
               for p in itertools.permutations(range(n)))


def graphs_up_to(max_n):
    """One edge list per isomorphism class, for every order 1..max_n, grown
    by adding a vertex with every possible neighbourhood to the classes of
    the order below."""
    out = [(1, ())]
    level = [()]
    for n in range(2, max_n + 1):
        seen = set()
        for edges in level:
            for r in range(n):
                for nbrs in itertools.combinations(range(n - 1), r):
                    seen.add(_canonical(n, list(edges) + [(u, n - 1) for u in nbrs]))
        level = sorted(seen)
        out += [(n, e) for e in level]
    return out


def random_graph(n, p, rng):
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]


def test_graphs_up_to_six_counts_every_class():
    counts = [sum(1 for n, _ in graphs_up_to(6) if n == k) for k in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]


def test_checker_accepts_exhaustive_minimum_codes_up_to_six_vertices():
    for n, edges in graphs_up_to(6):
        adj = defs.neighbourhoods(n, edges)
        g = Graph.from_edges(n, edges)
        for kind in defs.KINDS:
            oracle = x_number_bruteforce(g, kind)
            mine = defs.exhaustive_minimum(adj, kind)
            assert mine == (oracle.tau if oracle.feasible else None), (n, edges, kind)
            if oracle.feasible:
                assert defs.is_code(adj, kind, oracle.witness), (n, edges, kind)


def test_checker_rejects_sets_that_fail_separation_or_domination():
    p4 = defs.neighbourhoods(4, [(0, 1), (1, 2), (2, 3)])
    # {1, 2}: 0 and 2 both see {1} in N(v), but 0 and 3, the vertices
    # outside, see {1} and {2}
    assert defs.is_code(p4, "L", {1, 2})
    assert not defs.is_code(p4, "O", {1, 2})
    assert not defs.is_code(p4, "F", {1, 2})
    assert not defs.is_code(p4, "D", {0})
    # star with centre 0: {1, 2} locates 0 and 3 but does not dominate 3;
    # {0} dominates, but nothing in it is a neighbour of 0
    star = defs.neighbourhoods(4, [(0, 1), (0, 2), (0, 3)])
    assert defs.is_code(star, "L", {1, 2})
    assert not defs.is_code(star, "LD", {1, 2})
    assert defs.is_code(star, "D", {0})
    assert not defs.is_code(star, "TD", {0})
    # a minimum code loses its property without any one of its vertices
    g = defs.neighbourhoods(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    for kind in defs.KINDS:
        tau = defs.exhaustive_minimum(g, kind)
        best = next(c for c in itertools.combinations(range(6), tau) if defs.is_code(g, kind, c))
        for v in best:
            assert not defs.is_code(g, kind, set(best) - {v}), (kind, best, v)


def test_checker_agrees_with_the_definition_oracle_on_random_sets():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 9)
        edges = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng)
        c = frozenset(v for v in range(n) if rng.random() < 0.5)
        kind = rng.choice(defs.KINDS)
        assert defs.is_code(defs.neighbourhoods(n, edges), kind, c) == \
            is_x_code(Graph.from_edges(n, edges), kind, c), (n, edges, kind, c)


def test_milp_equals_exhaustive_enumeration_up_to_eight_vertices():
    pytest.importorskip("scipy")
    rng = random.Random(11)
    cases = [(n, random_graph(n, p, rng)) for n in range(2, 9) for p in (0.2, 0.5, 0.8)]
    cases.append((8, [(i, i + 1) for i in range(7)]))
    for n, edges in cases:
        for e in (edges, defs.complement_edges(n, edges)):
            adj = defs.neighbourhoods(n, e)
            for kind in defs.KINDS:
                got = make_reference.milp_minimum(n, defs.constraint_rows(adj, kind))
                assert got == defs.exhaustive_minimum(adj, kind), (n, e, kind)


def test_stored_reference_holds_the_generated_pools():
    ref = json.loads(make_reference.REFERENCE.read_text())
    rng = random.Random(ref["pool_seed"])
    for stored, made in zip(ref["exact-solve"], make_reference.exact_pool(rng)):
        assert stored["edges"] == made["edges"]
    for stored, made in zip(ref["verify-sweep"], make_reference.verify_pool(rng)):
        assert stored["edges"] == made["edges"]
    assert len(ref["exact-solve"]) == len(make_reference.EXACT_ORDERS)
    assert len(ref["verify-sweep"]) == (len(make_reference.VERIFY_ORDERS)
                                        * len(make_reference.VERIFY_DENSITIES)
                                        * make_reference.VERIFY_PER_CELL)


def test_stored_numbers_match_a_fresh_milp_solve():
    pytest.importorskip("scipy")
    ref = json.loads(make_reference.REFERENCE.read_text())
    for g in ref["verify-sweep"][:5]:
        assert make_reference.with_numbers(g) == g


def test_own_test_cover_enumeration_agrees_with_sepcodes():
    for inst in tiny_instances():
        assert defs.min_test_cover(inst.num_items, inst.tests) == solve_test_cover(inst).tau


def test_reduction_subset_has_big_yes_and_no_instances():
    subset = workloads.reduction_subset(tiny_instances())
    big = {yes for inst, yes in subset
           if inst.budget == 2
           and workloads.l_graph_order(inst.num_items, len(inst.tests), 2) in workloads.BIG_L_ORDERS}
    assert big == {True, False}


def test_percentile_gives_nearest_rank_order_statistics():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile(range(1, 11), 90) == 9
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5], 90) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_verify_check_reads_every_quantity(tmp_path):
    ref = json.loads(make_reference.REFERENCE.read_text())
    ops = workloads.setup_verify_sweep(3, tmp_path)
    op, g = ops[0], ref["verify-sweep"][0]
    out = op.call()
    assert op.check(out) is None
    rc, text = out
    payload = json.loads(text)
    payload["reports"][0]["quantities"]["L"] = g["numbers"]["L"] + 1
    assert op.check((rc, json.dumps(payload))) is not None


def test_tracer_sees_every_all_numbers_call_of_verify(tmp_path):
    from sepcodes import cli

    ops = workloads.setup_verify_sweep(1, tmp_path)
    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        ops[0].call()
    finally:
        tracer.uninstall()
    assert cli.main is original
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["theorems.all_numbers.calls"]["value"] == 9
    assert metrics["hypergraphs.covering_number.calls"]["value"] == 9 * 14
