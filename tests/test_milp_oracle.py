"""Solver against an integer program beyond the brute-force range.

The brute-force oracles stop at 16 graph vertices and 24 hypergraph
vertices.  Past that, the covering number is compared with scipy's MILP
solver (HiGHS) on the clutter.  scipy is a test oracle only: these tests are
skipped where it is not installed, and sepcodes never imports it.
"""

import random

import pytest

from sepcodes.catalog import random_graph
from sepcodes.hypergraphs import covering_number
from sepcodes.kinds import ALL_KINDS
from sepcodes.reductions import build_reduction, tiny_instances
from sepcodes.separation import code_hypergraph

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def milp_tau(h):
    """Minimum number of vertices meeting every edge of h; None if an edge
    is empty."""
    edges = h.clutter().sets()
    if any(not e for e in edges):
        return None
    if not edges:
        return 0
    rows = [i for i, e in enumerate(edges) for _ in e]
    cols = [v for e in edges for v in e]
    a = sparse.coo_matrix((np.ones(len(cols)), (rows, cols)), shape=(len(edges), h.n))
    res = optimize.milp(np.ones(h.n), integrality=np.ones(h.n), bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(a, lb=1.0, ub=np.inf))
    assert res.status == 0, res.message
    return int(round(res.fun))


def solver_tau(h):
    res = covering_number(h)
    return res.tau if res.feasible else None


def test_l_reductions_agree_with_milp():
    # the L reductions of every 6th instance, where they have over 24
    # vertices: 40 graphs of 26 to 40 vertices
    graphs = [build_reduction(i, "L").graph for i in list(tiny_instances())[::6]]
    hypergraphs = [code_hypergraph(g, "L") for g in graphs if g.n > 24]
    assert len(hypergraphs) == 40
    assert [solver_tau(h) for h in hypergraphs] == [milp_tau(h) for h in hypergraphs]


@pytest.mark.parametrize("n", [17, 18, 19])
def test_every_kind_agrees_with_milp_past_the_graph_oracle(n):
    g = random_graph(n, 0.5, random.Random(n))
    for kind in ALL_KINDS:
        h = code_hypergraph(g, kind)
        assert solver_tau(h) == milp_tau(h), kind
