import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcodes.catalog import random_graph
from sepcodes.graphs import (
    Graph,
    closed_neighborhood,
    detect_twins,
    make_family,
    open_neighborhood,
)
from sepcodes.hypergraphs import (
    Hypergraph,
    covering_number,
    covering_number_at_most,
)
from sepcodes.kinds import ALL_KINDS, CODE_KINDS, SEPARATION_KINDS, split_code_kind
from sepcodes.reductions import build_reduction, tiny_instances
from sepcodes.separation import code_hypergraph, is_x_code, number, x_number_bruteforce


def graphs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda bits: Graph.from_edges(
                n,
                [
                    p
                    for i, p in enumerate(
                        [(u, v) for u in range(n) for v in range(u + 1, n)]
                    )
                    if bits >> i & 1
                ],
            ),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        )
    )


def test_kind_taxonomy():
    assert SEPARATION_KINDS == ("L", "O", "I", "F")
    assert len(CODE_KINDS) == 8
    assert len(ALL_KINDS) == 14
    assert split_code_kind("ITD") == ("I", "TD")
    assert split_code_kind("D") == (None, "D")
    assert split_code_kind("F") == ("F", None)


def test_delta_p4():
    # adjacent vertices always lie in each other's open-neighborhood
    # difference, so the edge (1,2) contributes the full vertex set to O
    # (open for adjacent pairs) and {0,3} to I (closed for adjacent pairs)
    g = make_family("path", 4)
    assert {0, 1, 2, 3} in code_hypergraph(g, "O").sets()
    assert {0, 3} in code_hypergraph(g, "I").sets()


def test_delta_thin_spider_identities():
    # clique pairs are adjacent (closed differences: I and F); leaf pairs are
    # non-adjacent (open differences: O and F)
    k = 4
    g = make_family("thin_spider", k)
    closed_adj = set(code_hypergraph(g, "I").sets())
    open_non = set(code_hypergraph(g, "O").sets())
    full = set(code_hypergraph(g, "F").sets())
    for i in range(k):
        for j in range(i + 1, k):
            assert {k + i, k + j} in closed_adj & full
            assert {i, j} in open_non & full


def test_separation_hypergraph_recipes():
    # adjacent pairs first, then non-adjacent ones, each in pair order; a
    # code kind appends the domination neighborhoods in vertex order
    nbhd = {"open": open_neighborhood, "closed": closed_neighborhood}
    recipes = {"L": ("open", "closed"), "O": ("open", "open"),
               "I": ("closed", "closed"), "F": ("closed", "open")}
    for s, g in itertools.product(
        SEPARATION_KINDS, (make_family("path", 4), make_family("thin_spider", 4))
    ):
        adj_kind, non_kind = recipes[s]
        pairs = list(itertools.combinations(range(g.n), 2))

        def diff(kind, u, v):
            return nbhd[kind](g, u) ^ nbhd[kind](g, v)

        expected = [diff(adj_kind, u, v) for u, v in pairs if g.has_edge(u, v)]
        expected += [diff(non_kind, u, v) for u, v in pairs if not g.has_edge(u, v)]
        h = code_hypergraph(g, s)
        assert list(h.sets()) == expected, s
        for dom, kind in (("D", "closed"), ("TD", "open")):
            dom_edges = tuple(nbhd[kind](g, v) for v in range(g.n))
            assert code_hypergraph(g, s + dom).sets() == h.sets() + dom_edges, s + dom
    assert all(e for e in code_hypergraph(make_family("path", 4), "I").edges)


def test_code_hypergraph_edge_order_is_pinned():
    # the raw edge order of every kind, as its recipe lays it out; a change
    # moves this digest.
    graphs = [make_family("path", 6), make_family("cycle", 5), make_family("star", 3),
              make_family("thin_spider", 3), make_family("clique", 3),
              Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])]
    digest = hashlib.sha256()
    for g in graphs:
        for kind in ALL_KINDS:
            digest.update(("%s\n" % kind).encode())
            h = code_hypergraph(g, kind)
            for e in h.sets():
                digest.update((" ".join(map(str, sorted(e))) + "\n").encode())
    assert digest.hexdigest() == (
        "31039e47d656897c40ecc7af4acb7d0eac8b9d09260aeccd2e5da9b5a26b42d0")


def test_open_twins_give_empty_edge():
    h = code_hypergraph(make_family("star", 2), "O")
    assert any(not e for e in h.edges)
    assert not covering_number(h).feasible


def test_full_separation_clutter_of_thin_spider():
    k = 4
    h = code_hypergraph(make_family("thin_spider", k), "F").clutter()
    expected = {frozenset({i, j}) for i in range(k) for j in range(i + 1, k)}
    expected |= {frozenset({k + i, k + j}) for i in range(k) for j in range(i + 1, k)}
    assert set(h.sets()) == expected


def test_closed_separation_clutter_of_thin_spider():
    # minimal edges: Q minus one vertex, per clique vertex, and all {s_i,s_j}
    k = 4
    h = code_hypergraph(make_family("thin_spider", k), "I").clutter()
    q = frozenset(range(k))
    expected = {q - {i} for i in range(k)}
    expected |= {frozenset({k + i, k + j}) for i in range(k) for j in range(i + 1, k)}
    assert set(h.sets()) == expected


def test_code_hypergraph_domination_edges():
    k4 = make_family("clique", 4)
    hd = code_hypergraph(k4, "D")
    assert list(hd.sets()) == [frozenset({0, 1, 2, 3})] * 4
    assert covering_number(hd).tau == 1
    iso = Graph.from_edges(2, [])
    assert not covering_number(code_hypergraph(iso, "TD")).feasible


def test_star_code_numbers():
    star = make_family("star", 3)
    for kind in ("LD", "LTD", "ID", "ITD"):
        assert number(star, kind).tau == 3


def test_is_s_set_definitions():
    g = make_family("path", 5)
    full = frozenset(range(5))
    assert is_x_code(g, "F", full)
    star = make_family("star", 3)
    assert not is_x_code(star, "O", frozenset(range(4)))
    spider = make_family("thin_spider", 4)
    c = frozenset({1, 2, 3, 4, 5})
    assert is_x_code(spider, "I", c) == (len(c) >= number(spider, "I").tau and
                                          is_x_code(spider, "I", c))
    assert number(spider, "I").tau == 5


def test_is_x_code_clique():
    k4 = make_family("clique", 4)
    assert is_x_code(k4, "D", {0})
    assert is_x_code(k4, "TD", {0, 1})
    assert not is_x_code(k4, "TD", {0})


def test_locating_code_p5():
    p5 = make_family("path", 5)
    res = x_number_bruteforce(p5, "LD")
    assert is_x_code(p5, "LD", res.witness)
    assert res.tau == number(p5, "LD").tau


def test_spot_numbers():
    assert number(make_family("thin_spider", 5), "I").tau == 6
    assert number(make_family("thin_spider", 5), "F").tau == 8
    assert number(make_family("thick_spider", 4), "O").tau == 5
    assert number(make_family("clique", 5), "OD").tau == 4
    assert number(make_family("thin_spider", 4), "ITD").tau == 7
    assert number(make_family("thick_spider", 4), "FTD").tau == 6


def test_single_vertex_conventions():
    g = Graph.from_edges(1, [])
    assert number(g, "L").tau == 0
    assert number(g, "O").tau == 0
    assert number(g, "D").tau == 1
    assert not number(g, "TD").feasible


def test_number_dispatch():
    g = make_family("path", 4)
    assert number(g, "L").tau == x_number_bruteforce(g, "L").tau
    assert number(g, "D").tau == x_number_bruteforce(g, "D").tau
    with pytest.raises(ValueError):
        number(g, "XY")


def test_s_number_at_most():
    g = make_family("thin_spider", 4)
    assert covering_number_at_most(code_hypergraph(g, "I"), 5)
    assert not covering_number_at_most(code_hypergraph(g, "I"), 4)
    assert not covering_number_at_most(code_hypergraph(make_family("clique", 3), "I"), 3)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        x_number_bruteforce(make_family("path", 17), "L")


@given(graphs(max_n=5), st.sampled_from(SEPARATION_KINDS))
@settings(max_examples=200, deadline=None)
def test_oracle_agreement(g, s):
    a = number(g, s)
    b = x_number_bruteforce(g, s)
    assert (a.feasible, a.tau, a.witness) == (b.feasible, b.tau, b.witness)


@given(graphs(max_n=5), st.sampled_from(CODE_KINDS + ("D", "TD")))
@settings(max_examples=200, deadline=None)
def test_code_oracle_agreement(g, kind):
    a = number(g, kind)
    b = x_number_bruteforce(g, kind)
    assert (a.feasible, a.tau, a.witness) == (b.feasible, b.tau, b.witness)


@given(graphs(max_n=6))
@settings(max_examples=150, deadline=None)
def test_feasibility_matches_twin_verdicts(g):
    rep = detect_twins(g)
    for kind in ALL_KINDS:
        assert number(g, kind).feasible == rep.admissible[kind]


@given(graphs(max_n=6))
@settings(max_examples=100, deadline=None)
def test_locating_witness_leaves_at_most_one_undominated(g):
    res = number(g, "L")
    if not res.feasible:
        return
    c = res.witness
    missing = [v for v in range(g.n) if v not in c and not (g.adj[v] & c)]
    assert len(missing) <= 1


def self_reduced_witness(h, tau):
    """The lex-min minimum cover of h, whose covering number is tau, by
    self-reduction from capped decisions alone.  Walk the support in
    ascending order and keep v iff the edges not met by the kept vertices
    and v, without the rejected vertices, have a cover within what tau
    leaves.  If v is in the lex-min minimum cover, the rest of that cover
    fits; if not, a fitting cover would give a minimum cover that holds v
    and agrees with it below v, which sorts first."""
    kept = rejected = 0  # bitmasks, like the edges
    for v in sorted(set().union(*h.sets())):
        taken = kept | 1 << v
        rest = Hypergraph(h.n, tuple(e & ~rejected for e in h.edges if not e & taken))
        if covering_number_at_most(rest, tau - taken.bit_count()):
            kept = taken
        else:
            rejected |= 1 << v
    return frozenset(v for v in range(h.n) if kept >> v & 1)


def test_witness_matches_self_reduction_past_the_bruteforce_range():
    # the L reductions of the MILP oracle test (26 to 40 vertices) and every
    # kind on random graphs with 17 to 19 vertices
    graphs = [build_reduction(i, "L").graph for i in list(tiny_instances())[::6]]
    cases = [(g, "L") for g in graphs if g.n > 24]
    assert len(cases) == 40
    cases += [(random_graph(n, 0.5, random.Random(n)), kind)
              for n in (17, 18, 19) for kind in ALL_KINDS]
    for g, kind in cases:
        h = code_hypergraph(g, kind).clutter()
        res = covering_number(h)
        if res.feasible:
            assert res.witness == self_reduced_witness(h, res.tau), (g.n, kind)


def test_long_path_domination_needs_no_deep_recursion():
    g = make_family("path", 1100)
    res = number(g, "D")
    assert res.feasible and res.tau == 367
    assert is_x_code(g, "D", res.witness)
    text = " ".join(map(str, sorted(res.witness)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d463ebab92f0e72cf67439d46abd80c8503c18e6cb974465983d363ab7a72ed1")


def test_tau_search_depth_is_not_bounded_by_the_recursion_limit():
    # D on P900 branches about 300 levels deep; 200 frames of headroom above
    # the caller are too few for a search that recurses once per branching
    g = make_family("path", 900)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    try:
        res = number(g, "D")
    finally:
        sys.setrecursionlimit(limit)
    assert res.feasible and res.tau == 300
