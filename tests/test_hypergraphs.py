import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcodes.hypergraphs import (
    BRUTEFORCE_GUARD,
    Hypergraph,
    complete_rose,
    covering_number,
    covering_number_at_most,
    covering_number_bruteforce,
    format_hypergraph,
    is_cover,
    reduce_to_clutter,
)


def hg(n, edges):
    return Hypergraph(n, tuple(frozenset(e) for e in edges))


def hypergraphs(max_n=8, max_edges=8, min_edge_size=0):
    def build(n):
        edge = st.frozensets(st.integers(0, n - 1), min_size=min_edge_size, max_size=n)
        return st.builds(lambda es: hg(n, es), st.lists(edge, max_size=max_edges))

    return st.integers(1, max_n).flatmap(build)


def joined_hypergraphs():
    """2 or 3 hypergraphs() on disjoint vertex sets, their labels interleaved
    by a random permutation, so the clutter usually has several components.
    The parts have no empty edge: one would make the whole join infeasible
    before any component is solved."""

    def join(parts):
        n = sum(p.n for p in parts)

        def relabel(perm):
            edges, offset = [], 0
            for p in parts:
                edges += [{perm[offset + v] for v in e} for e in p.edges]
                offset += p.n
            return hg(n, edges)

        return st.permutations(range(n)).map(relabel)

    part = hypergraphs(max_n=BRUTEFORCE_GUARD // 3, min_edge_size=1)
    return st.lists(part, min_size=2, max_size=3).flatmap(join)


def test_is_cover_basic():
    h = hg(3, [{0, 1}, {1, 2}])
    assert is_cover(h, {1})
    assert not is_cover(h, set())
    assert not is_cover(hg(3, [{0, 1}, set()]), {0, 1, 2})


def test_clutter_superset_removal():
    h = hg(3, [{0, 1}, {0, 1, 2}])
    assert set(reduce_to_clutter(h).edges) == {frozenset({0, 1})}


def test_clutter_dedup():
    h = hg(1, [{0}, {0}])
    assert reduce_to_clutter(h).edges == (frozenset({0}),)


def test_covering_triangle():
    res = covering_number(hg(3, [{0, 1}, {1, 2}, {0, 2}]))
    assert res.feasible and res.tau == 2
    assert res.witness == {0, 1}


def test_covering_single_edge():
    res = covering_number(hg(5, [{0, 1, 2, 3, 4}]))
    assert res.tau == 1 and res.witness == {0}


def test_covering_empty_edge_infeasible():
    res = covering_number(hg(3, [{0}, set()]))
    assert not res.feasible
    assert res.tau is None and res.witness is None


def test_covering_no_edges():
    res = covering_number(hg(4, []))
    assert res.feasible and res.tau == 0 and res.witness == frozenset()
    res = covering_number_bruteforce(hg(4, []))
    assert res.tau == 0


def test_covering_at_most():
    tri = hg(3, [{0, 1}, {1, 2}, {0, 2}])
    assert covering_number_at_most(tri, 2)
    assert not covering_number_at_most(tri, 1)
    assert not covering_number_at_most(tri, -1)
    assert not covering_number_at_most(hg(2, [set()]), 2)
    assert covering_number_at_most(hg(2, []), 0)
    # three components need three vertices, whatever the budget leaves
    three = hg(6, [{0, 3}, {1, 4}, {2, 5}])
    assert not covering_number_at_most(three, 2)
    assert not covering_number_at_most(three, 0)
    assert covering_number_at_most(three, 3)


def test_rose_counts():
    assert len(complete_rose(4, 2).edges) == 6
    assert len(complete_rose(5, 4).edges) == 5
    assert len(complete_rose(6, 3).edges) == 20


def test_rose_formula_spot_values():
    assert covering_number(complete_rose(4, 2)).tau == 3
    assert covering_number(complete_rose(5, 4)).tau == 2
    assert covering_number(complete_rose(6, 3)).tau == 4
    assert covering_number_bruteforce(complete_rose(5, 2)).tau == 4


def test_rose_range_check():
    with pytest.raises(ValueError):
        complete_rose(3, 3)
    with pytest.raises(ValueError):
        complete_rose(3, 1)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        covering_number_bruteforce(hg(30, [{0}]))


@given(st.one_of(hypergraphs(), joined_hypergraphs()))
@settings(max_examples=300, deadline=None)
def test_solver_matches_bruteforce(h):
    a = covering_number(h)
    b = covering_number_bruteforce(h)
    assert a.feasible == b.feasible
    assert a.tau == b.tau
    assert a.witness == b.witness
    if a.feasible:
        assert covering_number_at_most(h, a.tau)
        assert not covering_number_at_most(h, a.tau - 1)
    else:
        assert not covering_number_at_most(h, h.n)


@given(hypergraphs())
@settings(max_examples=100, deadline=None)
def test_clutter_preserves_tau(h):
    assert covering_number(h).tau == covering_number(reduce_to_clutter(h)).tau


@given(hypergraphs())
@settings(max_examples=100, deadline=None)
def test_witness_is_minimum_cover(h):
    res = covering_number(h)
    if res.feasible:
        assert is_cover(h, res.witness)
        assert len(res.witness) == res.tau


@given(hypergraphs(max_n=6, max_edges=6), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_refinement_monotone(h, rnd):
    # enlarge every edge: each edge of the coarser hypergraph contains one
    # of h, so any cover of h covers it and tau can only drop
    if any(not e for e in h.edges):
        return
    coarser = []
    for e in h.edges:
        extra = {v for v in range(h.n) if rnd.random() < 0.4}
        coarser.append(frozenset(e) | extra)
    hc = hg(h.n, coarser)
    res = covering_number(h)
    if res.feasible:
        assert is_cover(hc, res.witness)
        assert covering_number(hc).tau <= res.tau


def test_format_sorted():
    h = hg(4, [{2, 3}, {0, 1}, {0, 3}])
    text = format_hypergraph(h)
    lines = text.strip().splitlines()
    assert lines[0] == "4 3"
    assert lines[1:] == ["0 1", "0 3", "2 3"]
