import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcodes.graphs import (
    Graph,
    GraphParseError,
    closed_neighborhood,
    complement,
    detect_twins,
    format_graph,
    make_family,
    open_neighborhood,
    parse_graph,
)


def graphs(max_n=7):
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


def test_neighborhoods_path():
    p5 = make_family("path", 5)
    assert open_neighborhood(p5, 2) == {1, 3}
    assert closed_neighborhood(p5, 2) == {1, 2, 3}
    assert open_neighborhood(p5, 0) == {1}


def test_neighborhoods_clique_and_singleton():
    k4 = make_family("clique", 4)
    assert open_neighborhood(k4, 0) == {1, 2, 3}
    assert closed_neighborhood(k4, 0) == {0, 1, 2, 3}
    single = Graph.from_edges(1, [])
    assert open_neighborhood(single, 0) == frozenset()
    assert closed_neighborhood(single, 0) == {0}


def test_neighborhood_range_check():
    g = make_family("path", 3)
    with pytest.raises(ValueError):
        open_neighborhood(g, 3)
    with pytest.raises(ValueError):
        closed_neighborhood(g, -1)


def test_complement_p5_is_house():
    # complement of the 5-path: 5 vertices, C(5,2) - 4 = 6 edges
    house = complement(make_family("path", 5))
    assert house.n == 5
    assert house.num_edges() == 6
    assert not house.has_edge(0, 1)
    assert house.has_edge(0, 2)


def test_complement_clique_is_empty():
    assert complement(make_family("clique", 4)).num_edges() == 0


def test_complement_thin_spider_is_thick():
    assert complement(make_family("thin_spider", 4)) == make_family("thick_spider", 4)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_closed_neighborhood_one_larger(g):
    for v in range(g.n):
        assert len(closed_neighborhood(g, v)) == len(open_neighborhood(g, v)) + 1


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_open_twins_become_closed_twins_in_complement(g):
    a = detect_twins(g)
    b = detect_twins(complement(g))
    assert set(a.open_twins) == set(b.closed_twins)
    assert set(a.closed_twins) == set(b.open_twins)


def test_star_twins():
    rep = detect_twins(make_family("star", 3))
    assert set(rep.open_twins) == {(1, 2), (1, 3), (2, 3)}
    for kind in ("O", "OD", "OTD", "F", "FD", "FTD"):
        assert not rep.admissible[kind]
    for kind in ("L", "LD", "I", "ID"):
        assert rep.admissible[kind]


def test_clique_twins():
    rep = detect_twins(make_family("clique", 4))
    assert len(rep.closed_twins) == 6
    for kind in ("I", "ID", "ITD", "F", "FD", "FTD"):
        assert not rep.admissible[kind]
    assert rep.admissible["O"]


def test_p5_twin_free():
    rep = detect_twins(make_family("path", 5))
    assert rep.twin_free and not rep.isolated
    assert all(rep.admissible.values())


def test_isolated_kills_td_kinds():
    rep = detect_twins(Graph.from_edges(3, [(0, 1)]))
    assert rep.isolated == (2,)
    for kind in ("TD", "LTD", "OTD", "ITD", "FTD"):
        assert not rep.admissible[kind]
    assert rep.admissible["D"]


def test_families():
    assert make_family("thin_spider", 2).n == 4
    # H_2 is a path on four vertices up to relabeling: degrees 1,1,2,2
    degs = sorted(len(a) for a in make_family("thin_spider", 2).adj)
    assert degs == [1, 1, 2, 2]
    assert make_family("clique", 4).num_edges() == 6
    assert make_family("cycle", 5).num_edges() == 5
    assert make_family("star", 4).n == 5
    assert make_family("empty", 3).num_edges() == 0


def test_thin_spider_labeling():
    g = make_family("thin_spider", 4)
    for i in range(4):
        for j in range(i + 1, 4):
            assert g.has_edge(i, j)
        assert g.has_edge(i, 4 + i)
    assert not g.has_edge(4, 5)


def test_family_errors():
    with pytest.raises(ValueError):
        make_family("thin_spider", 1)
    with pytest.raises(ValueError):
        make_family("path", 0)
    with pytest.raises(ValueError):
        make_family("moebius", 4)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def test_parse_roundtrip():
    g = make_family("cycle", 6)
    assert parse_graph(format_graph(g)) == g


def test_parse_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1\n1 2\n# middle\n0 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.num_edges() == 3


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n0 0\n",  # self loop
        "2 2\n0 1\n0 1\n",  # duplicate
        "2 1\n1 0\n",  # not u < v
        "2 1\n0 5\n",  # out of range
        "2 2\n0 1\n",  # fewer edges than declared
        "not a header\n",
    ],
)
def test_parse_errors_carry_line_numbers(text):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert info.value.line >= 1


def test_parse_refuses_headers_over_the_size_cap():
    # refused on the header, before any vertex is allocated
    for header in ("1000000 1", "999999 2", "1000000000 0"):
        with pytest.raises(GraphParseError) as info:
            parse_graph("%s\n0 1\n" % header)
        assert info.value.line == 1 and "over the cap of 1000000" in str(info.value), header


def test_parse_long_path_in_linear_time():
    n = 100_001
    text = "%d %d\n" % (n, n - 1) + "".join("%d %d\n" % (v, v + 1) for v in range(n - 1))
    t0 = time.time()
    g = parse_graph(text)
    assert time.time() - t0 < 5
    assert g.num_edges() == n - 1
    with pytest.raises(GraphParseError) as info:
        parse_graph("%d %d\n" % (n, n) + text.split("\n", 1)[1] + "5 6\n")
    assert info.value.line == n + 1 and "duplicate edge 5 6" in str(info.value)
