import hashlib

import pytest

from sepcodes import reductions
from sepcodes.graphs import complement, format_graph
from sepcodes.reductions import (
    REDUCTION_PARAMS,
    TestCoverInstance,
    build_gadget,
    build_reduction,
    check_gadget_lower_bound,
    forward_s_set,
    format_test_cover,
    gadget_lower_bound,
    padded_test_choice,
    parse_test_cover,
    solve_test_cover,
    tiny_instances,
    validate_test_cover,
    verify_reduction_iff,
)
from sepcodes.separation import is_x_code, number


def inst(z, tests, ell):
    return TestCoverInstance.of(z, tests, ell)


def test_validate_examples():
    assert validate_test_cover(inst(3, [{0}, {1}], 2))
    assert not validate_test_cover(inst(2, [{0, 1}], 1))
    assert validate_test_cover(inst(4, [{0, 1}, {0, 2}], 2))


def test_instance_validation_errors():
    with pytest.raises(ValueError):
        TestCoverInstance.of(2, [{0, 5}], 1)
    with pytest.raises(ValueError):
        TestCoverInstance.of(2, [{0}], -1)


def test_solve_test_cover():
    res = solve_test_cover(inst(3, [{0}, {1}, {0, 2}], 3))
    assert res.tau == 2
    res = solve_test_cover(inst(2, [{0}], 1))
    assert res.tau == 1
    with pytest.raises(ValueError):
        solve_test_cover(inst(2, [{0, 1}], 1))


def test_gadget_shapes():
    g, b = build_gadget("I")
    assert (g.n, g.num_edges()) == (6, 5) and b == {2}
    g, b = build_gadget("F")
    assert (g.n, g.num_edges()) == (16, 15) and b == {4}
    assert len(g.adj[3]) == 3 and len(g.adj[4]) == 3  # b4 and b5 carry branches
    g, b = build_gadget("L")
    assert (g.n, g.num_edges()) == (4, 4) and b == {0, 1}
    with pytest.raises(ValueError):
        build_gadget("O")


def test_reduction_sizes_and_k():
    i3 = inst(3, [{0}, {1}], 2)
    art = build_reduction(i3, "I")
    assert art.graph.n == 3 + 2 + 6 * 3 and art.k == 13
    art = build_reduction(i3, "F")
    assert art.graph.n == 3 + 2 + 16 * 3 and art.k == 37
    art = build_reduction(i3, "L")
    assert art.graph.n == 35 and art.k == 13
    assert len(art.regions["M"]) == (i3.budget + 1) * 3
    assert len(art.regions["R"]) == 4 * (i3.budget + 1)


def test_reduction_rejects_degenerate():
    with pytest.raises(ValueError):
        build_reduction(inst(2, [{0}], 0), "I")
    with pytest.raises(ValueError):
        build_reduction(inst(3, [{0, 1}], 1), "I")
    # a single item needs nothing split; zero budget is then fine, except
    # for L, whose forward set exceeds k = 3 at budget 0 on this YES instance
    one = TestCoverInstance.of(1, [], 0)
    assert build_reduction(one, "I").graph.n == 1 + 0 + 6
    with pytest.raises(ValueError, match="budget of at least 1"):
        build_reduction(one, "L")


def test_size_cap_counts_the_graph_before_building_it(monkeypatch):
    # the vertices plus edges that build_reduction checks against the cap,
    # before building, are exactly those of the graph it builds
    for i in list(tiny_instances(3, 3, 2))[::3]:
        for s in ("I", "O", "F", "L"):
            g = build_reduction(i, s).graph
            size = g.n + g.num_edges()
            monkeypatch.setattr(reductions, "GRAPH_SIZE_CAP", size)
            assert build_reduction(i, s).graph == g
            monkeypatch.setattr(reductions, "GRAPH_SIZE_CAP", size - 1)
            with pytest.raises(ValueError, match="over the cap of %d " % (size - 1)):
                build_reduction(i, s)
            monkeypatch.undo()


def test_o_reduction_is_complement_of_i():
    i3 = inst(3, [{0}, {1}], 2)
    a = build_reduction(i3, "I")
    b = build_reduction(i3, "O")
    assert b.graph == complement(a.graph)
    assert b.k == a.k and b.regions == a.regions


def test_locating_twin_structure():
    art = build_reduction(inst(2, [{0}], 1), "L")
    g = art.graph
    for i in range(art.instance.budget + 1):
        for base in (1, 3):
            a = art.labels["r%d_%d" % (i + 1, base)]
            b = art.labels["r%d_%d" % (i + 1, base + 1)]
            assert g.has_edge(a, b)
            assert g.adj[a] | {a} == g.adj[b] | {b}


def test_forward_set_is_separating():
    for s in ("I", "O", "F", "L"):
        i3 = inst(3, [{0}, {1}], 2)
        art = build_reduction(i3, s)
        chosen = padded_test_choice(i3)
        fwd = forward_s_set(art, chosen)
        assert is_x_code(art.graph, s, fwd)
        assert len(fwd) <= art.k


def test_reduction_layout_is_pinned():
    # sha256 over every gadget and every reduction of tiny_instances() plus
    # two one-item instances: graph, k, labels, regions, the forward set of
    # padded_test_choice and the lower-bound region and bound.  A moved
    # vertex or label changes it even where sizes and k stay the same.
    h = hashlib.sha256()
    for s in ("I", "F", "L"):
        g, b = build_gadget(s)
        h.update(repr((s, format_graph(g), sorted(b))).encode())
    degenerate = [inst(1, [], 0), inst(1, [], 1)]
    for i in list(tiny_instances()) + degenerate:
        chosen = padded_test_choice(i)
        for s in ("I", "O", "F", "L"):
            if s == "L" and i.budget == 0:
                continue
            art = build_reduction(i, s)
            region, bound = gadget_lower_bound(art)
            row = (s, format_graph(art.graph), art.k, sorted(art.labels.items()),
                   sorted(art.regions.items()), sorted(forward_s_set(art, chosen)),
                   sorted(region), bound)
            h.update(repr(row).encode())
    assert h.hexdigest() == "fe60707dc08c6a5f0df4a89410a54cfba6f5371866b9fe29eb03ce543fb6b650"


def test_forward_set_size_formula():
    i3 = inst(3, [{0}, {1}], 2)
    assert REDUCTION_PARAMS == {"I": (4, 3), "F": (12, 11)}
    for s, p, q in (("I", 4, 3), ("F", 12, 11)):
        art = build_reduction(i3, s)
        fwd = forward_s_set(art, padded_test_choice(i3))
        assert len(fwd) == len(padded_test_choice(i3)) + p * 2 + q


def test_gadget_lower_bound_on_minimum_sets():
    i2 = inst(2, [{0}], 1)
    for s in ("I", "L"):
        art = build_reduction(i2, s)
        res = number(art.graph, s)
        assert res.feasible
        assert check_gadget_lower_bound(art, res.witness)
        region, bound = gadget_lower_bound(art)
        assert len(res.witness & region) >= bound


def test_gadget_lower_bound_rejects_non_set():
    art = build_reduction(inst(2, [{0}], 1), "I")
    with pytest.raises(ValueError):
        check_gadget_lower_bound(art, frozenset({0}))


def test_iff_examples():
    assert verify_reduction_iff(inst(3, [{0}, {1}], 2), "I")
    # budget 1 cannot split all three pairs; both sides must answer no
    assert verify_reduction_iff(inst(3, [{0}, {1}], 1), "I")
    assert verify_reduction_iff(inst(2, [{0}], 1), "L")
    assert verify_reduction_iff(inst(2, [{0}], 1), "F")
    assert verify_reduction_iff(inst(3, [{0}, {1}], 2), "O")


def test_tiny_instances_family():
    fam = list(tiny_instances())
    assert len(fam) == 244
    assert all(validate_test_cover(i) for i in fam)
    assert all(i.num_items <= 4 and len(i.tests) <= 4 and i.budget <= 2 for i in fam)
    # spot-check a slice of the family end to end
    for i in fam[::40]:
        assert verify_reduction_iff(i, "I")


def test_parse_format_roundtrip():
    i3 = inst(3, [{0, 2}, {1}], 2)
    text = format_test_cover(i3)
    assert parse_test_cover(text) == i3


def test_parse_errors():
    for text, line in (
        ("3 1\n0\n", 1),  # header too short
        ("2 1 1\n0 7\n", 2),  # unknown item
        ("2 1 -1\n0\n", 1),  # negative budget
        ("2 2 1\n0\n1 x\n", 3),  # non-integer item
        ("# items\n2 1 1\n\n0 7\n", 4),  # comment and blank lines still count
        ("2 2 1\n0\n", 2),  # fewer tests than the header promises
    ):
        with pytest.raises(ValueError, match="^line %d: " % line):
            parse_test_cover(text)
