"""Test-Cover instances and the gadget reductions to minimum separation.

The reduction scheme turns a Test-Cover instance (items, tests, budget)
into a graph whose minimum I-, F- or L-separating set size answers the
original question; open separation is handled by complementing the
closed-separation graph.  Everything here is finite and checkable: the
constructions, the per-gadget lower bounds, the explicit YES-side sets,
and the full iff on instances small enough to solve exactly.

Vertex layout order inside an artifact is fixed (base set M, then R, then
the test vertices W, then one gadget block per test in input order, then
the final gadget) so region bookkeeping is testable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graphs import Graph, complement
from .hypergraphs import CoverResult, Hypergraph, covering_number
from .separation import is_s_set, s_number, s_number_at_most

__all__ = [
    "TestCoverInstance",
    "ReductionArtifact",
    "validate_test_cover",
    "solve_test_cover",
    "build_gadget",
    "build_reduction",
    "forward_s_set",
    "padded_test_choice",
    "gadget_lower_bound",
    "check_gadget_lower_bound",
    "tiny_instances",
    "verify_reduction_iff",
    "parse_test_cover",
    "format_test_cover",
    "REDUCTION_PARAMS",
]

# (r, p, q) per separation kind; for L the entries depend on the budget:
# r = budget+1 and q = 2*budget+3.
REDUCTION_PARAMS = {"I": (1, 4, 3), "F": (1, 12, 11), "L": (None, 2, None)}


@dataclass(frozen=True)
class TestCoverInstance:
    """Items 0..num_items-1, tests as frozensets of items, and a budget."""

    __test__ = False  # keep pytest from collecting this as a test class

    num_items: int
    tests: tuple[frozenset[int], ...]
    budget: int

    @staticmethod
    def of(num_items: int, tests, budget: int) -> "TestCoverInstance":
        tests = tuple(frozenset(t) for t in tests)
        for t in tests:
            if any(not (0 <= u < num_items) for u in t):
                raise ValueError("test %s references unknown item" % sorted(t))
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        return TestCoverInstance(num_items, tests, budget)


def validate_test_cover(inst: TestCoverInstance) -> bool:
    """True iff every pair of distinct items is split by some test."""
    for u, v in itertools.combinations(range(inst.num_items), 2):
        if not any((u in t) != (v in t) for t in inst.tests):
            return False
    return True


def _splitting_hypergraph(inst: TestCoverInstance) -> Hypergraph:
    edges = []
    for u, v in itertools.combinations(range(inst.num_items), 2):
        edges.append(frozenset(i for i, t in enumerate(inst.tests) if (u in t) != (v in t)))
    return Hypergraph(len(inst.tests), tuple(edges))


def solve_test_cover(inst: TestCoverInstance) -> CoverResult:
    """Minimum sub-collection of tests that still splits every item pair.

    Reformulated as a cover problem: universe = test indices, one hyperedge
    per item pair listing the tests that split it.
    """
    if not validate_test_cover(inst):
        raise ValueError("not a valid test collection: some item pair is never split")
    return covering_number(_splitting_hypergraph(inst))


# ---------------------------------------------------------------------------
# Gadgets.  Vertex i corresponds to label b_{i+1}.


def build_gadget(s: str) -> tuple[Graph, frozenset[int]]:
    """The fixed per-test gadget (H, B) with its designated attachment
    vertices B, using the local labels b1, b2, ..."""
    if s == "I":
        # path b1-...-b6, attach at b3
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        return g, frozenset({2})
    if s == "F":
        # long path b14-b1-...-b8-b15 with two length-3 branches at b4, b5
        labels = ["b14", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b15",
                  "b9", "b10", "b13", "b11", "b12", "b16"]
        idx = {lab: i for i, lab in enumerate(labels)}
        edge_labels = [
            ("b14", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b5"),
            ("b5", "b6"), ("b6", "b7"), ("b7", "b8"), ("b8", "b15"),
            ("b4", "b9"), ("b9", "b10"), ("b10", "b13"),
            ("b5", "b11"), ("b11", "b12"), ("b12", "b16"),
        ]
        g = Graph.from_edges(16, [(idx[a], idx[b]) for a, b in edge_labels])
        # re-label so vertex i is b_{i+1}
        order = sorted(range(16), key=lambda i: int(labels[i][1:]))
        rank = {old: new for new, old in enumerate(order)}
        g = Graph.from_edges(16, [(rank[u], rank[v]) for u, v in g.edges()])
        return g, frozenset({4})
    if s == "L":
        # triangle b1-b2-b3 with pendant b4 at b3, attach at b1 and b2
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        return g, frozenset({0, 1})
    raise ValueError("no gadget for separation kind %r" % s)


@dataclass(frozen=True)
class ReductionArtifact:
    """Graph produced by the reduction, its target parameter k, and the
    region bookkeeping (vertex labels and named regions)."""

    kind: str
    instance: TestCoverInstance
    graph: Graph
    k: int
    labels: dict = field(default_factory=dict)  # label string -> vertex
    regions: dict = field(default_factory=dict)  # region name -> tuple of vertices

    def gadget_region(self) -> frozenset[int]:
        """V_U plus every per-test gadget block."""
        out = set(self.regions["gadget:U"])
        for i in range(len(self.instance.tests)):
            out.update(self.regions["gadget:T%d" % i])
        return frozenset(out)


def _check_instance(inst: TestCoverInstance):
    if not validate_test_cover(inst):
        raise ValueError("invalid Test-Cover instance: some item pair is never split")
    if inst.num_items > 1 and (not inst.tests or inst.budget == 0):
        raise ValueError("instances with no tests or zero budget are rejected")


def build_reduction(inst: TestCoverInstance, s: str) -> ReductionArtifact:
    """Construct the graph G_s and target k for the given instance.

    For s = O the closed-separation graph is built and complemented; the
    region map and k carry over unchanged.
    """
    _check_instance(inst)
    if s == "O":
        art = build_reduction(inst, "I")
        return ReductionArtifact("O", inst, complement(art.graph), art.k,
                                 art.labels, art.regions)
    if s in ("I", "F"):
        return _build_clique_based(inst, s)
    if s == "L":
        if inst.budget == 0:
            raise ValueError("the L reduction needs a budget of at least 1 "
                             "(at budget 0 its forward set exceeds k)")
        return _build_locating(inst)
    raise ValueError("no reduction for separation kind %r" % s)


def _place_gadget(s: str, edges, labels, start: int, tag: str) -> tuple[int, list[int]]:
    gadget, _ = build_gadget(s)
    block = list(range(start, start + gadget.n))
    for u, v in gadget.edges():
        edges.append((start + u, start + v))
    for j in range(gadget.n):
        labels["b%d(%s)" % (j + 1, tag)] = start + j
    return start + gadget.n, block


def _build_clique_based(inst: TestCoverInstance, s: str) -> ReductionArtifact:
    z, tests = inst.num_items, inst.tests
    _, p, q = REDUCTION_PARAMS[s]
    attach = 2 if s == "I" else 4  # local index of b3 resp. b5
    labels = {}
    edges = []
    m_block = list(range(z))
    for u in range(z):
        labels["v(u%d)" % u] = u
    edges += list(itertools.combinations(m_block, 2))  # base set is a clique
    w_block = list(range(z, z + len(tests)))
    for i, t in enumerate(tests):
        labels["w(T%d)" % i] = w_block[i]
        for u in sorted(t):
            edges.append((u, w_block[i]))
    nxt = z + len(tests)
    regions = {"M": tuple(m_block), "R": (), "W": tuple(w_block)}
    for i in range(len(tests)):
        nxt, block = _place_gadget(s, edges, labels, nxt, "T%d" % i)
        edges.append((w_block[i], block[attach]))
        regions["gadget:T%d" % i] = tuple(block)
    nxt, block = _place_gadget(s, edges, labels, nxt, "U")
    for u in m_block:
        edges.append((u, block[attach]))
    regions["gadget:U"] = tuple(block)
    k = inst.budget + p * len(tests) + q
    graph = Graph.from_edges(nxt, edges)
    return ReductionArtifact(s, inst, graph, k, labels, regions)


def _build_locating(inst: TestCoverInstance) -> ReductionArtifact:
    z, tests, ell = inst.num_items, inst.tests, inst.budget
    r = ell + 1
    labels = {}
    edges = []
    # M: r copies of each item, laid out copy-major; independent set
    m_block = []
    for i in range(r):
        for u in range(z):
            v = i * z + u
            labels["v%d(u%d)" % (i + 1, u)] = v
            m_block.append(v)
    nxt = r * z
    # R: two closed-twin pairs per copy, each joined to that copy's row
    r_block = []
    for i in range(r):
        row = [i * z + u for u in range(z)]
        for pair in (1, 3):
            a, b = nxt, nxt + 1
            labels["r%d_%d" % (i + 1, pair)] = a
            labels["r%d_%d" % (i + 1, pair + 1)] = b
            edges.append((a, b))
            for v in row:
                edges.append((v, a))
                edges.append((v, b))
            r_block += [a, b]
            nxt += 2
    # W: test vertices joined to every copy of their items
    w_block = []
    for i, t in enumerate(tests):
        w = nxt
        labels["w(T%d)" % i] = w
        for copy in range(r):
            for u in sorted(t):
                edges.append((copy * z + u, w))
        w_block.append(w)
        nxt += 1
    regions = {"M": tuple(m_block), "R": tuple(r_block), "W": tuple(w_block)}
    for i in range(len(tests)):
        nxt, block = _place_gadget("L", edges, labels, nxt, "T%d" % i)
        edges.append((w_block[i], block[0]))
        edges.append((w_block[i], block[1]))
        regions["gadget:T%d" % i] = tuple(block)
    nxt, block = _place_gadget("L", edges, labels, nxt, "U")
    for v in m_block:
        edges.append((v, block[0]))
        edges.append((v, block[1]))
    regions["gadget:U"] = tuple(block)
    k = 3 * ell + 2 * len(tests) + 3
    graph = Graph.from_edges(nxt, edges)
    return ReductionArtifact("L", inst, graph, k, labels, regions)


# ---------------------------------------------------------------------------
# YES-side witness construction (polynomial, works at any scale).


def forward_s_set(art: ReductionArtifact, chosen_tests) -> frozenset[int]:
    """The explicit separating set built from a sub-collection of tests.

    chosen_tests is an iterable of test indices forming a test collection.
    The result has size at most |chosen| + p*|tests| + q (with equality when
    the budget does not exceed the number of tests) and is an S-set of the
    artifact's graph whenever the sub-collection splits every item pair.

    For I and O: w of every chosen test, the four middle path vertices of
    every per-test gadget, and three consecutive interior vertices of the
    base gadget.  The base picks start at b3 when every item lies in some
    chosen test; otherwise they start at b2, since the one test-free item
    would share its trace {b3(U)} with b2(U).

    For L: one vertex of each closed-twin pair of R, w of every chosen
    test, b1 and b3 of every gadget, except that b3 is dropped in the
    gadget of one chosen test (its pendant is then the single vertex with
    an empty trace, which locating tolerates).

    For F: w of every chosen test, b1..b12 of every per-test gadget and
    b1..b12 except b8 of the base gadget.
    """
    labels = art.labels
    chosen = sorted(set(chosen_tests))
    tests = range(len(art.instance.tests))
    a = {labels["w(T%d)" % i] for i in chosen}
    if art.kind in ("I", "O"):
        for i in tests:
            a.update(labels["b%d(T%d)" % (j, i)] for j in (2, 3, 4, 5))
        covered = set()
        for i in chosen:
            covered |= art.instance.tests[i]
        base = (3, 4, 5) if len(covered) == art.instance.num_items else (2, 3, 4)
        a.update(labels["b%d(U)" % j] for j in base)
    elif art.kind == "F":
        for i in tests:
            a.update(labels["b%d(T%d)" % (j, i)] for j in range(1, 13))
        a.update(labels["b%d(U)" % j] for j in range(1, 13) if j != 8)
    elif art.kind == "L":
        a.add(labels["b1(U)"])
        a.add(labels["b3(U)"])
        for i in range(art.instance.budget + 1):
            a.add(labels["r%d_1" % (i + 1)])
            a.add(labels["r%d_3" % (i + 1)])
        for i in tests:
            a.add(labels["b1(T%d)" % i])
            if not (chosen and i == chosen[0]):
                a.add(labels["b3(T%d)" % i])
    else:
        raise ValueError("no forward construction for kind %r" % art.kind)
    return frozenset(a)


def padded_test_choice(inst: TestCoverInstance) -> tuple[int, ...]:
    """A minimum splitting sub-collection, padded with lowest-index unused
    tests up to min(budget, number of tests).  Padding keeps the forward
    set at the size the target parameter k accounts for."""
    res = solve_test_cover(inst)
    chosen = sorted(res.witness)
    target = min(inst.budget, len(inst.tests))
    for i in range(len(inst.tests)):
        if len(chosen) >= target:
            break
        if i not in chosen:
            chosen.append(i)
    return tuple(sorted(chosen))


def tiny_instances(max_items: int = 4, max_tests: int = 4, max_budget: int = 2):
    """Every valid instance with at most the given items, tests and budget,
    deduplicated under relabeling of the items.

    The canonical form of a test collection is the lexicographically
    smallest sorted tuple of sorted tests over all item permutations.
    """

    def canonical(z, tests):
        best = None
        for perm in itertools.permutations(range(z)):
            mapped = tuple(sorted(tuple(sorted(perm[u] for u in t)) for t in tests))
            if best is None or mapped < best:
                best = mapped
        return best

    seen = set()
    for z in range(1, max_items + 1):
        subsets = [
            frozenset(c)
            for r in range(1, z + 1)
            for c in itertools.combinations(range(z), r)
        ]
        for y in range(1, max_tests + 1):
            for tests in itertools.combinations(subsets, y):
                inst = TestCoverInstance.of(z, tests, 1)
                if not validate_test_cover(inst):
                    continue
                key = (z, canonical(z, tests))
                if key in seen:
                    continue
                seen.add(key)
                for ell in range(1, max_budget + 1):
                    yield TestCoverInstance.of(z, tests, ell)


# ---------------------------------------------------------------------------
# Lower-bound lemmas and the finite iff check.


def gadget_lower_bound(art: ReductionArtifact) -> tuple[frozenset[int], int]:
    """(region, bound): any S-set must contain at least `bound` vertices of
    `region`."""
    y = len(art.instance.tests)
    ell = art.instance.budget
    if art.kind in ("I", "O"):
        return art.gadget_region(), 4 * y + 3
    if art.kind == "F":
        return art.gadget_region(), 12 * y + 11
    if art.kind == "L":
        return art.gadget_region() | frozenset(art.regions["R"]), 2 * y + 2 * ell + 3
    raise ValueError("no lower-bound lemma for kind %r" % art.kind)


def check_gadget_lower_bound(art: ReductionArtifact, a: frozenset[int]) -> bool:
    """True iff the S-set a meets the per-gadget region bound."""
    if not is_s_set(art.graph, art.kind, frozenset(a)):
        raise ValueError("input is not an %s-set of the reduction graph" % art.kind)
    region, bound = gadget_lower_bound(art)
    return len(frozenset(a) & region) >= bound


def verify_reduction_iff(inst: TestCoverInstance, s: str, guard: int | None = None) -> bool:
    """Exactly solve both sides and report whether the answers agree.

    The Test-Cover side asks for a splitting sub-collection within budget;
    the graph side asks for an S-set of size at most k.  A guard (max graph
    size) can refuse instances too large for exact solving.
    """
    art = build_reduction(inst, s)
    if guard is not None and art.graph.n > guard:
        raise ValueError(
            "reduction graph has %d vertices, over the exact-solve guard %d"
            % (art.graph.n, guard)
        )
    tc = solve_test_cover(inst)
    lhs = tc.feasible and tc.tau <= inst.budget
    rhs = s_number_at_most(art.graph, s, art.k)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Text format: line 1 "num_items num_tests budget", then one line of item
# ids per test.


def parse_test_cover(text: str) -> TestCoverInstance:
    """Header 'num_items num_tests budget', then one line of items per test;
    '#' starts a comment.  Errors carry the 1-based line number."""
    lines = text.splitlines()
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#")[0].split()
        if not parts:
            continue
        try:
            rows.append((lineno, [int(x) for x in parts]))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc))
    if not rows:
        raise ValueError("empty test-cover file")
    (head_line, head), tests = rows[0], rows[1:]
    if len(head) != 3 or head[2] < 0:
        raise ValueError("line %d: expected header 'num_items num_tests budget', "
                         "budget >= 0" % head_line)
    z, y, ell = head
    for lineno, items in tests:
        if any(not 0 <= u < z for u in items):
            raise ValueError("line %d: test %s references unknown item" % (lineno, items))
    if len(tests) != y:
        raise ValueError("line %d: header promises %d tests, found %d" % (len(lines), y, len(tests)))
    return TestCoverInstance.of(z, [items for _, items in tests], ell)


def format_test_cover(inst: TestCoverInstance) -> str:
    lines = ["%d %d %d" % (inst.num_items, len(inst.tests), inst.budget)]
    lines += [" ".join(map(str, sorted(t))) for t in inst.tests]
    return "\n".join(lines) + "\n"
