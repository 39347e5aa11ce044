"""Test-Cover instances and the gadget reductions to minimum separation.

The reduction scheme turns a Test-Cover instance (items, tests, budget)
into a graph whose minimum I-, F- or L-separating set size answers the
original question; open separation is handled by complementing the
closed-separation graph.  Everything here is finite and checkable: the
constructions, the per-gadget lower bounds, the explicit YES-side sets,
and the full iff on instances small enough to solve exactly.

Each reduction places one fixed gadget per test and one base gadget U.
The gadgets are rows of the table `_GADGETS`: edges, attachment labels
and the forward set's picks.  For I and F the lower-bound counts (p, q)
follow from those picks; L has its own formulas for k and the bound.

Vertex layout order inside an artifact is fixed (base set M, then R, then
the test vertices W, then one gadget block per test in input order, then
the final gadget) so region bookkeeping is testable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graphs import GRAPH_SIZE_CAP, Graph, complement
from .hypergraphs import CoverResult, Hypergraph, covering_number, covering_number_at_most
from .separation import code_hypergraph, is_x_code

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

# The fixed gadget of each reduction, in its own labels b1..bn (n is the
# largest label).  A row gives the gadget's edges as label paths, its
# attachment labels B (joined to the test vertex of a per-test gadget, and
# to every vertex of M in the base gadget U), and the labels the forward
# set takes in every per-test gadget and in U.
_GADGETS = {
    # path b1-...-b6, attached at b3
    "I": ([(1, 2, 3, 4, 5, 6)], (3,), (2, 3, 4, 5), (3, 4, 5)),
    # path b14-b1-...-b8-b15 with length-3 branches at b4 and b5, attached at b5
    "F": ([(14, 1, 2, 3, 4, 5, 6, 7, 8, 15), (4, 9, 10, 13), (5, 11, 12, 16)], (5,),
          tuple(range(1, 13)), tuple(j for j in range(1, 13) if j != 8)),
    # triangle b1-b2-b3 with pendant b4 at b3, attached at b1 and b2
    "L": ([(1, 2, 3, 1), (3, 4)], (1, 2), (1, 3), (1, 3)),
}

# (p, q) of the I and F reductions: every S-set takes at least p vertices
# of each per-test gadget and q of U, as many as the forward set takes.
REDUCTION_PARAMS = {s: (len(_GADGETS[s][2]), len(_GADGETS[s][3])) for s in ("I", "F")}


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
        edges.append(sum(1 << i for i, t in enumerate(inst.tests) if (u in t) != (v in t)))
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
    """The fixed per-test gadget (H, B) of the I, F or L reduction, with
    its attachment vertices B, as the `_GADGETS` row lists it."""
    if s not in _GADGETS:
        raise ValueError("no gadget for separation kind %r" % s)
    paths, attach = _GADGETS[s][:2]
    edges = [(a - 1, b - 1) for path in paths for a, b in zip(path, path[1:])]
    return Graph.from_edges(max(map(max, paths)), edges), frozenset(b - 1 for b in attach)


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

    The regions M, R and W come first, numbered from 0; then one copy of
    the gadget per test, attached to that test's vertex, and the base
    gadget U, attached to every vertex of M.  For s = O the
    closed-separation graph is built and complemented; the region map and
    k carry over unchanged.
    """
    _check_instance(inst)
    if s not in ("I", "O", "F", "L"):
        raise ValueError("no reduction for separation kind %r" % s)
    if s == "L" and inst.budget == 0:
        raise ValueError("the L reduction needs a budget of at least 1 "
                         "(at budget 0 its forward set exceeds k)")
    n, m = _reduction_size(inst, s)
    if n + m > GRAPH_SIZE_CAP:
        raise ValueError("the %s reduction would have %d vertices and %d edges, over the cap "
                         "of %d vertices plus edges" % (s, n, m, GRAPH_SIZE_CAP))
    if s == "O":
        art = build_reduction(inst, "I")
        return ReductionArtifact("O", inst, complement(art.graph), art.k,
                                 art.labels, art.regions)
    if s == "L":
        edges, labels, regions, k = _locating_regions(inst)
    else:
        edges, labels, regions, k = _clique_regions(inst, s)
    gadget = build_gadget(s)
    nxt = len(labels)  # every vertex of M, R and W has one label
    for i, w in enumerate(regions["W"]):
        nxt = _place_gadget(gadget, edges, labels, regions, nxt, "T%d" % i, [w])
    nxt = _place_gadget(gadget, edges, labels, regions, nxt, "U", regions["M"])
    return ReductionArtifact(s, inst, Graph.from_edges(nxt, edges), k, labels, regions)


def _reduction_size(inst: TestCoverInstance, s: str) -> tuple[int, int]:
    """Vertices and edges of the graph `build_reduction` gives for kind s,
    counted from the instance and the `_GADGETS` row without building it.

    I and F: the items M (a clique), one vertex per test joined to its
    items, and y + 1 gadget blocks, U's joined to all of M.  L: r = budget
    + 1 copies of M, each with two joined closed-twin pairs, the test
    vertices joined to every copy, and U joined to all r copies.  O: the
    complement of the I graph."""
    paths, attach = _GADGETS["I" if s == "O" else s][:2]
    gn, gm = max(map(max, paths)), sum(len(p) - 1 for p in paths)
    z, y = inst.num_items, len(inst.tests)
    joins = sum(len(t) for t in inst.tests)  # item-test edges of one copy of M
    r = inst.budget + 1 if s == "L" else 1
    n = r * z + y + (y + 1) * gn
    m = r * joins + (y + 1) * gm + (y + r * z) * len(attach)
    if s == "L":
        n, m = n + 4 * r, m + r * (4 * z + 2)
    else:
        m += z * (z - 1) // 2
    if s == "O":
        m = n * (n - 1) // 2 - m
    return n, m


def _place_gadget(gadget, edges, labels, regions, start: int, tag: str, anchors) -> int:
    """Lay out one block of the gadget (H, B) from `start`, label it
    b<j>(<tag>), record it as region gadget:<tag> and join each anchor to
    the block's B.  Returns the first vertex after the block."""
    h, attach = gadget
    edges += [(start + u, start + v) for u, v in h.edges()]
    edges += [(a, start + b) for a in anchors for b in attach]
    for j in range(h.n):
        labels["b%d(%s)" % (j + 1, tag)] = start + j
    regions["gadget:" + tag] = tuple(range(start, start + h.n))
    return start + h.n


def _clique_regions(inst: TestCoverInstance, s: str):
    """M: the items as a clique; R: empty; W: one vertex per test, joined
    to its items.  k = budget + p*|tests| + q."""
    z, tests = inst.num_items, inst.tests
    p, q = REDUCTION_PARAMS[s]
    labels = {"v(u%d)" % u: u for u in range(z)}
    labels.update(("w(T%d)" % i, z + i) for i in range(len(tests)))
    edges = list(itertools.combinations(range(z), 2))
    edges += [(u, z + i) for i, t in enumerate(tests) for u in sorted(t)]
    regions = {"M": tuple(range(z)), "R": (), "W": tuple(range(z, z + len(tests)))}
    return edges, labels, regions, inst.budget + p * len(tests) + q


def _locating_regions(inst: TestCoverInstance):
    """M: r = budget+1 copies of the items, copy-major, independent; R:
    two closed-twin pairs per copy, each joined to that copy's row; W: one
    vertex per test, joined to every copy of its items.
    k = 3*budget + 2*|tests| + 3."""
    z, tests, ell = inst.num_items, inst.tests, inst.budget
    r = ell + 1
    labels = {"v%d(u%d)" % (i + 1, u): i * z + u for i in range(r) for u in range(z)}
    edges = []
    nxt = r * z
    for i in range(r):
        for pair in (1, 3):
            a, b = nxt, nxt + 1
            labels["r%d_%d" % (i + 1, pair)] = a
            labels["r%d_%d" % (i + 1, pair + 1)] = b
            edges.append((a, b))
            edges += [(i * z + u, x) for u in range(z) for x in (a, b)]
            nxt += 2
    for i, t in enumerate(tests):
        labels["w(T%d)" % i] = nxt + i
        edges += [(c * z + u, nxt + i) for c in range(r) for u in sorted(t)]
    regions = {"M": tuple(range(r * z)), "R": tuple(range(r * z, nxt)),
               "W": tuple(range(nxt, nxt + len(tests)))}
    return edges, labels, regions, 3 * ell + 2 * len(tests) + 3


# ---------------------------------------------------------------------------
# YES-side witness construction (polynomial, works at any scale).


def forward_s_set(art: ReductionArtifact, chosen_tests) -> frozenset[int]:
    """The explicit separating set built from a sub-collection of tests.

    chosen_tests is an iterable of test indices forming a test collection.
    The result has size at most |chosen| + p*|tests| + q (with equality when
    the budget does not exceed the number of tests) and is an S-set of the
    artifact's graph whenever the sub-collection splits every item pair.

    It holds w of every chosen test and the picks `_GADGETS` lists for
    every per-test gadget and for U, with two adjustments:

    - I and O: the base picks start at b3 when every item lies in some
      chosen test; otherwise they start at b2, since the one test-free item
      would share its trace {b3(U)} with b2(U).
    - L: one vertex of each closed-twin pair of R joins, and b3 is dropped
      in the gadget of one chosen test (its pendant is then the single
      vertex with an empty trace, which locating tolerates).
    """
    kind = "I" if art.kind == "O" else art.kind
    if kind not in _GADGETS:
        raise ValueError("no forward construction for kind %r" % art.kind)
    _, _, picks, base = _GADGETS[kind]
    labels, inst = art.labels, art.instance
    chosen = sorted(set(chosen_tests))
    a = {labels["w(T%d)" % i] for i in chosen}
    for i in range(len(inst.tests)):
        a.update(labels["b%d(T%d)" % (j, i)] for j in picks)
    if kind == "I" and len(set().union(*(inst.tests[i] for i in chosen))) < inst.num_items:
        base = tuple(j - 1 for j in base)
    a.update(labels["b%d(U)" % j] for j in base)
    if kind == "L":
        for i in range(inst.budget + 1):
            a.add(labels["r%d_1" % (i + 1)])
            a.add(labels["r%d_3" % (i + 1)])
        if chosen:
            a.discard(labels["b3(T%d)" % chosen[0]])
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

    The first valid test collection of each orbit is kept, and its images
    under every item permutation are marked as seen.  Orbits never cross
    item counts, so the marks are reset for each.
    """

    def image(tests, perm):  # bit b is set iff some relabeled test has items b
        return sum(1 << sum(1 << perm[u] for u in t) for t in tests)

    for z in range(1, max_items + 1):
        perms = list(itertools.permutations(range(z)))  # the identity first
        subsets = [
            frozenset(c)
            for r in range(1, z + 1)
            for c in itertools.combinations(range(z), r)
        ]
        seen = set()
        for y in range(1, max_tests + 1):
            for tests in itertools.combinations(subsets, y):
                if image(tests, perms[0]) in seen:
                    continue
                inst = TestCoverInstance.of(z, tests, 1)
                if not validate_test_cover(inst):
                    continue
                seen.update(image(tests, p) for p in perms)
                for ell in range(1, max_budget + 1):
                    yield TestCoverInstance.of(z, tests, ell)


# ---------------------------------------------------------------------------
# Lower-bound lemmas and the finite iff check.


def gadget_lower_bound(art: ReductionArtifact) -> tuple[frozenset[int], int]:
    """(region, bound): any S-set must contain at least `bound` vertices of
    `region`.  For I, O and F the region is the gadgets and the bound is
    p*|tests| + q; for L, R joins the region and the bound is
    2*|tests| + 2*budget + 3."""
    y = len(art.instance.tests)
    if art.kind == "L":
        return (art.gadget_region() | frozenset(art.regions["R"]),
                2 * y + 2 * art.instance.budget + 3)
    kind = "I" if art.kind == "O" else art.kind
    if kind not in REDUCTION_PARAMS:
        raise ValueError("no lower-bound lemma for kind %r" % art.kind)
    p, q = REDUCTION_PARAMS[kind]
    return art.gadget_region(), p * y + q


def check_gadget_lower_bound(art: ReductionArtifact, a: frozenset[int]) -> bool:
    """True iff the S-set a meets the per-gadget region bound."""
    if not is_x_code(art.graph, art.kind, a):
        raise ValueError("input is not an %s-set of the reduction graph" % art.kind)
    region, bound = gadget_lower_bound(art)
    return len(frozenset(a) & region) >= bound


def verify_reduction_iff(inst: TestCoverInstance, s: str) -> bool:
    """Exactly solve both sides and report whether the answers agree.

    The Test-Cover side asks for a splitting sub-collection within budget;
    the graph side asks for an S-set of size at most k.
    """
    art = build_reduction(inst, s)
    tc = solve_test_cover(inst)
    lhs = tc.feasible and tc.tau <= inst.budget
    rhs = covering_number_at_most(code_hypergraph(art.graph, s), art.k)
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
