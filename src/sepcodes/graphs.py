"""Simple undirected graphs, neighborhoods, twins and named families.

Vertices are the integers 0..n-1.  Vertex sets in the public API are plain
frozensets (neighborhoods, covers, codes, witnesses).  Hyperedges are int
bitmasks (bit v = vertex v), from `code_hypergraph` to the search;
`Hypergraph.sets` gives them as frozensets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .kinds import ALL_KINDS, split_code_kind

__all__ = [
    "Graph",
    "GraphParseError",
    "AdmissibilityReport",
    "open_neighborhood",
    "closed_neighborhood",
    "complement",
    "detect_twins",
    "make_family",
    "parse_graph",
    "format_graph",
    "FAMILY_NAMES",
]


class GraphParseError(ValueError):
    """Raised on malformed graph text, with a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    adj[v] is the open neighborhood N(v).  No self-loops; adjacency is
    symmetric by construction.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d,%d) out of range for n=%d" % (u, v, n))
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(n, tuple(frozenset(s) for s in nbrs))

    def edges(self):
        """Sorted list of edges (u, v) with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def _check_vertex(g: Graph, v: int):
    if not (0 <= v < g.n):
        raise ValueError("vertex %d out of range for n=%d" % (v, g.n))


def open_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """N(v): the neighbors of v."""
    _check_vertex(g, v)
    return g.adj[v]


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    """N[v] = N(v) union {v}."""
    _check_vertex(g, v)
    return g.adj[v] | {v}


def complement(g: Graph) -> Graph:
    """Complement graph: u~v iff u != v and not u~v in g."""
    full = frozenset(range(g.n))
    return Graph(g.n, tuple((full - g.adj[v]) - {v} for v in range(g.n)))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Complete twin/isolated-vertex structure and per-kind feasibility.

    All twin pairs are listed (not just one witness): the reduction
    verifier needs the full twin structure.
    """

    isolated: tuple[int, ...]
    open_twins: tuple[tuple[int, int], ...]
    closed_twins: tuple[tuple[int, int], ...]
    admissible: dict = field(default_factory=dict)

    @property
    def twin_free(self) -> bool:
        return not self.open_twins and not self.closed_twins


def detect_twins(g: Graph) -> AdmissibilityReport:
    """Exhaustive O(n^2) twin detection plus per-kind admissibility verdicts.

    Open twins: non-adjacent u,v with N(u) = N(v).  Closed twins: adjacent
    u,v with N[u] = N[v].  Deliberately brute force over all pairs so it can
    serve as an oracle.
    """
    isolated = tuple(v for v in range(g.n) if not g.adj[v])
    open_tw = []
    closed_tw = []
    for u, v in itertools.combinations(range(g.n), 2):
        if v in g.adj[u]:
            if g.adj[u] | {u} == g.adj[v] | {v}:
                closed_tw.append((u, v))
        else:
            if g.adj[u] == g.adj[v]:
                open_tw.append((u, v))
    # verdicts per part of a kind; None stands for an absent part
    sep_ok = {None: True, "L": True, "O": not open_tw, "I": not closed_tw,
              "F": not open_tw and not closed_tw}
    dom_ok = {None: True, "D": True, "TD": not isolated}
    verdicts = {}
    for kind in ALL_KINDS:
        s, d = split_code_kind(kind)
        verdicts[kind] = sep_ok[s] and dom_ok[d]
    return AdmissibilityReport(isolated, tuple(open_tw), tuple(closed_tw), verdicts)


# ---------------------------------------------------------------------------
# Named families.  Labelings are canonical so golden tests are byte-stable:
#   path/cycle: vertices in order along the path/cycle
#   clique/empty: all of 0..n-1
#   star: center 0, leaves 1..k
#   thin_spider(k): 0..k-1 clique Q, k..2k-1 stable set S, matching (i, k+i)
#   thick_spider(k): complement of thin_spider(k)

FAMILY_NAMES = ("path", "cycle", "clique", "star", "empty", "thin_spider", "thick_spider")


# Vertices plus edges of the largest graph make_family or build_reduction
# builds, or parse_graph accepts.
GRAPH_SIZE_CAP = 10**6


def make_family(name: str, size: int) -> Graph:
    k = max(size, 0)  # a size below a family's minimum is refused below
    n, m = {
        "path": (k, k - 1),
        "cycle": (k, k),
        "clique": (k, k * (k - 1) // 2),
        "star": (k + 1, k),
        "empty": (k, 0),
        "thin_spider": (2 * k, k * (k + 1) // 2),
        "thick_spider": (2 * k, 3 * k * (k - 1) // 2),
    }.get(name, (0, 0))
    if n + m > GRAPH_SIZE_CAP:
        raise ValueError("%s of size %d would have %d vertices and %d edges, over the cap "
                         "of %d vertices plus edges" % (name, size, n, m, GRAPH_SIZE_CAP))
    if name == "path":
        if size < 1:
            raise ValueError("path needs size >= 1")
        return Graph.from_edges(size, [(i, i + 1) for i in range(size - 1)])
    if name == "cycle":
        if size < 3:
            raise ValueError("cycle needs size >= 3")
        return Graph.from_edges(size, [(i, (i + 1) % size) for i in range(size)])
    if name == "clique":
        if size < 1:
            raise ValueError("clique needs size >= 1")
        return Graph.from_edges(size, itertools.combinations(range(size), 2))
    if name == "star":
        # K_{1,size}: center plus `size` leaves
        if size < 1:
            raise ValueError("star needs size >= 1")
        return Graph.from_edges(size + 1, [(0, i) for i in range(1, size + 1)])
    if name == "empty":
        if size < 1:
            raise ValueError("empty needs size >= 1")
        return Graph.from_edges(size, [])
    if name == "thin_spider":
        if size < 2:
            raise ValueError("thin_spider needs size >= 2")
        k = size
        edges = list(itertools.combinations(range(k), 2))
        edges += [(i, k + i) for i in range(k)]
        return Graph.from_edges(2 * k, edges)
    if name == "thick_spider":
        if size < 2:
            raise ValueError("thick_spider needs size >= 2")
        return complement(make_family("thin_spider", size))
    raise ValueError("unknown family %r" % name)


# ---------------------------------------------------------------------------
# Text format: line 1 "n m", then m lines "u v" with 0 <= u < v < n.
# '#' starts a comment line, blank lines are ignored.


def parse_graph(text: str) -> Graph:
    lines = text.splitlines()
    header = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphParseError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("non-integer header", lineno)
            if n < 1 or m < 0:
                raise GraphParseError("need n >= 1 and m >= 0", lineno)
            if n + m > GRAPH_SIZE_CAP:
                raise GraphParseError("header gives %d vertices and %d edges, over the cap of "
                                      "%d vertices plus edges" % (n, m, GRAPH_SIZE_CAP), lineno)
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphParseError("expected edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer edge", lineno)
        n = header[0]
        if u == v:
            raise GraphParseError("self-loop %d %d" % (u, v), lineno)
        if not (0 <= u < v < n):
            raise GraphParseError("edge %d %d violates 0 <= u < v < n" % (u, v), lineno)
        if (u, v) in seen:
            raise GraphParseError("duplicate edge %d %d" % (u, v), lineno)
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise GraphParseError("empty graph file")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(
            "header promises %d edges, found %d" % (m, len(edges)), max(1, len(lines))
        )
    return Graph.from_edges(n, edges)


def format_graph(g: Graph) -> str:
    lines = ["%d %d" % (g.n, g.num_edges())]
    lines += ["%d %d" % e for e in g.edges()]
    return "\n".join(lines) + "\n"
