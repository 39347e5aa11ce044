"""Code hypergraphs, their covering numbers, and definition-based oracles.

Every kind (a separation property L, O, I or F, a domination property D or
TD, or a code combining one of each) is handled by one path.  Separation
gives one hyperedge per vertex pair: the symmetric difference of the open
or the closed neighborhoods of the two vertices.  Which of the two is used
depends only on the property and on whether the pair is adjacent (the
recipe table below); domination adds the closed or open neighborhood of
every vertex.  Two deliberately redundant routes are exposed: `is_x_code`
works from the neighborhood definitions, while `number` computes the
covering number of the code hypergraph.  Their agreement, checked by
`x_number_bruteforce`, is the executable form of the hypergraph
characterization.  `code_hypergraph` builds the edges as bitmasks, XORs
of neighborhood masks, and `number` hands them to the solver as they are.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, closed_neighborhood, open_neighborhood
from .hypergraphs import CoverResult, Hypergraph, covering_number
from .kinds import split_code_kind

__all__ = [
    "code_hypergraph",
    "is_x_code",
    "number",
    "x_number_bruteforce",
    "BRUTEFORCE_GRAPH_GUARD",
]

BRUTEFORCE_GRAPH_GUARD = 16


# Neighborhood type per separation kind: (adjacent pairs, non-adjacent pairs).
_SEP_RECIPE = {
    "L": ("open", "closed"),
    "O": ("open", "open"),
    "I": ("closed", "closed"),
    "F": ("closed", "open"),
}


def code_hypergraph(g: Graph, kind: str) -> Hypergraph:
    """Raw hypergraph whose covers are the sets of the given kind, built
    from the open and closed neighborhood masks of every vertex: `^` of two
    masks is the symmetric difference of the neighborhoods.

    The separation part gives one hyperedge per vertex pair, the symmetric
    difference of the neighborhoods its recipe names: first the adjacent
    pairs, then the non-adjacent ones, each in lexicographic pair order.
    The domination part then adds the closed (D) or open (TD) neighborhood
    of every vertex, in vertex order.
    """
    sep, dom = split_code_kind(kind)
    opn = [sum(1 << u for u in a) for a in g.adj]
    nbhd = {"open": opn, "closed": [m | 1 << v for v, m in enumerate(opn)]}
    edges = []
    if sep is not None:
        adj_nb, non_nb = (nbhd[t] for t in _SEP_RECIPE[sep])
        non = []
        for u, v in itertools.combinations(range(g.n), 2):
            if v in g.adj[u]:
                edges.append(adj_nb[u] ^ adj_nb[v])
            else:
                non.append(non_nb[u] ^ non_nb[v])
        edges += non
    if dom is not None:
        edges += nbhd["closed" if dom == "D" else "open"]
    return Hypergraph(g.n, tuple(edges))


def _separates(g: Graph, s: str, c: frozenset[int]) -> bool:
    """Whether c is s-separating, by the definition (not via hypergraphs).

    Intersections are compared by value; the empty set counts as a value, so
    two vertices both meeting c in the empty set violate separation.
    """
    if s in ("O", "F"):
        traces = [open_neighborhood(g, v) & c for v in range(g.n)]
        if len(set(traces)) != g.n:
            return False
        if s == "O":
            return True
    if s in ("I", "F"):
        traces = [closed_neighborhood(g, v) & c for v in range(g.n)]
        return len(set(traces)) == g.n
    # L: uniqueness only over vertices outside c
    outside = [v for v in range(g.n) if v not in c]
    traces = [open_neighborhood(g, v) & c for v in outside]
    return len(set(traces)) == len(outside)


def _dominates(g: Graph, dom: str, c: frozenset[int]) -> bool:
    if dom == "D":
        return all(closed_neighborhood(g, v) & c for v in range(g.n))
    return all(open_neighborhood(g, v) & c for v in range(g.n))


def is_x_code(g: Graph, kind: str, c: frozenset[int]) -> bool:
    """Definition check: domination condition plus separation condition.

    Accepts every kind, bare separation and bare domination included."""
    sep, dom = split_code_kind(kind)
    c = frozenset(c)
    if dom is not None and not _dominates(g, dom, c):
        return False
    if sep is not None and not _separates(g, sep, c):
        return False
    return True


def number(g: Graph, kind: str) -> CoverResult:
    """Minimum set of any kind (separation, domination or code)."""
    return covering_number(code_hypergraph(g, kind))


def _bruteforce_min(g: Graph, accept) -> CoverResult:
    if g.n > BRUTEFORCE_GRAPH_GUARD:
        raise ValueError(
            "graph size %d over brute-force guard %d" % (g.n, BRUTEFORCE_GRAPH_GUARD)
        )
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            c = frozenset(combo)
            if accept(c):
                return CoverResult(True, size, c)
    return CoverResult(False, None, None)


def x_number_bruteforce(g: Graph, kind: str) -> CoverResult:
    """Independent oracle for every kind: size-then-lex subset enumeration
    against the neighborhood definitions.  Agreement with `number`, witness
    included, is the executable proof of the hypergraph characterization."""
    return _bruteforce_min(g, lambda c: is_x_code(g, kind, c))
