"""Separation and code hypergraphs, their covering numbers, and oracles.

Each separation property gives one hyperedge per vertex pair: the symmetric
difference of the open or the closed neighborhoods of the two vertices.
Which of the two is used depends only on the property and on whether the
pair is adjacent (the recipe table below); domination adds the closed or
open neighborhood of every vertex.  Two deliberately redundant routes are
exposed: membership tests work from the neighborhood definitions, while the
numbers are computed as covering numbers of these hypergraphs.  Their
agreement is the executable form of the hypergraph characterization.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, closed_neighborhood, open_neighborhood
from .hypergraphs import CoverResult, Hypergraph, covering_number, covering_number_at_most
from .kinds import SEPARATION_KINDS, split_code_kind

__all__ = [
    "separation_hypergraph",
    "code_hypergraph",
    "is_s_set",
    "is_x_code",
    "s_number",
    "s_number_at_most",
    "x_number",
    "s_number_bruteforce",
    "x_number_bruteforce",
    "number",
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


def separation_hypergraph(g: Graph, s: str) -> Hypergraph:
    """Raw hypergraph whose covers are exactly the s-separating sets.

    One hyperedge per vertex pair; clutter reduction happens inside the
    solver so the construction stays auditable against the definitions.
    """
    if s not in SEPARATION_KINDS:
        raise ValueError("unknown separation kind %r" % s)
    return code_hypergraph(g, s)


def code_hypergraph(g: Graph, kind: str) -> Hypergraph:
    """Raw hypergraph whose covers are the sets of the given kind.

    The separation part gives one hyperedge per vertex pair, the symmetric
    difference of the neighborhoods its recipe names: first the adjacent
    pairs, then the non-adjacent ones, each in lexicographic pair order.
    The domination part then adds the closed (D) or open (TD) neighborhood
    of every vertex, in vertex order.
    """
    sep, dom = split_code_kind(kind)
    nbhd = {"open": g.adj, "closed": [g.adj[v] | {v} for v in range(g.n)]}
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


def is_s_set(g: Graph, s: str, c: frozenset[int]) -> bool:
    """Definition-based membership test (not via hypergraphs).

    Intersections are compared by value; the empty set counts as a value, so
    two vertices both meeting c in the empty set violate separation.
    """
    if s not in SEPARATION_KINDS:
        raise ValueError("unknown separation kind %r" % s)
    c = frozenset(c)
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
    """Definition check: domination condition plus separation condition."""
    sep, dom = split_code_kind(kind)
    c = frozenset(c)
    if dom is not None and not _dominates(g, dom, c):
        return False
    if sep is not None and not is_s_set(g, sep, c):
        return False
    return True


def s_number(g: Graph, s: str) -> CoverResult:
    """Minimum s-separating set via the covering reformulation.

    Infeasible exactly when the graph has the corresponding twins.
    """
    return covering_number(separation_hypergraph(g, s))


def s_number_at_most(g: Graph, s: str, budget: int) -> bool:
    """Decide whether an s-separating set of size <= budget exists."""
    return covering_number_at_most(separation_hypergraph(g, s), budget)


def x_number(g: Graph, kind: str) -> CoverResult:
    """Minimum code of the given kind via the covering reformulation."""
    return covering_number(code_hypergraph(g, kind))


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


def s_number_bruteforce(g: Graph, s: str) -> CoverResult:
    """Independent oracle: size-then-lex subset enumeration against the
    neighborhood definitions.  Agreement with s_number on every input is the
    executable proof of the hypergraph characterization."""
    return _bruteforce_min(g, lambda c: is_s_set(g, s, c))


def x_number_bruteforce(g: Graph, kind: str) -> CoverResult:
    """Brute-force oracle for code numbers, same enumeration order."""
    return _bruteforce_min(g, lambda c: is_x_code(g, kind, c))
