"""Definition-based checks the benchmark trusts, independent of sepcodes.

Everything here works from the neighbourhood definitions of the paper's
separation and domination properties, never from sepcodes' hypergraph
construction, so that agreement with the program under test means
something.  Standard library only.

A graph is given as its order n and a list of open neighbourhoods
(frozensets).  A set C of vertices is

- L-separating when vertices outside C have pairwise distinct N(v) & C,
- O-separating when all vertices have pairwise distinct N(v) & C,
- I-separating when all vertices have pairwise distinct N[v] & C,
- F-separating when it is both O- and I-separating,
- dominating (D) when every N[v] meets C, total-dominating (TD) when
  every N(v) meets C.

A code kind is a separation letter, a domination part, or one of each
(``LD``, ``OTD``, ...).
"""

from __future__ import annotations

import itertools

SEPARATIONS = ("L", "O", "I", "F")
KINDS = SEPARATIONS + ("D", "TD", "LD", "LTD", "OD", "OTD", "ID", "ITD", "FD", "FTD")


def split_kind(kind: str) -> tuple[str | None, str | None]:
    """(separation letter or None, "D" / "TD" or None)."""
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % kind)
    if kind in ("D", "TD"):
        return None, kind
    return kind[0], kind[1:] or None


def neighbourhoods(n: int, edges) -> list[frozenset[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(a) for a in adj]


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return [p for p in itertools.combinations(range(n), 2) if p not in present]


def _distinct(traces) -> bool:
    traces = list(traces)
    return len(set(traces)) == len(traces)


def is_code(adj: list[frozenset[int]], kind: str, c) -> bool:
    """True iff the vertex set c has the property `kind`, checked directly
    against the traces of the neighbourhoods."""
    sep, dom = split_kind(kind)
    c = frozenset(c)
    n = len(adj)
    closed = [adj[v] | {v} for v in range(n)]
    if dom == "D" and not all(closed[v] & c for v in range(n)):
        return False
    if dom == "TD" and not all(adj[v] & c for v in range(n)):
        return False
    if sep == "L":
        return _distinct(adj[v] & c for v in range(n) if v not in c)
    if sep in ("O", "F") and not _distinct(adj[v] & c for v in range(n)):
        return False
    if sep in ("I", "F") and not _distinct(closed[v] & c for v in range(n)):
        return False
    return True


def constraint_rows(adj: list[frozenset[int]], kind: str) -> list[frozenset[int]]:
    """Vertex sets that a set C must each meet to have the property `kind`.

    Read off the definitions pair by pair: u and v get distinct traces on C
    exactly when C meets the symmetric difference of their neighbourhoods;
    for L the pair is also fine when u or v lies in C.  An empty row means
    no set has the property.
    """
    sep, dom = split_kind(kind)
    n = len(adj)
    closed = [adj[v] | {v} for v in range(n)]
    rows = []
    for u, v in itertools.combinations(range(n), 2):
        if sep == "L":
            rows.append((adj[u] ^ adj[v]) | {u, v})
        if sep in ("O", "F"):
            rows.append(adj[u] ^ adj[v])
        if sep in ("I", "F"):
            rows.append(closed[u] ^ closed[v])
    if dom == "D":
        rows.extend(closed)
    elif dom == "TD":
        rows.extend(adj)
    return rows


def exhaustive_minimum(adj: list[frozenset[int]], kind: str) -> int | None:
    """Smallest size of a set with the property, by trying every subset in
    order of size; None when no set has it."""
    n = len(adj)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if is_code(adj, kind, combo):
                return size
    return None


def min_test_cover(num_items: int, tests) -> int | None:
    """Fewest tests that split every pair of items, by trying every
    sub-collection of tests in order of size; None when even all tests
    leave a pair unsplit."""
    tests = [frozenset(t) for t in tests]
    pairs = list(itertools.combinations(range(num_items), 2))
    for size in range(len(tests) + 1):
        for chosen in itertools.combinations(tests, size):
            if all(any((u in t) != (v in t) for t in chosen) for u, v in pairs):
                return size
    return None
