"""Hypergraphs, covers and an exact minimum-cover solver.

A hypergraph is a universe 0..n-1 plus a list of hyperedges (frozensets).
Covers are vertex sets meeting every hyperedge; the covering number tau is
computed exactly by branch and bound on the clutter (the inclusion-minimal,
duplicate-free hyperedges), with a brute-force enumerator kept alongside as
an independent oracle.  The search runs on each connected component of the
clutter on its own: components share no vertex, so tau is the sum of the
per-component values.

Edges are represented as Python int bitmasks inside the solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "Hypergraph",
    "CoverResult",
    "is_cover",
    "reduce_to_clutter",
    "covering_number",
    "covering_number_at_most",
    "covering_number_bruteforce",
    "complete_rose",
    "format_hypergraph",
]

BRUTEFORCE_GUARD = 24


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[frozenset[int], ...]

    @staticmethod
    def of(n: int, edges) -> "Hypergraph":
        edges = tuple(frozenset(e) for e in edges)
        for e in edges:
            if any(not (0 <= v < n) for v in e):
                raise ValueError("hyperedge %s outside universe 0..%d" % (sorted(e), n - 1))
        return Hypergraph(n, edges)


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a minimum-cover computation.

    Infeasible (an empty hyperedge) is a value, not an exception: empty
    hyperedges legitimately arise from twins.
    """

    feasible: bool
    tau: int | None
    witness: frozenset[int] | None

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "number": self.tau,
            "witness": sorted(self.witness) if self.witness is not None else None,
        }


def is_cover(h: Hypergraph, c: frozenset[int]) -> bool:
    """True iff c meets every hyperedge of h."""
    if any(not (0 <= v < h.n) for v in c):
        raise ValueError("cover candidate outside universe")
    return all(e & c for e in h.edges)


def reduce_to_clutter(h: Hypergraph) -> Hypergraph:
    """Keep only the inclusion-minimal hyperedges, deduplicated.

    Covers are unchanged: a superset edge is met whenever its subset is.
    """
    uniq = sorted(set(h.edges), key=lambda e: (len(e), sorted(e)))
    minimal = []
    for e in uniq:
        if not any(m <= e for m in minimal):
            minimal.append(e)
    return Hypergraph(h.n, tuple(minimal))


def complete_rose(n: int, q: int) -> Hypergraph:
    """All q-subsets of {0..n-1} as hyperedges; tau is n-q+1."""
    if not 2 <= q < n:
        raise ValueError("complete rose needs 2 <= q < n, got q=%d n=%d" % (q, n))
    return Hypergraph(n, tuple(frozenset(c) for c in itertools.combinations(range(n), q)))


def format_hypergraph(h: Hypergraph) -> str:
    """Dump format: 'n e' header, then one sorted vertex list per edge,
    edges ordered lexicographically."""
    rows = sorted(sorted(e) for e in h.edges)
    lines = ["%d %d" % (h.n, len(h.edges))]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact solver.


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _matching_lower_bound(masks, chosen: int, banned: int) -> int:
    """Greedy disjoint-edge matching over edges not met by `chosen`.

    Pairwise disjoint uncovered edges need one cover vertex each, so the
    matching size lower-bounds the vertices still to be added.  Edges with
    all vertices banned make the branch infeasible (returned as a huge bound).
    """
    used = 0
    count = 0
    for m in masks:
        if m & chosen:
            continue
        avail = m & ~banned
        if not avail:
            return 1 << 30
        if not (avail & used):
            used |= avail
            count += 1
    return count


def _propagate(masks, chosen: int, banned: int, size: int, best: int):
    """Unit propagation: add the one available vertex of every uncovered
    edge that has only one, until none is forced.  Returns (chosen, size,
    pending), where pending is the first smallest uncovered edge (None when
    every edge is covered), or None when some uncovered edge has no
    available vertex or size reaches best."""
    while True:
        forced = 0
        pending = None
        for m in masks:
            if m & chosen:
                continue
            avail = m & ~banned
            na = avail.bit_count()
            if na == 0:
                return None
            if na == 1:
                forced |= avail
            elif pending is None or na < (pending & ~banned).bit_count():
                pending = m
        if not forced:
            return chosen, size, pending
        chosen |= forced
        size += forced.bit_count()
        if size >= best:
            return None


def _solve_tau(masks, nverts: int, cap: int | None = None) -> int:
    """Minimum hitting-set size via DFS branch and bound.

    Branches on a minimum-size uncovered edge; prunes with the disjoint-edge
    matching bound and propagates forced vertices (uncovered edges with a
    single available vertex).  With `cap` set, any answer above cap is
    reported as cap+1, which turns the search into a fast decision procedure.
    The DFS keeps an explicit stack, so its depth is not bounded by Python's
    recursion limit; nodes pop in the order a recursive search visits them,
    and each reads the incumbent when it is popped.
    """
    best = nverts + 1
    if cap is not None:
        best = min(best, cap + 1)

    # greedy upper bound: repeatedly take the most frequent vertex
    chosen = 0
    work = list(masks)
    while work:
        counts = {}
        for m in work:
            for v in _bits(m):
                counts[v] = counts.get(v, 0) + 1
        v = max(counts, key=lambda x: (counts[x], -x))
        chosen |= 1 << v
        work = [m for m in work if not (m & chosen)]
    best = min(best, chosen.bit_count())

    stack = [(0, 0, 0)]  # (chosen, banned, size)
    while stack:
        chosen, banned, size = stack.pop()
        node = _propagate(masks, chosen, banned, size, best)
        if node is None:
            continue
        chosen, size, pending = node
        if pending is None:
            best = min(best, size)
            continue
        if size + _matching_lower_bound(masks, chosen, banned) >= best:
            continue
        # branch on each available vertex of pending, banning the ones
        # before it; pushed in reverse, the children pop in ascending order
        avail = pending & ~banned
        for v in reversed(list(_bits(avail))):
            stack.append((chosen | (1 << v), banned | (avail & ((1 << v) - 1)), size + 1))
    return best


def _lex_min_cover(masks, tau: int, n: int) -> frozenset[int]:
    """Lexicographically smallest cover of size tau.

    Candidate sets of equal size are compared as sorted vertex tuples; the
    include-first DFS over ascending vertices finds the smallest one first.
    The DFS keeps an explicit stack, so its depth is not bounded by Python's
    recursion limit.
    """
    support = 0
    for m in masks:
        support |= m
    cand = [v for v in range(n) if support >> v & 1]
    stack = [(0, 0, 0, 0)]  # (candidate index, chosen, banned, size)
    while stack:
        idx, chosen, banned, size = stack.pop()
        if all(m & chosen for m in masks):
            return frozenset(_bits(chosen))
        if idx >= len(cand) or size >= tau:
            continue
        lb = _matching_lower_bound(masks, chosen, banned)
        if lb >= 1 << 30 or size + lb > tau:
            continue
        bit = 1 << cand[idx]
        stack.append((idx + 1, chosen, banned | bit, size))  # exclude, popped second
        stack.append((idx + 1, chosen | bit, banned, size + 1))  # include, popped first
    raise AssertionError("no cover of size tau found; solver bug")


def _clutter_masks(h: Hypergraph):
    """The clutter edges of h as bitmasks, or None when h has an empty edge
    (no cover exists); an empty list means every set is a cover."""
    clutter = reduce_to_clutter(h)
    if any(not e for e in clutter.edges):
        return None
    return [sum(1 << v for v in e) for e in clutter.edges]


def _components(masks):
    """Split clutter masks into connected components: vertex sets that no
    edge joins.  Each edge unites the disjoint supports it meets (a
    union-find whose sets are bitmasks); every component then keeps its
    edges in clutter order, which `_solve_tau`'s "first smallest edge"
    branching relies on."""
    supports = []
    for m in masks:
        rest = []
        for s in supports:
            if s & m:
                m |= s
            else:
                rest.append(s)
        rest.append(m)
        supports = rest
    if len(supports) == 1:
        return [masks]
    return [[m for m in masks if m & s] for s in supports]


def covering_number(h: Hypergraph) -> CoverResult:
    """Exact minimum cover via branch and bound on the clutter of h.

    The witness is the minimum cover whose sorted vertex tuple is smallest,
    which makes repeated runs byte-identical.  Each connected component K
    of the clutter is solved on its own: tau is the sum of the tau_K, and
    the witness is the union of the per-component lex-min witnesses W_K.
    That union is the global lex-min witness:

    - Sorted tuples of equal size are ordered by the smallest element of
      their symmetric difference.
    - A minimum cover uses only support vertices, and its restriction to
      each component is a minimum cover of that component (a smaller
      cover of K would give a smaller cover of h).
    - Let C be the global lex-min minimum cover and W the union, which
      meets every edge and has size tau, and suppose W != C.  Both use
      only support vertices, so the smallest vertex of their symmetric
      difference lies in one component K, and the restrictions C_K and
      W_K are equal-size minimum covers of K whose symmetric difference
      has that same smallest vertex.  As C precedes W, that vertex is in
      C, so C_K precedes W_K, which contradicts the choice of W_K as K's
      lex-min witness.
    """
    masks = _clutter_masks(h)
    if masks is None:
        return CoverResult(False, None, None)
    tau = 0
    witness = frozenset()
    for comp in _components(masks):
        t = _solve_tau(comp, h.n)
        tau += t
        witness |= _lex_min_cover(comp, t, h.n)
    return CoverResult(True, tau, witness)


def covering_number_at_most(h: Hypergraph, budget: int) -> bool:
    """Decide whether some cover of size <= budget exists.

    Same search as covering_number, run per connected component of the
    clutter, smallest first, with the incumbent capped at what the budget
    leaves for that component: every component still to solve needs at
    least one vertex.  The branch and bound never proves an exact optimum
    once the question is settled, and the answer is False as soon as one
    component exceeds its cap.
    """
    if budget < 0:
        return False
    masks = _clutter_masks(h)
    if masks is None:
        return False
    comps = sorted(_components(masks), key=len)
    left = budget
    for i, comp in enumerate(comps):
        cap = left - (len(comps) - 1 - i)
        if cap < 1:
            return False
        t = _solve_tau(comp, h.n, cap=cap)
        if t > cap:
            return False
        left -= t
    return True


def covering_number_bruteforce(h: Hypergraph) -> CoverResult:
    """Independent oracle: subsets enumerated in size-then-lex order.

    Same contract as covering_number, used to cross-check the branch and
    bound solver.  Refuses universes over the guard.
    """
    if h.n > BRUTEFORCE_GUARD:
        raise ValueError("universe size %d over brute-force guard %d" % (h.n, BRUTEFORCE_GUARD))
    if any(not e for e in h.edges):
        return CoverResult(False, None, None)
    support = sorted(set().union(*h.edges)) if h.edges else []
    for size in range(len(support) + 1):
        for combo in itertools.combinations(support, size):
            c = frozenset(combo)
            if all(e & c for e in h.edges):
                return CoverResult(True, size, c)
    raise AssertionError("unreachable: full support always covers")
