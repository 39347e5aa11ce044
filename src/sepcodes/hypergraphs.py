"""Hypergraphs, covers and an exact minimum-cover solver.

A hypergraph is a universe 0..n-1 plus a list of hyperedges (frozensets).
Covers are vertex sets meeting every hyperedge; the covering number tau is
computed exactly by branch and bound on the clutter (the inclusion-minimal,
duplicate-free hyperedges), with a brute-force enumerator kept alongside as
an independent oracle.  The search runs on each connected component of the
clutter on its own: components share no vertex, so tau is the sum of the
per-component values.

Inside the solver, one search (`_search`) runs over residual edge bitmasks.
"""

from __future__ import annotations

import itertools
from collections import Counter
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


def _search(masks, best: int, lex: bool = False):
    """Depth-first branch and bound for a cover smaller than `best`.

    Returns (size, cover): plain mode gives the smallest size (`best` if
    none is smaller) and None, lex mode the first cover as a bitmask.
    The stack is explicit, so the depth is not bounded by the recursion limit.

    A stack node is (edges, chosen, size, take, ban), where `edges` is the
    parent's list of uncovered edges, cut to their available vertices, in
    clutter order.  A popped node filters it once, dropping the edges `take`
    meets and clearing the `ban` bits; that pass also finds the forced
    vertices (edges left with one vertex, taken before filtering again), the
    greedy disjoint-edge matching (a lower bound: disjoint edges need one
    vertex each) and, in plain mode, the first smallest edge.

    Plain mode starts from the greedy cover and branches on each vertex of
    the first smallest edge, banning those before it; with `best` = cap + 1
    any answer above the cap reads as cap + 1.  Lex mode, called with
    `best` = tau + 1, branches take-then-ban on the lowest vertex still in
    an uncovered edge, and its first cover is the lex-min minimum cover:
    (1) a forced vertex is in every cover of its subtree; (2) a vertex
    neither chosen nor in an uncovered edge is in no minimum cover below
    that node, as removing it leaves a smaller cover; (3) so the minimum
    covers of a subtree differ only on its live vertices, and those holding
    the lowest one sort first.  The take child is searched first, and the
    bounds prune only subtrees with no cover of size tau.
    """
    if not lex:  # greedy upper bound: repeatedly take the most frequent vertex
        chosen = 0
        work = list(masks)
        while work:
            counts = Counter(v for m in work for v in _bits(m))
            v = max(counts, key=lambda x: (counts[x], -x))
            chosen |= 1 << v
            work = [m for m in work if not (m & chosen)]
        best = min(best, chosen.bit_count())

    stack = [(masks, 0, 0, 0, 0)]
    while stack:
        edges, chosen, size, take, ban = stack.pop()
        while size < best:
            rest = []
            forced = used = bound = live = pending = pn = 0
            for e in edges:
                if e & take:
                    continue
                # only a ban leaves an edge with one vertex: a one-vertex
                # clutter edge is a component of its own
                if e & ban:
                    e &= ~ban
                    if not e & (e - 1):
                        if not e:
                            break  # an edge with no available vertex
                        forced |= e
                if lex:
                    live |= e
                elif pn != 2:  # no unforced edge has fewer than 2 vertices
                    na = e.bit_count()
                    if not pn or na < pn:
                        pending, pn = e, na
                if not e & used:
                    used |= e
                    bound += 1
                rest.append(e)
            else:
                if forced:
                    chosen |= forced
                    size += forced.bit_count()
                    edges, take, ban = rest, forced, 0
                    continue
                if not rest:
                    if lex:
                        return size, chosen
                    best = size
                elif size + bound < best:
                    if lex:
                        v = live & -live
                        stack.append((rest, chosen, size, 0, v))
                        stack.append((rest, chosen | v, size + 1, v, 0))
                    else:
                        for bit in reversed([1 << v for v in _bits(pending)]):
                            stack.append((rest, chosen | bit, size + 1, bit, pending & (bit - 1)))
            break
    if lex:
        raise AssertionError("no cover of size tau found; solver bug")
    return best, None


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
    edges in clutter order, which the "first smallest edge" branching of
    `_search` relies on."""
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
        t, _ = _search(comp, h.n + 1)
        tau += t
        witness |= frozenset(_bits(_search(comp, t + 1, lex=True)[1]))
    return CoverResult(True, tau, witness)


def covering_number_at_most(h: Hypergraph, budget: int) -> bool:
    """Decide whether some cover of size <= budget exists.

    Same search as covering_number, run per connected component of the
    clutter, smallest first, with the incumbent capped at what the budget
    leaves for that component: every component still to solve needs at
    least one vertex.  The answer is False as soon as one component exceeds
    its cap.  A component that fits its cap is still solved to its exact
    optimum, which later caps need; the last one is too, although its fit
    already settles the answer.
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
        t, _ = _search(comp, cap + 1)
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
