"""Executable theorem suite: augmentation constructions, complement
dualities, gap corollaries, bound theorems and the spider closed forms.

Each check returns a TheoremReport carrying the computed quantities and,
on failure, a full counterexample payload (a failure here means a solver
bug, and triage needs the instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, complement, detect_twins, make_family
from .hypergraphs import reduce_to_clutter
from .kinds import CODE_KINDS, DOMINATION_KINDS, SEPARATION_KINDS
from .separation import code_hypergraph, is_x_code, number

__all__ = [
    "TheoremReport",
    "all_numbers",
    "augment_to_sd_code",
    "augment_to_std_code_of",
    "augment_to_std_code_li",
    "INEQUALITIES",
    "COMPLEMENT_PAIRS",
    "check_inequalities",
    "check_theorem",
    "check_complement_duality",
    "check_gap_corollary",
    "spider_closed_forms",
    "check_spider_formulas",
    "FIG2_ARROWS",
]


@dataclass
class TheoremReport:
    theorem: str
    graph: str
    quantities: dict = field(default_factory=dict)
    passed: bool = True
    skipped: list = field(default_factory=list)
    counterexample: dict | None = None

    def fail(self, g: Graph, item: str, payload: dict):
        self.passed = False
        ce = {"item": item, "n": g.n, "edges": g.edges()}
        ce.update(payload)
        self.counterexample = ce

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "graph": self.graph,
            "quantities": self.quantities,
            "passed": self.passed,
            "skipped": self.skipped,
            "counterexample": self.counterexample,
        }


def _describe(g: Graph) -> str:
    return "n=%d,m=%d" % (g.n, g.num_edges())


def all_numbers(g: Graph) -> dict:
    """All 14 separation/domination/code numbers of g, as CoverResults."""
    return {kind: number(g, kind) for kind in SEPARATION_KINDS + ("D", "TD") + CODE_KINDS}


# ---------------------------------------------------------------------------
# Augmentation constructions.


def _undominated_closed(g: Graph, c: frozenset[int]):
    return [v for v in range(g.n) if not ((g.adj[v] | {v}) & c)]


def _undominated_open(g: Graph, c: frozenset[int]):
    return [v for v in range(g.n) if not (g.adj[v] & c)]


def augment_to_sd_code(g: Graph, s: str, c: frozenset[int]) -> frozenset[int]:
    """Extend an s-separating set to an sD-code by adding at most one vertex.

    At most one vertex can have an empty closed neighborhood trace in c;
    adding it (if present) makes c dominating while separation is preserved.
    """
    if s not in SEPARATION_KINDS:
        raise ValueError("construction applies to separation kinds only")
    c = frozenset(c)
    if not is_x_code(g, s, c):
        raise ValueError("input is not an %s-set" % s)
    missing = _undominated_closed(g, c)
    assert len(missing) <= 1, "separation admits at most one undominated vertex"
    if missing:
        return c | {missing[0]}
    return c


def augment_to_std_code_of(g: Graph, s: str, c: frozenset[int]) -> frozenset[int]:
    """Extend an O- or F-set to an sTD-code by adding at most one vertex.

    The single vertex with empty open trace (if any) gets its lowest-index
    neighbor added; supersets of separating sets stay separating.
    """
    if s not in ("O", "F"):
        raise ValueError("construction applies to O and F only")
    c = frozenset(c)
    if not is_x_code(g, s, c):
        raise ValueError("input is not an %s-set" % s)
    if any(not g.adj[v] for v in range(g.n)):
        raise ValueError("graph has an isolated vertex; no TD-set exists")
    missing = _undominated_open(g, c)
    assert len(missing) <= 1, "open separation admits at most one empty open trace"
    if missing:
        u0 = min(g.adj[missing[0]])
        return c | {u0}
    return c


def augment_to_std_code_li(g: Graph, s: str, c: frozenset[int]) -> frozenset[int]:
    """Extend an L- or I-set to an sTD-code of size at most 2|c|.

    For every member of c with no neighbor inside c, a neighbor outside c is
    added; picks are greedy (cover as many such members as possible, then
    lowest index).  At most one outside vertex can still be missing open
    domination afterwards; one of its neighbors is added if needed.  The
    guarantee, not the greedy quality, is the contract.
    """
    if s not in ("L", "I"):
        raise ValueError("construction applies to L and I only")
    c = frozenset(c)
    if not is_x_code(g, s, c):
        raise ValueError("input is not an %s-set" % s)
    if any(not g.adj[v] for v in range(g.n)):
        raise ValueError("graph has an isolated vertex; no TD-set exists")
    needy = {v for v in c if not (g.adj[v] & c)}
    chosen = set()
    while needy:
        best = None
        best_cover = -1
        for u in range(g.n):
            if u in c or u in chosen:
                continue
            cover = len(g.adj[u] & needy)
            if cover > best_cover:
                best, best_cover = u, cover
        chosen.add(best)
        needy -= g.adj[best]
    outside_missing = [v for v in range(g.n) if v not in c and not (g.adj[v] & c)]
    assert len(outside_missing) <= 1
    result = c | chosen
    if outside_missing:
        v0 = outside_missing[0]
        if not (g.adj[v0] & result):
            result |= {min(g.adj[v0])}
    assert len(result) <= 2 * len(c)
    return frozenset(result)


# ---------------------------------------------------------------------------
# Inequality checks.

# Covering relations of the code-number partial order: an arrow (a, b)
# asserts gamma^a <= gamma^b whenever both are feasible.
FIG2_ARROWS = (
    ("LD", "LTD"),
    ("LD", "OD"),
    ("LD", "ID"),
    ("OD", "OTD"),
    ("OD", "FD"),
    ("ID", "ITD"),
    ("ID", "FD"),
    ("LTD", "OTD"),
    ("LTD", "ITD"),
    ("OTD", "FTD"),
    ("ITD", "FTD"),
    ("FD", "FTD"),
)


# One row (theorem id, label, lhs, rhs, factor, slack) per inequality
# gamma^lhs <= factor * gamma^rhs + slack; a theorem id's rows are checked
# in table order, and a row with an infeasible side is skipped.
INEQUALITIES = (
    *(row for s in SEPARATION_KINDS for row in (
        ("eq4", "%s<=%sD" % (s, s), s, s + "D", 1, 0),
        ("eq4", "%sD<=%sTD" % (s, s), s + "D", s + "TD", 1, 0),
    )),
    ("eq1+eq2", "D<=TD", "D", "TD", 1, 0),
    *(("eq1+eq2", "%s<=%s%s" % (d, s, d), d, s + d, 1, 0)
      for d in DOMINATION_KINDS for s in SEPARATION_KINDS),
    *(("fig2", "%s<=%s" % (a, b), a, b, 1, 0) for a, b in FIG2_ARROWS),
    *(("sep-order", "%s<=%s" % (a, b), a, b, 1, 0)
      for a, b in (("L", "O"), ("L", "I"), ("O", "F"), ("I", "F"))),
    *(("thm3+thm4+thm5", "thm3:%sD<=%s+1" % (s, s), s + "D", s, 1, 1) for s in SEPARATION_KINDS),
    *(("thm3+thm4+thm5", "thm4:%sTD<=%s+1" % (s, s), s + "TD", s, 1, 1) for s in ("O", "F")),
    *(("thm3+thm4+thm5", "thm5:%sTD<=2%s" % (s, s), s + "TD", s, 2, 0) for s in ("L", "I")),
    *(("thm3+thm4+thm5", "%sTD<=%sD+1" % (s, s), s + "TD", s + "D", 1, 1) for s in ("O", "F")),
)


def check_inequalities(g: Graph, theorem: str, numbers=None) -> TheoremReport:
    """Check the INEQUALITIES rows of one theorem id."""
    rows = [row for row in INEQUALITIES if row[0] == theorem]
    if not rows:
        raise ValueError("no inequalities for theorem id %r" % theorem)
    numbers = numbers or all_numbers(g)
    report = TheoremReport(theorem, _describe(g))
    for _, label, lhs, rhs, factor, slack in rows:
        a, b = numbers[lhs], numbers[rhs]
        if not (a.feasible and b.feasible):
            report.skipped.append(label)
            continue
        report.quantities[lhs] = a.tau
        report.quantities[rhs] = b.tau
        if not a.tau <= factor * b.tau + slack:
            report.fail(g, label, {lhs: a.tau, rhs: b.tau})
    return report


# ---------------------------------------------------------------------------
# Complementation.

# One row (kind on G, kind on co-G, twin hypothesis) per S-number equality
# under complementation; the hypothesis names the AdmissibilityReport twin
# lists of G that must be empty.
COMPLEMENT_PAIRS = (
    ("L", "L", ()),
    ("I", "O", ("closed_twins",)),
    ("O", "I", ("open_twins",)),
    ("F", "F", ("open_twins", "closed_twins")),
)

# (code kind, its separation kind) for every "code <= S + 1" inequality row
_WITHIN_ONE = {(lhs, rhs) for _, _, lhs, rhs, factor, slack in INEQUALITIES
               if rhs in SEPARATION_KINDS and (factor, slack) == (1, 1)}

def check_complement_duality(g: Graph, numbers=None, co_numbers=None) -> TheoremReport:
    """Equalities of S-numbers under complementation, with their twin
    hypotheses, plus the literal clutter identities behind them."""
    gc = complement(g)
    numbers = numbers or all_numbers(g)
    co_numbers = co_numbers or all_numbers(gc)
    twins = detect_twins(g)
    report = TheoremReport("thm7", _describe(g))
    for s, t, hypothesis in COMPLEMENT_PAIRS:
        label = "%s(G)=%s(co-G)" % (s, t)
        if any(getattr(twins, name) for name in hypothesis):
            report.skipped.append(label)
            continue
        a, b = numbers[s], co_numbers[t]
        report.quantities[label] = (a.tau, b.tau)
        if not (a.feasible and b.feasible and a.tau == b.tau):
            report.fail(g, label, {"lhs": a.as_dict(), "rhs": b.as_dict()})

    # clutter identities; these hold with no twin hypothesis
    for s, t, _ in COMPLEMENT_PAIRS:
        lhs = set(reduce_to_clutter(code_hypergraph(g, s)).edges)
        rhs = set(reduce_to_clutter(code_hypergraph(gc, t)).edges)
        if lhs != rhs:
            report.fail(
                g,
                "clutter:%s(G)=%s(co-G)" % (s, t),
                {"lhs": sorted(map(sorted, lhs)), "rhs": sorted(map(sorted, rhs))},
            )
    return report


def check_gap_corollary(g: Graph, numbers=None, co_numbers=None) -> TheoremReport:
    """Code numbers of a graph and its complement differ by at most one,
    per pairing and twin hypothesis; infeasible sides are skipped.

    A pairing (s, t) of COMPLEMENT_PAIRS gives the code pairing (s+d, t+d)
    when both codes lie within one of their S-numbers (a "code <= S + 1"
    row of INEQUALITIES), since those S-numbers are equal under the
    pairing's hypothesis: LD/LD, ID/OD, OD/ID, FD/FD and FTD/FTD."""
    numbers = numbers or all_numbers(g)
    co_numbers = co_numbers or all_numbers(complement(g))
    twins = detect_twins(g)
    report = TheoremReport("cor2", _describe(g))
    for d in DOMINATION_KINDS:
        for s, t, hypothesis in COMPLEMENT_PAIRS:
            a, b = s + d, t + d
            if (a, s) not in _WITHIN_ONE or (b, t) not in _WITHIN_ONE:
                continue
            label = "|%s(G)-%s(co-G)|<=1" % (a, b)
            lhs, rhs = numbers[a], co_numbers[b]
            if any(getattr(twins, name) for name in hypothesis) or not (lhs.feasible and rhs.feasible):
                report.skipped.append(label)
                continue
            report.quantities[label] = (lhs.tau, rhs.tau)
            if abs(lhs.tau - rhs.tau) > 1:
                report.fail(g, label, {a: lhs.tau, b: rhs.tau})
    return report


def check_theorem(g: Graph, theorem: str) -> TheoremReport:
    """The report of one theorem id: thm7, cor2 or a theorem id of
    INEQUALITIES."""
    if theorem == "thm7":
        return check_complement_duality(g)
    if theorem == "cor2":
        return check_gap_corollary(g)
    return check_inequalities(g, theorem)


# ---------------------------------------------------------------------------
# Spider closed forms.


def spider_closed_forms(k: int) -> dict:
    """Closed-form S- and code numbers of the thin and thick spiders on 2k
    vertices, stated for k >= 4.

    k = 4 is the boundary of the thick LD and LTD entries: they are k - 1
    for k >= 5 but 4 = k at k = 4.  The thick spider on k = 4 has a stable
    set a0..a3, a clique b0..b3 and edges a_i ~ b_j for i != j.  Take any
    3-set C, say an outside vertex v sees N(v) & C, and split on how many
    vertices of C lie in the clique.  With 3, the outside clique vertex and
    the a with the same index both see exactly C.  With 2,
    C = {b_i, b_j, a_x}: if x is not in {i, j} then b_x and the other
    outside a_y (y not in {i, j}) both see {b_i, b_j};
    otherwise the two a's with index outside {i, j} both do.  With 1,
    C = {b_i, a_x, a_y}: if i is not in {x, y} then a_i sees nothing in
    C, otherwise the two outside a's both see {b_i}.  With 0, the outside
    a sees nothing.  So no 3-set is locating-dominating, LD >= 4, and
    LTD >= LD since every LTD code is an LD code."""
    if k < 4:
        raise ValueError("closed forms are stated for k >= 4")
    thick_ld = k - 1 if k >= 5 else k
    thin = {
        "L": k - 1, "O": k - 1, "I": k + 1, "F": 2 * k - 2,
        "LD": k, "OD": k, "ID": k + 1, "FD": 2 * k - 2,
        "LTD": k, "OTD": k, "ITD": 2 * k - 1, "FTD": 2 * k - 1,
    }
    thick = {
        "L": k - 1, "I": k - 1, "O": k + 1, "F": 2 * k - 2,
        "LD": thick_ld, "ID": k, "OD": k + 1, "FD": 2 * k - 2,
        "LTD": thick_ld, "ITD": k + 1, "OTD": k + 1, "FTD": 2 * k - 2,
    }
    return {"thin": thin, "thick": thick}


def check_spider_formulas(k: int) -> TheoremReport:
    """Recompute every spider entry with the solver and compare exactly."""
    forms = spider_closed_forms(k)
    report = TheoremReport("spiders(k=%d)" % k, "thin/thick spider k=%d" % k)
    for shape in ("thin", "thick"):
        g = make_family(shape + "_spider", k)
        for kind, expected in sorted(forms[shape].items()):
            got = number(g, kind)
            report.quantities["%s:%s" % (shape, kind)] = got.tau
            if not (got.feasible and got.tau == expected):
                report.fail(g, "%s:%s" % (shape, kind), {"expected": expected, "got": got.as_dict()})
    return report
