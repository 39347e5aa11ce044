"""Acceptance gate.

One test per criterion; each prints a single [criterion N] PASS/FAIL line
and enforces its runtime budget.  Report builders are pure and JSON-stable,
so the determinism criterion can rerun them and compare bytes.

Boundary: the thick-spider locating-dominating values are k-1 only from
k=5 on; at k=4 no 3-subset is such a code, so the table states 4 there.
Criterion 3 checks the k=4 entries like every other.
"""

import json
import random
import time

import pytest

from sepcodes.catalog import random_graphs, small_graph_catalog
from sepcodes.graphs import complement, detect_twins, make_family
from sepcodes.hypergraphs import complete_rose, covering_number, reduce_to_clutter
from sepcodes.kinds import SEPARATION_KINDS
from sepcodes.reductions import (
    TestCoverInstance,
    build_reduction,
    check_gadget_lower_bound,
    forward_s_set,
    padded_test_choice,
    solve_test_cover,
    tiny_instances,
    validate_test_cover,
    verify_reduction_iff,
)
from sepcodes.separation import code_hypergraph, is_x_code, number, x_number_bruteforce
from sepcodes.theorems import (
    all_numbers,
    augment_to_code,
    check_inequalities,
    spider_closed_forms,
)

CATALOG_SEED = 20240901
SWEEP_COUNT = 500

F_DEEP_INSTANCES = (
    (2, ({0},), 1),
    (3, ({0}, {1}), 2),
    (3, ({0, 1}, {0}), 1),
)


def _emit(num, ok, detail):
    print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))


def _jsonable(x):
    return json.loads(json.dumps(x, sort_keys=True, default=sorted))


# --- report builders -------------------------------------------------------


def crit1_report():
    entries = {}
    violations = []
    for n in range(3, 13):
        for q in range(2, n):
            tau = covering_number(complete_rose(n, q)).tau
            entries["n=%d,q=%d" % (n, q)] = tau
            if tau != n - q + 1:
                violations.append({"n": n, "q": q, "tau": tau})
    return {"criterion": 1, "checked": len(entries), "entries": entries,
            "violations": violations}


def _spider_report(criterion, shape):
    values = {}
    violations = []
    for k in range(4, 8):
        g = make_family(shape + "_spider", k)
        forms = spider_closed_forms(k)[shape]
        for kind, expected in sorted(forms.items()):
            res = number(g, kind)
            key = "k=%d:%s" % (k, kind)
            values[key] = res.tau
            if not (res.feasible and res.tau == expected):
                violations.append({"k": k, "kind": kind, "expected": expected,
                                   "got": res.tau})
    return {"criterion": criterion, "shape": shape, "values": values,
            "violations": violations}


def crit2_report():
    return _spider_report(2, "thin")


def crit3_report():
    return _spider_report(3, "thick")


def _catalog_n6():
    return [g for g in small_graph_catalog(CATALOG_SEED) if g.n <= 6]


def crit4_report():
    graphs = _catalog_n6()
    discrepancies = []
    for g in graphs:
        for s in SEPARATION_KINDS:
            a = number(g, s)
            b = x_number_bruteforce(g, s)
            if (a.feasible, a.tau, a.witness) != (b.feasible, b.tau, b.witness):
                discrepancies.append(
                    {"n": g.n, "edges": g.edges(), "kind": s,
                     "solver": a.as_dict(), "oracle": b.as_dict()}
                )
    return {"criterion": 4, "graphs": len(graphs),
            "discrepancies": _jsonable(discrepancies)}


def crit5_report():
    violations = []
    for g in random_graphs(SWEEP_COUNT, max_n=9, seed=CATALOG_SEED):
        nums = all_numbers(g)
        for theorem in ("eq1+eq2", "eq4", "fig2", "thm3+thm4+thm5"):
            rep = check_inequalities(g, theorem, nums)
            if not rep.passed:
                violations.append(_jsonable(rep.as_dict()))
    return {"criterion": 5, "graphs": SWEEP_COUNT, "violations": violations}


def _twin_free_n8():
    return [g for g in small_graph_catalog(CATALOG_SEED)
            if g.n <= 8 and detect_twins(g).twin_free]


def crit6_report():
    violations = []
    graphs = _twin_free_n8()
    for g in graphs:
        gc = complement(g)
        nums = {s: number(g, s) for s in SEPARATION_KINDS}
        co = {s: number(gc, s) for s in SEPARATION_KINDS}
        for a, b in (("L", "L"), ("I", "O"), ("O", "I"), ("F", "F")):
            if not (nums[a].feasible and co[b].feasible and nums[a].tau == co[b].tau):
                violations.append({"item": "%s(G)=%s(co-G)" % (a, b),
                                   "edges": g.edges()})
            lhs = set(reduce_to_clutter(code_hypergraph(g, a)).edges)
            rhs = set(reduce_to_clutter(code_hypergraph(gc, b)).edges)
            if lhs != rhs:
                violations.append({"item": "clutter:%s/%s" % (a, b),
                                   "edges": g.edges()})
        for a, b in (("LD", "LD"), ("ID", "OD"), ("OD", "ID"), ("FD", "FD"),
                     ("FTD", "FTD")):
            lhs, rhs = number(g, a), number(gc, b)
            if lhs.feasible and rhs.feasible and abs(lhs.tau - rhs.tau) > 1:
                violations.append({"item": "gap:%s/%s" % (a, b),
                                   "edges": g.edges()})
    return {"criterion": 6, "graphs": len(graphs),
            "violations": _jsonable(violations)}


def _witness_stream():
    """(graph, kind, minimum witness) triples from criteria 2-6, deduplicated
    by graph."""
    seen = set()
    graphs = []
    for k in range(4, 8):
        graphs.append(make_family("thin_spider", k))
        graphs.append(make_family("thick_spider", k))
    graphs.extend(_catalog_n6())
    graphs.extend(random_graphs(SWEEP_COUNT, max_n=9, seed=CATALOG_SEED))
    for g in _twin_free_n8():
        graphs.append(g)
        graphs.append(complement(g))
    for g in graphs:
        key = (g.n, tuple(g.edges()))
        if key in seen:
            continue
        seen.add(key)
        for s in SEPARATION_KINDS:
            res = number(g, s)
            if res.feasible:
                yield g, s, res.witness


def crit7_report():
    violations = []
    checked = 0
    for g, s, c in _witness_stream():
        checked += 1
        out = augment_to_code(g, s + "D", c)
        if not (is_x_code(g, s + "D", out) and len(out) <= len(c) + 1):
            violations.append({"op": "sd", "kind": s, "edges": g.edges()})
        if any(not g.adj[v] for v in range(g.n)):
            continue
        out = augment_to_code(g, s + "TD", c)
        if s in ("O", "F"):
            ok = is_x_code(g, s + "TD", out) and len(out) <= len(c) + 1
        else:
            ok = is_x_code(g, s + "TD", out) and len(out) <= 2 * len(c)
        if not ok:
            violations.append({"op": "std", "kind": s, "edges": g.edges()})
    return {"criterion": 7, "checked": checked, "violations": _jsonable(violations)}


def crit8_report():
    family = list(tiny_instances())
    disagreements = []
    for s in ("I", "L", "O"):
        for inst in family:
            if not verify_reduction_iff(inst, s):
                disagreements.append({"kind": s, "items": inst.num_items,
                                      "tests": sorted(map(sorted, inst.tests)),
                                      "budget": inst.budget})
    f_forward_bad = []
    f_exact_size = 0
    f_exact_expected = 0
    for inst in family:
        art = build_reduction(inst, "F")
        chosen = padded_test_choice(inst)
        fwd = forward_s_set(art, chosen)
        if not is_x_code(art.graph, "F", fwd):
            f_forward_bad.append({"items": inst.num_items,
                                  "tests": sorted(map(sorted, inst.tests)),
                                  "budget": inst.budget})
        tc = solve_test_cover(inst)
        if tc.tau <= inst.budget <= len(inst.tests):
            f_exact_expected += 1
            if len(fwd) == inst.budget + 12 * len(inst.tests) + 11:
                f_exact_size += 1
    f_deep = []
    for z, tests, ell in F_DEEP_INSTANCES:
        inst = TestCoverInstance.of(z, tests, ell)
        f_deep.append(verify_reduction_iff(inst, "F"))
    lemma_bad = []
    lemma_checked = 0
    for inst in tiny_instances(max_items=3, max_tests=3):
        for s in ("I", "O", "L"):
            art = build_reduction(inst, s)
            res = number(art.graph, s)
            if res.feasible:
                lemma_checked += 1
                if not check_gadget_lower_bound(art, res.witness):
                    lemma_bad.append({"kind": s, "items": inst.num_items})
    for z, tests, ell in F_DEEP_INSTANCES:
        inst = TestCoverInstance.of(z, tests, ell)
        art = build_reduction(inst, "F")
        res = number(art.graph, "F")
        lemma_checked += 1
        if not check_gadget_lower_bound(art, res.witness):
            lemma_bad.append({"kind": "F", "items": z})
    return {
        "criterion": 8,
        "family_size": len(family),
        "iff_disagreements": disagreements,
        "f_forward_failures": f_forward_bad,
        "f_exact_size": [f_exact_size, f_exact_expected],
        "f_deep_iff": f_deep,
        "lemma_checked": lemma_checked,
        "lemma_violations": lemma_bad,
    }


# --- the criterion tests ---------------------------------------------------


def test_criterion_1_rose_formula():
    t0 = time.time()
    rep = crit1_report()
    elapsed = time.time() - t0
    ok = not rep["violations"] and elapsed < 5
    _emit(1, ok, "%d roses, %d violations, %.1fs (budget 5s)"
          % (rep["checked"], len(rep["violations"]), elapsed))
    assert not rep["violations"]
    assert elapsed < 5


def test_criterion_2_thin_spiders():
    t0 = time.time()
    rep = crit2_report()
    elapsed = time.time() - t0
    ok = not rep["violations"] and elapsed < 60
    _emit(2, ok, "%d entries, %d violations, %.1fs (budget 60s)"
          % (len(rep["values"]), len(rep["violations"]), elapsed))
    assert not rep["violations"], rep["violations"]
    assert elapsed < 60


def test_criterion_3_thick_spiders():
    t0 = time.time()
    rep = crit3_report()
    elapsed = time.time() - t0
    ok = not rep["violations"] and elapsed < 60
    _emit(3, ok, "%d entries, %d violations, %.1fs (budget 60s)"
          % (len(rep["values"]), len(rep["violations"]), elapsed))
    assert elapsed < 60
    assert not rep["violations"], (
        "closed-form table disagrees with the solver on %s; exhaustive "
        "search confirms the solver (no smaller code exists)"
        % rep["violations"]
    )


def test_criterion_4_oracle_equivalence():
    rep = crit4_report()
    ok = rep["graphs"] >= 500 and not rep["discrepancies"]
    _emit(4, ok, "%d graphs x 4 kinds, %d discrepancies"
          % (rep["graphs"], len(rep["discrepancies"])))
    assert rep["graphs"] >= 500
    assert not rep["discrepancies"], rep["discrepancies"][:2]


def test_criterion_5_theorem_sweep():
    t0 = time.time()
    rep = crit5_report()
    elapsed = time.time() - t0
    ok = not rep["violations"] and elapsed < 600
    _emit(5, ok, "%d graphs, %d violations, %.1fs (budget 600s)"
          % (rep["graphs"], len(rep["violations"]), elapsed))
    assert not rep["violations"], rep["violations"][:2]
    assert elapsed < 600


def test_criterion_6_complement_duality():
    rep = crit6_report()
    ok = not rep["violations"]
    _emit(6, ok, "%d twin-free graphs, %d violations"
          % (rep["graphs"], len(rep["violations"])))
    assert not rep["violations"], rep["violations"][:2]


def test_criterion_7_augmentation_contracts():
    rep = crit7_report()
    ok = not rep["violations"]
    _emit(7, ok, "%d witnesses, %d violations" % (rep["checked"], len(rep["violations"])))
    assert not rep["violations"], rep["violations"][:2]


def test_criterion_8_reduction_iff():
    t0 = time.time()
    rep = crit8_report()
    elapsed = time.time() - t0
    ok = (
        not rep["iff_disagreements"]
        and not rep["f_forward_failures"]
        and rep["f_exact_size"][0] == rep["f_exact_size"][1]
        and all(rep["f_deep_iff"])
        and len(rep["f_deep_iff"]) >= 3
        and not rep["lemma_violations"]
        and elapsed < 900 + 1800
    )
    _emit(
        8,
        ok,
        "%d instances; iff disagreements %d; F forward failures %d; "
        "F exact-size %d/%d; F deep iff %s; lemma bounds %d checked, "
        "%d violations; %.1fs"
        % (
            rep["family_size"],
            len(rep["iff_disagreements"]),
            len(rep["f_forward_failures"]),
            rep["f_exact_size"][0],
            rep["f_exact_size"][1],
            rep["f_deep_iff"],
            rep["lemma_checked"],
            len(rep["lemma_violations"]),
            elapsed,
        ),
    )
    assert not rep["iff_disagreements"], rep["iff_disagreements"][:2]
    assert not rep["f_forward_failures"], rep["f_forward_failures"][:2]
    assert rep["f_exact_size"][0] == rep["f_exact_size"][1]
    assert len(rep["f_deep_iff"]) >= 3 and all(rep["f_deep_iff"])
    assert not rep["lemma_violations"], rep["lemma_violations"]
    assert elapsed < 900 + 1800  # 15 min for I/L/O plus the 30 min F budget


def _random_valid_instances(count, items, tests, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        collection = [{u for u in range(items) if rng.random() < 0.5} for _ in range(tests)]
        inst = TestCoverInstance.of(items, collection, 1)
        if validate_test_cover(inst):
            out.append(inst)
    return out


def test_reduction_iff_past_the_tiny_family():
    # criterion 8 stops at 4 items and 4 tests; here 5 and 5, each at its
    # budget tau - 1 (a NO instance) and tau (a YES instance)
    t0 = time.time()
    bad = []
    largest = {}
    for inst in _random_valid_instances(6, 5, 5, CATALOG_SEED):
        tau = solve_test_cover(inst).tau
        for budget in (tau - 1, tau):
            sized = TestCoverInstance.of(inst.num_items, inst.tests, budget)
            for s in ("I", "O", "F", "L"):
                if not verify_reduction_iff(sized, s):
                    bad.append((s, sorted(map(sorted, inst.tests)), budget))
                largest[s] = max(largest.get(s, 0), build_reduction(sized, s).graph.n)
    elapsed = time.time() - t0
    assert not bad, bad
    assert largest["L"] > 48 and largest["F"] > 48, largest
    assert elapsed < 30


def test_criterion_9_determinism():
    builders = [crit1_report, crit2_report, crit3_report, crit4_report,
                crit5_report, crit6_report, crit7_report, crit8_report]
    bad = []
    for build in builders:
        first = json.dumps(build(), sort_keys=True)
        second = json.dumps(build(), sort_keys=True)
        if first != second:
            bad.append(build.__name__)
    _emit(9, not bad, "8 reports rebuilt, unstable: %s" % (bad or "none"))
    assert not bad, bad
