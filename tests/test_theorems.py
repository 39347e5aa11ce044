import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcodes import theorems
from sepcodes.graphs import Graph, complement, detect_twins, make_family
from sepcodes.hypergraphs import CoverResult, Hypergraph
from sepcodes.separation import is_x_code, number, x_number_bruteforce
from sepcodes.theorems import (
    FIG2_ARROWS,
    all_numbers,
    augment_to_code,
    check_complement_duality,
    check_gap_corollary,
    check_inequalities,
    check_spider_formulas,
    check_theorem,
    spider_closed_forms,
)


def graphs(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            lambda bits: Graph.from_edges(
                n,
                [
                    p
                    for i, p in enumerate(
                        [(u, v) for u in range(n) for v in range(u + 1, n)]
                    )
                    if bits >> i & 1
                ],
            ),
            st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
        )
    )


def test_all_numbers_keys():
    nums = all_numbers(make_family("path", 4))
    assert len(nums) == 14


# --- augmentations ---------------------------------------------------------


def test_sd_augment_noop_when_dominating():
    g = make_family("path", 5)
    c = number(g, "L").witness
    out = augment_to_code(g, "LD", c)
    assert is_x_code(g, "LD", out)
    assert len(out) <= len(c) + 1


def test_sd_augment_thin_spider_closed_sep():
    g = make_family("thin_spider", 4)
    c = number(g, "I").witness
    assert len(c) == 5
    out = augment_to_code(g, "ID", c)
    assert is_x_code(g, "ID", out)
    assert len(out) <= 6


def test_sd_augment_rejects_non_set():
    g = make_family("clique", 3)
    with pytest.raises(ValueError):
        augment_to_code(g, "ID", frozenset({0}))


def test_std_of_augment_thin_spider():
    g = make_family("thin_spider", 4)
    c = number(g, "O").witness
    assert len(c) == 3
    out = augment_to_code(g, "OTD", c)
    assert is_x_code(g, "OTD", out)
    assert len(out) <= 4


def test_std_of_augment_full_sep():
    g = make_family("thin_spider", 5)
    c = number(g, "F").witness
    assert len(c) == 8
    out = augment_to_code(g, "FTD", c)
    assert is_x_code(g, "FTD", out)
    assert len(out) <= 9


def test_std_of_rejects_wrong_kind_and_isolated():
    g = make_family("path", 4)
    with pytest.raises(ValueError):
        augment_to_code(g, "L", number(g, "L").witness)
    iso = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        augment_to_code(iso, "OTD", frozenset({0, 2}))


def test_std_li_augment_thin_spider():
    g = make_family("thin_spider", 4)
    c = number(g, "I").witness
    out = augment_to_code(g, "ITD", c)
    assert is_x_code(g, "ITD", out)
    assert len(out) <= 2 * len(c)


def test_std_li_noop_when_total_dominating():
    g = make_family("cycle", 6)
    c = frozenset(range(6))
    out = augment_to_code(g, "LTD", c)
    assert out == c


@given(graphs(max_n=7), st.sampled_from(("L", "O", "I", "F")))
@settings(max_examples=150, deadline=None)
def test_augmentations_on_minimum_witnesses(g, s):
    res = number(g, s)
    if not res.feasible:
        return
    c = res.witness
    out = augment_to_code(g, s + "D", c)
    assert is_x_code(g, s + "D", out) and len(out) <= len(c) + 1
    if any(not g.adj[v] for v in range(g.n)):
        return
    out = augment_to_code(g, s + "TD", c)
    if s in ("O", "F"):
        assert is_x_code(g, s + "TD", out) and len(out) <= len(c) + 1
    else:
        assert is_x_code(g, s + "TD", out) and len(out) <= 2 * len(c)


# --- inequality checks -----------------------------------------------------


def test_fig2_arrow_shape():
    assert len(FIG2_ARROWS) == 12
    assert ("LD", "OD") in FIG2_ARROWS and ("FD", "FTD") in FIG2_ARROWS


@pytest.mark.parametrize(
    "family,size",
    [("path", 5), ("cycle", 6), ("thin_spider", 4), ("thick_spider", 4), ("clique", 4)],
)
def test_inequalities_on_families(family, size):
    g = make_family(family, size)
    nums = all_numbers(g)
    for theorem in ("eq4", "eq1+eq2", "fig2", "sep-order", "thm3+thm4+thm5"):
        report = check_inequalities(g, theorem, nums)
        assert report.passed, report.as_dict()


def test_house_all_checks_pass():
    house = complement(make_family("path", 5))
    for theorem in ("eq4", "eq1+eq2", "fig2", "sep-order", "thm3+thm4+thm5"):
        assert check_inequalities(house, theorem).passed
    for check in (check_complement_duality, check_gap_corollary):
        assert check(house).passed


def test_check_theorem_dispatches_by_id():
    g = make_family("thin_spider", 4)
    checks = {"thm7": check_complement_duality, "cor2": check_gap_corollary}
    for theorem in ("eq4", "eq1+eq2", "fig2", "sep-order", "thm3+thm4+thm5", "thm7", "cor2"):
        report = check_theorem(g, theorem)
        assert report.theorem == theorem and report.passed
        expected = checks[theorem](g) if theorem in checks else check_inequalities(g, theorem)
        assert report.as_dict() == expected.as_dict()
    with pytest.raises(ValueError):
        check_theorem(g, "thm99")


def test_gap_pairings_follow_the_within_one_bounds():
    # twin-free, so every pairing's hypothesis holds and nothing is skipped
    report = check_gap_corollary(make_family("path", 5))
    assert report.passed and not report.skipped
    assert sorted(report.quantities) == sorted(
        "|%s(G)-%s(co-G)|<=1" % pair
        for pair in (("LD", "LD"), ("ID", "OD"), ("OD", "ID"), ("FD", "FD"), ("FTD", "FTD"))
    )


def test_bound_report_skips_infeasible():
    star = make_family("star", 3)  # open twins: no O/F kinds
    report = check_inequalities(star, "thm3+thm4+thm5")
    assert report.passed
    assert any("O" in item for item in report.skipped)


# --- complementation -------------------------------------------------------


def test_duality_thin_thick_spider():
    g = make_family("thin_spider", 4)
    report = check_complement_duality(g)
    assert report.passed
    assert number(g, "I").tau == number(make_family("thick_spider", 4), "O").tau == 5


def test_duality_self_complementary_p4():
    assert check_complement_duality(make_family("path", 4)).passed


def test_duality_skips_under_twins():
    report = check_complement_duality(make_family("clique", 4))
    assert report.passed
    assert "I(G)=O(co-G)" in report.skipped
    assert "F(G)=F(co-G)" in report.skipped


def test_duality_reports_a_broken_clutter_identity(monkeypatch):
    # drop the first clutter edge of L on co-G only: the numbers still
    # agree, and the report names the identity with both clutters
    g = make_family("path", 5)
    real = theorems.code_hypergraph

    def broken(h, kind):
        out = real(h, kind)
        if h is g or kind != "L":
            return out
        return Hypergraph(out.n, out.clutter().edges[1:])

    monkeypatch.setattr(theorems, "code_hypergraph", broken)
    report = check_complement_duality(g)
    assert not report.passed
    ce = report.counterexample
    assert ce["item"] == "clutter:L(G)=L(co-G)"
    lhs, rhs = ce["lhs"], ce["rhs"]
    assert lhs == sorted(map(sorted, real(g, "L").clutter().sets()))
    assert len(rhs) == len(lhs) - 1 and all(e in lhs for e in rhs)
    for edges in (lhs, rhs):
        assert edges == sorted(edges) and all(e == sorted(e) for e in edges)
    back = json.loads(json.dumps(report.as_dict()))["counterexample"]
    assert (back["item"], back["lhs"], back["rhs"]) == (ce["item"], lhs, rhs)


@given(graphs(max_n=6))
@settings(max_examples=100, deadline=None)
def test_duality_and_gaps_random(g):
    assert check_complement_duality(g).passed
    assert check_gap_corollary(g).passed


def test_gap_corollary_spiders():
    g = make_family("thin_spider", 4)
    report = check_gap_corollary(g)
    assert report.passed
    lhs, rhs = report.quantities["|FD(G)-FD(co-G)|<=1"]
    assert lhs == rhs == 6


def test_gap_corollary_counterexample_keeps_both_sides():
    # LD pairs with LD, so a payload keyed by kind would keep one side only
    g = make_family("path", 5)
    co_numbers = all_numbers(complement(g))
    co_numbers["LD"] = CoverResult(True, 4, frozenset({0, 1, 2, 3}))
    report = check_gap_corollary(g, co_numbers=co_numbers)
    assert not report.passed
    ce = report.counterexample
    assert ce["item"] == "|LD(G)-LD(co-G)|<=1"
    assert ce["lhs"] == number(g, "LD").as_dict() and ce["lhs"]["number"] == 2
    assert ce["rhs"]["number"] == 4


def test_gap_corollary_skips_infeasible_side():
    g = make_family("empty", 3)
    report = check_gap_corollary(g)
    assert report.passed
    assert report.skipped


# --- spiders ---------------------------------------------------------------


def test_spider_closed_forms_values():
    forms = spider_closed_forms(4)
    assert forms["thin"]["L"] == 3 and forms["thin"]["I"] == 5
    assert forms["thin"]["F"] == 6 and forms["thick"]["O"] == 5
    assert forms["thick"]["ID"] == 4 and forms["thick"]["ITD"] == 5
    forms5 = spider_closed_forms(5)
    assert forms5["thin"]["ITD"] == 9 and forms5["thin"]["FTD"] == 9


def test_spider_closed_forms_range():
    with pytest.raises(ValueError):
        spider_closed_forms(3)


def test_spider_check_k5_passes():
    report = check_spider_formulas(5)
    assert report.passed, report.as_dict()


def test_spider_check_k4_known_boundary_mismatch():
    # k=4 is the boundary of the thick LD/LTD entries: no 3-set of the thick
    # spider is locating-dominating, so both are 4 there, not k-1 = 3 as
    # from k=5 on; the checker must agree with the table at the boundary
    report = check_spider_formulas(4)
    assert report.passed, report.as_dict()
    forms = spider_closed_forms(4)
    assert report.quantities["thick:LD"] == forms["thick"]["LD"] == 4
    assert report.quantities["thick:LTD"] == forms["thick"]["LTD"] == 4
    forms5 = spider_closed_forms(5)
    assert forms5["thick"]["LD"] == forms5["thick"]["LTD"] == 4
    # the definition-based brute force confirms the boundary value
    assert x_number_bruteforce(make_family("thick_spider", 4), "LD").tau == 4


# --- paths and cycles ------------------------------------------------------


def test_path_and_cycle_closed_forms():
    # LD(P_n) = LD(C_n) = ceil(2n/5) (Slater 1988); ID(P_n) = ceil((n+1)/2)
    # except at P_2, whose two vertices are closed twins (Bertrand, Charon,
    # Hudry and Lobstein 2004); ID(C_n) = n/2 for even n >= 6, while C_4
    # needs 3 (Gravier, Moncel and Semri 2006)
    cases = [("path", n, "LD", -(-2 * n // 5)) for n in range(1, 31)]
    cases += [("cycle", n, "LD", -(-2 * n // 5)) for n in range(3, 31)]
    cases += [("path", n, "ID", (n + 2) // 2) for n in [1] + list(range(3, 31))]
    cases += [("cycle", n, "ID", n // 2) for n in range(6, 31, 2)]
    cases.append(("cycle", 4, "ID", 3))
    wrong = {}
    for family, n, kind, expected in cases:
        got = number(make_family(family, n), kind).tau
        if got != expected:
            wrong[family, n, kind] = (expected, got)
    assert not wrong
