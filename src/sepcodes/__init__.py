"""Exact computation of graph separation sets and identification codes.

The library builds on a single reformulation: each separation or code
number of a graph is the covering number of a hypergraph assembled from
symmetric differences of neighborhoods (plus neighborhoods themselves for
domination).  Around that core sit definition-based oracles, an executable
theorem suite, and the Test-Cover hardness-reduction constructions.
"""

__version__ = "0.1.0"

from .catalog import all_graphs, random_graphs, small_graph_catalog
from .graphs import (
    AdmissibilityReport,
    Graph,
    GraphParseError,
    closed_neighborhood,
    complement,
    detect_twins,
    format_graph,
    make_family,
    open_neighborhood,
    parse_graph,
)
from .hypergraphs import (
    CoverResult,
    Hypergraph,
    complete_rose,
    covering_number,
    covering_number_at_most,
    covering_number_bruteforce,
    format_hypergraph,
    is_cover,
)
from .kinds import ALL_KINDS, CODE_KINDS, DOMINATION_KINDS, SEPARATION_KINDS
from .reductions import (
    ReductionArtifact,
    TestCoverInstance,
    build_gadget,
    build_reduction,
    check_gadget_lower_bound,
    forward_s_set,
    gadget_lower_bound,
    padded_test_choice,
    parse_test_cover,
    solve_test_cover,
    tiny_instances,
    validate_test_cover,
    verify_reduction_iff,
)
from .separation import code_hypergraph, is_x_code, number, x_number_bruteforce
from .theorems import (
    TheoremReport,
    all_numbers,
    augment_to_code,
    check_complement_duality,
    check_inequalities,
    check_gap_corollary,
    check_spider_formulas,
    spider_closed_forms,
)
