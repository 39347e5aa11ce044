"""Command-line front end.

Verbs: compute, verify, families, reduce, dump, spiders.  All results are
JSON on stdout with sorted keys (so identical inputs give byte-identical
output); diagnostics go to stderr.  Exit codes: 0 success, 1 input or
usage error, 2 infeasible or failed check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .graphs import (
    FAMILY_NAMES,
    GraphParseError,
    detect_twins,
    format_graph,
    make_family,
    parse_graph,
)
from .hypergraphs import format_hypergraph
from .kinds import ALL_KINDS
from .reductions import (
    build_reduction,
    check_gadget_lower_bound,
    forward_s_set,
    padded_test_choice,
    parse_test_cover,
    verify_reduction_iff,
)
from .separation import code_hypergraph, is_x_code, number
from .theorems import check_spider_formulas, check_theorem, spider_closed_forms

DEFAULT_GUARD = 40

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


class InputError(Exception):
    pass


def _emit(payload, pretty: bool = False):
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _load_graph(path: str):
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise InputError(str(exc))
    except GraphParseError as exc:
        raise InputError("%s: %s" % (path, exc))


def _write_out(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("cannot write --out: %s" % exc)


def _check_guard(n: int, guard: int):
    if guard < 0:
        raise InputError("--guard must be a nonnegative vertex count, got %d" % guard)
    if n > guard:
        raise InputError(
            "graph has %d vertices, over the exact-solver guard %d "
            "(raise with --guard)" % (n, guard)
        )


def cmd_compute(args) -> int:
    g = _load_graph(args.graph)
    _check_guard(g.n, args.guard)
    res = number(g, args.kind)
    payload = {"command": "compute", "kind": args.kind}
    payload.update(res.as_dict())
    if not res.feasible:
        twins = detect_twins(g)
        payload["isolated"] = list(twins.isolated)
        payload["open_twins"] = [list(p) for p in twins.open_twins]
        payload["closed_twins"] = [list(p) for p in twins.closed_twins]
        _emit(payload, args.pretty)
        return EXIT_INFEASIBLE
    _emit(payload, args.pretty)
    return EXIT_OK


# verify id -> theorem id of its report (theorems.INEQUALITIES, thm7, cor2)
_CHECKS = {"3": "thm3+thm4+thm5", "4": "thm3+thm4+thm5", "5": "thm3+thm4+thm5",
           "7": "thm7", "cor2": "cor2", "fig2": "fig2", "eq1": "eq1+eq2",
           "eq2": "eq1+eq2", "eq4": "eq4", "sep": "sep-order"}


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    _check_guard(g.n, args.guard)
    wanted = args.theorems.split(",") if args.theorems else sorted(set(_CHECKS))
    for name in wanted:
        if name not in _CHECKS:
            raise InputError("unknown theorem id %r" % name)
    reports = [check_theorem(g, t) for t in dict.fromkeys(_CHECKS[name] for name in wanted)]
    payload = {
        "command": "verify",
        "reports": [r.as_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _emit(payload, args.pretty)
    return EXIT_OK if payload["all_passed"] else EXIT_INFEASIBLE


def cmd_families(args) -> int:
    try:
        g = make_family(args.name, args.k)
    except ValueError as exc:
        raise InputError(str(exc))
    text = format_graph(g)
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stderr.write(text)
    _emit({"command": "families", "family": args.name, "k": args.k,
           "n": g.n, "m": g.num_edges(), "out": args.out}, args.pretty)
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        with open(args.testcover) as fh:
            inst = parse_test_cover(fh.read())
    except (OSError, ValueError) as exc:
        raise InputError(str(exc))
    try:
        art = build_reduction(inst, args.sep)
    except ValueError as exc:
        raise InputError(str(exc))
    payload = {
        "command": "reduce",
        "sep": args.sep,
        "num_items": inst.num_items,
        "num_tests": len(inst.tests),
        "budget": inst.budget,
        "n": art.graph.n,
        "m": art.graph.num_edges(),
        "k": art.k,
        "out": args.out,
    }
    if args.out:
        _write_out(args.out, format_graph(art.graph))
    if args.verify:
        _check_guard(art.graph.n, args.guard)
        chosen = padded_test_choice(inst)
        forward = forward_s_set(art, chosen)
        payload["forward_size"] = len(forward)
        payload["forward_is_s_set"] = is_x_code(art.graph, args.sep, forward)
        payload["forward_meets_lemma_bound"] = check_gadget_lower_bound(art, forward)
        payload["iff_agrees"] = verify_reduction_iff(inst, args.sep)
    _emit(payload, args.pretty)
    if payload.get("iff_agrees") is False:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_dump(args) -> int:
    g = _load_graph(args.graph)
    h = code_hypergraph(g, args.kind)
    if not args.raw:
        h = h.clutter()
    text = format_hypergraph(h)
    if args.out:
        _write_out(args.out, text)
        _emit({"command": "dump", "kind": args.kind, "edges": len(h.edges),
               "out": args.out}, args.pretty)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_spiders(args) -> int:
    if args.k < 4:
        raise InputError("spider closed forms need k >= 4")
    forms = spider_closed_forms(args.k)
    payload = {"command": "spiders", "k": args.k, "closed_forms": forms}
    if args.check:
        _check_guard(2 * args.k, args.guard)  # both spiders have 2k vertices
        report = check_spider_formulas(args.k)
        payload["check"] = report.as_dict()
        _emit(payload, args.pretty)
        return EXIT_OK if report.passed else EXIT_INFEASIBLE
    _emit(payload, args.pretty)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other input errors; 2 means a negative
    answer.  Subparsers inherit this class."""

    def error(self, message):
        raise InputError("%s%s: error: %s" % (self.format_usage(), self.prog, message))


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="sepcodes",
                 description="Exact separation sets and identification codes in graphs.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    def solving(p):  # verbs that solve exactly take the guard
        common(p)
        p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                       help="max graph size for exact solving (default %d)" % DEFAULT_GUARD)

    p = sub.add_parser("compute", help="compute one separation or code number")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True, choices=ALL_KINDS)
    solving(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run theorem checks on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--theorems", default=None,
                   help="comma list from 3,4,5,7,cor2,fig2,eq1,eq2,eq4,sep (default all)")
    solving(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("families", help="emit a named family graph")
    p.add_argument("--name", required=True, choices=FAMILY_NAMES)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("reduce", help="build a hardness-reduction graph from a test-cover file")
    p.add_argument("--testcover", required=True)
    p.add_argument("--sep", required=True, choices=("I", "O", "F", "L"))
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true",
                   help="check the forward construction and the exact iff")
    solving(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("dump", help="dump the (clutter of the) hypergraph for a kind")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", required=True, choices=ALL_KINDS)
    p.add_argument("--raw", action="store_true", help="dump without clutter reduction")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("spiders", help="spider closed forms, optionally checked against the solver")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check", action="store_true")
    solving(p)
    p.set_defaults(fn=cmd_spiders)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
