"""Compute separation and code numbers for a few small graphs.

Run: PYTHONPATH=src python3 demos/separation_basics.py
"""

from sepcodes import (
    ALL_KINDS,
    complement,
    detect_twins,
    make_family,
    number,
)


def show(name, g):
    rep = detect_twins(g)
    print("%s  (n=%d, m=%d, twin-free=%s)" % (name, g.n, g.num_edges(), rep.twin_free))
    for kind in ALL_KINDS:
        res = number(g, kind)
        if res.feasible:
            print("  %-4s %2d   witness %s" % (kind, res.tau, sorted(res.witness)))
        else:
            print("  %-4s infeasible" % kind)
    print()


if __name__ == "__main__":
    show("path P5", make_family("path", 5))
    show("house (complement of P5)", complement(make_family("path", 5)))
    show("star K_{1,3}", make_family("star", 3))
    show("clique K4", make_family("clique", 4))
