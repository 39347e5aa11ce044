"""Separation numbers under graph complementation.

Locating numbers coincide for a graph and its complement; closed and open
separation swap roles (absent the corresponding twins); full separation is
self-dual on twin-free graphs.  The script checks this on a small catalog
and prints the underlying clutter identity for one example: the clutter
(`Hypergraph.clutter`) of each side's code hypergraph, in dump format.

Run: PYTHONPATH=src python3 demos/complement_duality.py
"""

from sepcodes import (
    check_complement_duality,
    code_hypergraph,
    complement,
    format_hypergraph,
    make_family,
)

GRAPHS = [
    ("P5", make_family("path", 5)),
    ("C6", make_family("cycle", 6)),
    ("P4 (self-complementary)", make_family("path", 4)),
    ("thin spider k=4", make_family("thin_spider", 4)),
]

if __name__ == "__main__":
    for name, g in GRAPHS:
        rep = check_complement_duality(g)
        print("%-25s passed=%s  skipped=%s" % (name, rep.passed, rep.skipped or "-"))
        for label, (a, b) in sorted(rep.quantities.items()):
            print("    %-15s %s = %s" % (label, a, b))
    print()
    g = make_family("path", 4)
    print("clutter of the closed-separation hypergraph of P4:")
    print(format_hypergraph(code_hypergraph(g, "I").clutter()))
    print("clutter of the open-separation hypergraph of its complement:")
    print(format_hypergraph(code_hypergraph(complement(g), "O").clutter()))
