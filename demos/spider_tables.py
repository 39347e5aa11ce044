"""Recompute the spider closed-form tables with the exact solver.

Thin spiders: clique of size k matched to a stable set of size k.  Thick
spiders are their complements.  For each k the script prints the tabulated
value next to what the solver finds; a star marks disagreements.

Run: PYTHONPATH=src python3 demos/spider_tables.py [kmax]
"""

import sys

from sepcodes import make_family, number, spider_closed_forms

KINDS = ("L", "O", "I", "F", "LD", "OD", "ID", "FD", "LTD", "OTD", "ITD", "FTD")


def table(shape, k):
    g = make_family(shape + "_spider", k)
    forms = spider_closed_forms(k)[shape]
    print("%s spider, k=%d (n=%d)" % (shape, k, g.n))
    print("  kind  table  solver")
    for kind in KINDS:
        got = number(g, kind).tau
        mark = "" if got == forms[kind] else "   *** differs"
        print("  %-5s %5d  %6d%s" % (kind, forms[kind], got, mark))
    print()


if __name__ == "__main__":
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    for k in range(4, kmax + 1):
        table("thin", k)
        table("thick", k)
