"""Remake sepbench/reference.json: the benchmark's input graphs and their
exact numbers, solved by an integer program independent of sepcodes.

    python3 sepbench/make_reference.py

For every graph of the exact-solve and verify-sweep pools, and for its
complement, each of the 14 kinds is solved as a 0/1 minimum-cover program
with scipy.optimize.milp (HiGHS).  The constraint rows come from
defs.constraint_rows, which reads them off the neighbourhood definitions.
The timed runs only read the stored file; they never import scipy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import defs

POOL_SEED = 20261018
# A round of each workload holds at least 100 distinct ops, so that its
# 90th percentile has ten ops above it.
# exact-solve: twin-free graphs without isolated vertices, so that all 14
# kinds are feasible and every op is a real solve; one per order from 22 to
# 28 and a second one of 22 vertices, 8 x 14 = 112 ops.
EXACT_ORDERS = (22,) + tuple(range(22, 29))
EXACT_DENSITIES = (0.25, 0.35, 0.5)
# verify-sweep: plain random graphs, twins allowed; three per (order,
# density), 105 ops.
VERIFY_ORDERS = tuple(range(8, 15))
VERIFY_DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)
VERIFY_PER_CELL = 3
# The exact-solve op that the recursive lex-min search cannot finish.
PATH_ORDER = 1100
PATH_KIND = "D"

REFERENCE = Path(__file__).resolve().with_name("reference.json")


def random_edges(n: int, p: float, rng: random.Random) -> list[list[int]]:
    return [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def all_kinds_feasible(n: int, edges) -> bool:
    adj = defs.neighbourhoods(n, edges)
    return all(all(defs.constraint_rows(adj, kind)) for kind in defs.KINDS)


def exact_pool(rng: random.Random) -> list[dict]:
    pool = []
    for i, n in enumerate(EXACT_ORDERS):
        p = EXACT_DENSITIES[i % len(EXACT_DENSITIES)]
        edges = random_edges(n, p, rng)
        while not all_kinds_feasible(n, edges):
            edges = random_edges(n, p, rng)
        pool.append({"n": n, "density": p, "edges": edges})
    return pool


def verify_pool(rng: random.Random) -> list[dict]:
    return [{"n": n, "density": p, "edges": random_edges(n, p, rng)}
            for n in VERIFY_ORDERS for p in VERIFY_DENSITIES for _ in range(VERIFY_PER_CELL)]


def milp_minimum(n: int, rows) -> int | None:
    """Minimum number of vertices meeting every row; None if a row is empty."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    if any(not row for row in rows):
        return None
    if not rows:
        return 0
    ri = [i for i, row in enumerate(rows) for _ in row]
    ci = [v for row in rows for v in row]
    a = coo_matrix((np.ones(len(ci)), (ri, ci)), shape=(len(rows), n))
    res = milp(np.ones(n), constraints=LinearConstraint(a, lb=1.0, ub=np.inf),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError("HiGHS did not solve a feasible cover program: %s" % res.message)
    return int(round(res.fun))


def numbers(n: int, edges) -> dict:
    adj = defs.neighbourhoods(n, edges)
    return {kind: milp_minimum(n, defs.constraint_rows(adj, kind)) for kind in defs.KINDS}


def with_numbers(graph: dict) -> dict:
    n, edges = graph["n"], graph["edges"]
    return dict(graph, numbers=numbers(n, edges),
                co_numbers=numbers(n, defs.complement_edges(n, edges)))


def build() -> dict:
    rng = random.Random(POOL_SEED)
    exact = [with_numbers(g) for g in exact_pool(rng)]
    verify = [with_numbers(g) for g in verify_pool(rng)]
    path_edges = [[i, i + 1] for i in range(PATH_ORDER - 1)]
    path_adj = defs.neighbourhoods(PATH_ORDER, path_edges)
    path = {"n": PATH_ORDER, "kind": PATH_KIND,
            "number": milp_minimum(PATH_ORDER, defs.constraint_rows(path_adj, PATH_KIND))}
    return {"pool_seed": POOL_SEED, "exact-solve": exact, "path": path, "verify-sweep": verify}


def dump(ref: dict) -> str:
    """JSON with one graph per line, so a diff of the file stays readable."""
    parts = []
    for key in sorted(ref):
        value = ref[key]
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(item, sort_keys=True) for item in value)
            parts.append("%s: [\n%s\n ]" % (json.dumps(key), body))
        else:
            parts.append("%s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True)))
    return "{\n " + ",\n ".join(parts) + "\n}\n"


if __name__ == "__main__":
    REFERENCE.write_text(dump(build()))
    print("wrote %s" % REFERENCE)
