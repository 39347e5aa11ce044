"""Build a hardness-reduction graph from a Test-Cover instance and verify
both directions at desk scale.

The reduction maps "is there a sub-collection of at most ell tests
splitting every item pair" to "does the constructed graph have a
separating set of size at most k".  On tiny instances both sides are
solved exactly and compared.

Run: PYTHONPATH=src python3 demos/hardness_reduction.py
"""

from sepcodes import (
    TestCoverInstance,
    build_reduction,
    check_gadget_lower_bound,
    forward_s_set,
    is_x_code,
    padded_test_choice,
    solve_test_cover,
    verify_reduction_iff,
)

if __name__ == "__main__":
    inst = TestCoverInstance.of(3, [{0}, {1}, {0, 2}], 2)
    tc = solve_test_cover(inst)
    print("instance: 3 items, tests %s, budget %d"
          % ([sorted(t) for t in inst.tests], inst.budget))
    print("minimum test sub-collection: %s (size %d)" % (sorted(tc.witness), tc.tau))
    print()
    for s in ("I", "O", "L", "F"):
        art = build_reduction(inst, s)
        fwd = forward_s_set(art, padded_test_choice(inst))
        print("%s-reduction: n=%d, k=%d" % (s, art.graph.n, art.k))
        print("  forward set size %d, separating=%s, meets region bound=%s"
              % (len(fwd), is_x_code(art.graph, s, fwd),
                 check_gadget_lower_bound(art, fwd)))
        print("  exact iff agreement: %s" % verify_reduction_iff(inst, s))
