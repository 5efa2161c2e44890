#!/usr/bin/env python3
"""Walk one instance of the bundle <-> adjunction correspondence end to
end and print what happens at each step.

Usage: python scripts/roundtrip_demo.py [group] [base-size]
"""

import sys

from finbundles.catalog import groups
from finbundles.finset import FinSet
from finbundles.algebra import arrows_action, trivial_action
from finbundles.adjunction import (
    adjunction_to_bundle,
    bundle_to_adjunction,
    check_frobenius,
    check_stably_frobenius,
    check_triangles,
    tensor,
)
from finbundles.categories import action_family, slice_family
from finbundles.suites import stable_slice_objects
from finbundles.torsor import division_map, enumerate_torsors, is_principal_bundle


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "z3"
    base_size = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    g = groups(8)[name]
    x = FinSet(base_size)
    carrier = FinSet(g.order * base_size)
    print("group %s (order %d), base of size %d" % (name, g.order, base_size))

    enum = enumerate_torsors(g, x, carrier)
    print("torsor structures on a %d-point carrier: %d (%d up to iso)"
          % (carrier.size, enum.structures, enum.iso_count))
    w = enum.class_reps()[0]
    print("representative: proj=%s" % (list(w.bundle.proj.table),))
    division_map(w)
    print("division laws verified on %d fibrewise pairs" % len(w.pairs))

    pres = bundle_to_adjunction(w)
    dom_objs = slice_family(x, 2)
    cod_objs = action_family(g, 2)
    print("triangle identities:",
          check_triangles(pres, dom_objs, cod_objs)["passed"])
    print("reciprocity:",
          check_frobenius(pres, cod_objs, dom_objs)["passed"])
    stable = check_stably_frobenius(pres, stable_slice_objects(g, x),
                                    dom_objs, cod_objs)
    print("stable reciprocity over %d slices:" % stable["slices"],
          stable["passed"])

    t = tensor(w.bundle.action, arrows_action(g))
    print("tensor with the group object has %d classes (carrier size %d)"
          % (t.carrier.size, w.bundle.action.carrier.size))
    t2 = tensor(w.bundle.action, trivial_action(g, FinSet(3)))
    print("tensor with a trivial 3-point action has %d classes" % t2.carrier.size)

    b2 = adjunction_to_bundle(pres, dom_objs, cod_objs)
    w2 = is_principal_bundle(b2)
    print("round trip returns a torsor on %d points over %d, proj=%s"
          % (b2.action.carrier.size, b2.base.size, list(b2.proj.table)))


if __name__ == "__main__":
    main()
