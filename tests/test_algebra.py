from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finbundles import catalog
from finbundles.finset import FinFn, FinSet, TERMINAL, all_functions, product, pullback
from finbundles.algebra import (
    AlgebraMismatch,
    AnchorMismatch,
    AssocLawFail,
    BadComposability,
    BadIdentity,
    BadInverse,
    EquivariantMap,
    NoInverse,
    NotAssociative,
    NotEquivariant,
    NoUnit,
    UnitLawFail,
    action_product,
    all_actions,
    arrows_action,
    discrete_groupoid,
    equivariant_maps,
    pullback_action,
    pair_groupoid,
    sigma,
    sigma_mor,
    terminal_action,
    trivial_action,
    untwist_iso,
    validate_action,
    validate_group,
    validate_groupoid,
)

GROUPS = catalog.groups(8)
GROUPOIDS = catalog.groupoids()


def oracle_group_axioms(mul, unit, inv):
    """Independent triple-loop check of every group axiom."""
    n = len(mul)
    for a in range(n):
        if mul[unit][a] != a or mul[a][unit] != a:
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
    for a in range(n):
        if mul[inv[a]][a] != unit or mul[a][inv[a]] != unit:
            return False
    return True


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_catalog_groups_validate_and_match_oracle(name):
    g = GROUPS[name]
    unit, inv = g.ident.table[0], [g.inverse(a) for a in range(g.order)]
    validate_group([list(r) for r in g.comp], unit, inv)
    assert oracle_group_axioms(g.comp, unit, inv)


def test_group_orders_cover_all_orders_up_to_8():
    by_order = {}
    for g in GROUPS.values():
        by_order.setdefault(g.order, []).append(g)
    assert {n: len(v) for n, v in sorted(by_order.items())} == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}


def test_validate_group_broken_unit():
    # the table declares unit 0 but 0*0 = 1
    with pytest.raises(NoUnit) as exc:
        validate_group([[1, 0], [0, 1]], 0, [0, 1])
    assert exc.value.witness == 0


def test_validate_group_broken_assoc():
    mul = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    mul[1][1] = 1
    with pytest.raises((NotAssociative, NoInverse)) as exc:
        validate_group(mul, 0, [0, 2, 1])
    assert exc.value.witness is not None


def test_validate_group_broken_inverse():
    with pytest.raises(NoInverse) as exc:
        validate_group([[0, 1], [1, 0]], 0, [0, 0])
    assert exc.value.witness == 1


def test_validate_group_rejects_empty():
    with pytest.raises(ValueError):
        validate_group([], 0, [])


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_catalog_groupoids_validate(name):
    g = GROUPOIDS[name]
    validate_groupoid(g.objects.size, g.arrows.size, list(g.src.table),
                      list(g.tgt.table), list(g.ident.table),
                      [list(r) for r in g.comp], list(g.inv.table))


def test_discrete_groupoid_identities_only():
    g = discrete_groupoid(3)
    assert g.arrows.size == 3
    assert all(g.comp[a][a] == a for a in range(3))


def test_pair_groupoid_all_composites():
    g = pair_groupoid(2)
    assert g.arrows.size == 4
    # oracle: arrows are pairs (tgt, src); composition matches relation glue
    for a in range(4):
        for b in range(4):
            s_a, t_a = g.src.table[a], g.tgt.table[a]
            s_b, t_b = g.src.table[b], g.tgt.table[b]
            if s_a == t_b:
                c = g.comp[a][b]
                assert g.src.table[c] == s_b and g.tgt.table[c] == t_a
            else:
                assert g.comp[a][b] is None


def test_one_object_groupoid_matches_group():
    # a group is its one-object groupoid: validate_group and the generic
    # groupoid validation give the same value, with the same hash
    for name, g in sorted(GROUPS.items()):
        n, unit = g.order, g.ident.table[0]
        mul = [list(r) for r in g.comp]
        inv = [g.inverse(a) for a in range(n)]
        as_group = validate_group(mul, unit, inv)
        as_groupoid = validate_groupoid(1, n, [0] * n, [0] * n, [unit], mul, inv)
        assert as_group == as_groupoid, name
        assert hash(as_group) == hash(as_groupoid), name


def test_validate_groupoid_bad_composability():
    g = discrete_groupoid(2)
    comp = [list(r) for r in g.comp]
    comp[0][1] = 0
    with pytest.raises(BadComposability):
        validate_groupoid(2, 2, [0, 1], [0, 1], [0, 1], comp, [0, 1])


def test_validate_groupoid_bad_identity_and_inverse():
    z2 = GROUPS["z2"]
    with pytest.raises(BadIdentity):
        validate_groupoid(1, 2, [0, 0], [0, 0], [1],
                          [list(r) for r in z2.comp], [0, 1])
    with pytest.raises(BadInverse):
        validate_groupoid(1, 2, [0, 0], [0, 0], [0],
                          [list(r) for r in z2.comp], [0, 0])


def test_validate_action_examples():
    z2 = GROUPS["z2"]
    trivial_action(z2, FinSet(5))
    arrows_action(z2)
    # acting by a non-involution breaks associativity
    with pytest.raises(AssocLawFail) as exc:
        validate_action(z2, FinSet(2), [[0, 1], [0, 0]])
    g, h, p = exc.value.witness
    assert g == h == 1
    with pytest.raises(UnitLawFail):
        validate_action(z2, FinSet(2), [[1, 0], [0, 1]])


def test_validate_action_groupoid_anchor_rules():
    g = discrete_groupoid(2)
    anchor = FinFn(FinSet(2), g.objects, (0, 1))
    validate_action(g, FinSet(2), [[0, None], [None, 1]], anchor)
    with pytest.raises(AnchorMismatch):
        validate_action(g, FinSet(2), [[0, 1], [None, None]], anchor)
    with pytest.raises(AnchorMismatch):
        validate_action(g, FinSet(2), [[0, None], [None, 1]], None)


def test_trivial_action_and_self_action_are_valid():
    for name, g in GROUPS.items():
        validate_action(g, g.arrows, g.comp)
        a = trivial_action(g, FinSet(3))
        assert all(a.act[h] == (0, 1, 2) for h in range(g.order))


def test_trivial_action_groupoid_shape():
    g = GROUPOIDS["pair2"]
    a = trivial_action(g, FinSet(2))
    assert a.carrier.size == 4
    validate_action(g, a.carrier, a.act, a.anchor)


def test_trivial_action_functorial_on_composites():
    import itertools as it

    z2 = GROUPS["z2"]
    for n1, n2, n3 in it.product(range(4), repeat=3):
        s1, s2, s3 = FinSet(n1), FinSet(n2), FinSet(n3)
        for f in all_functions(s1, s2):
            for g in all_functions(s2, s3):
                a1, a2, a3 = (trivial_action(z2, s) for s in (s1, s2, s3))
                m1 = EquivariantMap(a1, a2, f)
                m2 = EquivariantMap(a2, a3, g)
                composite = EquivariantMap(a1, a3, f.then(g))
                assert composite.fn == m1.fn.then(m2.fn)


def oracle_orbit_count(a):
    """Independent orbit oracle: breadth-first search from every point."""
    seen = [False] * a.carrier.size
    count = 0
    for start in range(a.carrier.size):
        if seen[start]:
            continue
        count += 1
        queue = [start]
        seen[start] = True
        while queue:
            p = queue.pop()
            for g in range(a.algebra.order):
                q = a.act[g][p]
                if q is not None and not seen[q]:
                    seen[q] = True
                    queue.append(q)
    return count


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_sigma_self_action_is_a_point(name):
    g = GROUPS[name]
    orb = sigma(arrows_action(g))
    assert orb.quotient.size == 1
    assert orb.q.is_surjection()


def test_sigma_trivial_action_is_identity():
    z3 = GROUPS["z3"]
    for n in range(4):
        orb = sigma(trivial_action(z3, FinSet(n)))
        assert orb.quotient.size == n
        assert orb.q.is_bijection()


def test_sigma_two_free_orbits():
    z3 = GROUPS["z3"]
    # two disjoint translation copies on six points
    act = []
    for g in range(3):
        row = [(p + g) % 3 for p in range(3)] + [3 + (p + g) % 3 for p in range(3)]
        act.append(tuple(row))
    a = validate_action(z3, FinSet(6), act)
    orb = sigma(a)
    assert orb.quotient.size == oracle_orbit_count(a) == 2


def test_sigma_mor_well_defined_on_orbits():
    z2 = GROUPS["z2"]
    a = arrows_action(z2)
    b = trivial_action(z2, FinSet(2))
    for fn in equivariant_maps(a, b):
        induced = sigma_mor(a, b, fn)
        assert induced.dom.size == 1


def test_action_product_unit_law():
    z2 = GROUPS["z2"]
    a = arrows_action(z2)
    one = trivial_action(z2, TERMINAL)
    prod, pb = action_product(a, one)
    assert prod.carrier.size == a.carrier.size
    assert pb.p1.is_bijection()


def test_action_product_self_squared_free():
    z2 = GROUPS["z2"]
    prod, _ = action_product(arrows_action(z2), arrows_action(z2))
    assert prod.carrier.size == 4
    assert sigma(prod).quotient.size == 2


def test_action_product_requires_same_algebra():
    with pytest.raises(AlgebraMismatch):
        action_product(arrows_action(GROUPS["z2"]), arrows_action(GROUPS["z3"]))


def test_action_product_groupoid_is_fibrewise():
    g = GROUPOIDS["discrete2"]
    anchor = FinFn(FinSet(2), g.objects, (0, 1))
    a = validate_action(g, FinSet(2), [[0, None], [None, 1]], anchor)
    prod, _ = action_product(a, a)
    assert prod.carrier.size == 2  # only equal-anchor pairs


def test_untwist_trivial_action_is_identity():
    z3 = GROUPS["z3"]
    u = untwist_iso(trivial_action(z3, FinSet(2)))
    assert u.cert.forward == FinFn.identity(u.trivial_side.carrier)


def test_untwist_self_action_z2():
    z2 = GROUPS["z2"]
    u = untwist_iso(arrows_action(z2))
    # (a, g) -> (g a, g) on row-major pairs of a 2x2 square
    assert u.cert.forward.table == (0, 3, 2, 1)


def test_untwist_exhaustive_small():
    for name in ("z1", "z2", "z3", "z4", "v4"):
        g = GROUPS[name]
        for n in range(4):
            for a in all_actions(g, FinSet(n)):
                u = untwist_iso(a)
                assert u.forward.fn.is_bijection()


def test_sigma_adjunction_hom_bijection():
    # equivariant maps into a trivial action correspond to plain maps
    # out of the orbit set
    z2 = GROUPS["z2"]
    for a in all_actions(z2, FinSet(3)):
        orb = sigma(a)
        for n in range(3):
            x = FinSet(n)
            triv = trivial_action(z2, x)
            homs = list(equivariant_maps(a, triv))
            plain = list(all_functions(orb.quotient, x))
            assert len(homs) == len(plain)
            transposed = {h.table for h in (orb.q.then(u) for u in plain)}
            assert transposed == {h.table for h in homs}


def test_sigma_frobenius_bijection_bounded():
    # the canonical comparison from orbits of a trivially-twisted product
    # onto the product of the set with the orbits is a bijection, for
    # every group of order <= 6, |X| <= 3 and every action on <= 4 points
    for name, g in sorted(GROUPS.items()):
        if g.order > 6:
            continue
        for nx in range(4):
            x = FinSet(nx)
            gx = trivial_action(g, x)
            for n in range(5):
                for a in all_actions(g, FinSet(n)):
                    prod, pb = action_product(gx, a)
                    orb_prod = sigma(prod)
                    orb_a = sigma(a)
                    target = product(x, orb_a.quotient)
                    table = tuple(
                        target.index(pb.pairs[orb_prod.reps[k]][0],
                                     orb_a.q.table[pb.pairs[orb_prod.reps[k]][1]])
                        for k in range(orb_prod.quotient.size))
                    comparison = FinFn(orb_prod.quotient, target.carrier, table)
                    assert comparison.is_bijection()


def test_one_object_groupoid_agrees_with_group():
    # over one object the omitted anchor is the constant map
    z2 = GROUPS["z2"]
    anchor = FinFn(z2.arrows, z2.objects, (0, 0))
    assert validate_action(z2, z2.arrows, z2.comp, anchor) == validate_action(
        z2, z2.arrows, z2.comp) == arrows_action(z2)
    for name, g in sorted(GROUPS.items()):
        if g.order > 4:
            continue
        for n in range(5):
            x = FinSet(n)
            # the trivial action's point (0, x) has index 0 * |X| + x
            identity = tuple(0 * n + xi for xi in range(n))
            assert trivial_action(g, x).act == (identity,) * g.order, (name, n)


def test_terminal_action_groupoid():
    g = GROUPOIDS["pair2"]
    t = terminal_action(g)
    validate_action(g, t.carrier, t.act, t.anchor)
    assert t.carrier.size == g.objects.size


def test_equivariant_map_rejects_non_equivariant():
    z2 = GROUPS["z2"]
    a = arrows_action(z2)
    with pytest.raises(NotEquivariant):
        EquivariantMap(a, a, FinFn(a.carrier, a.carrier, (0, 0)))


def test_pullback_action_names_the_arrow_that_leaves_the_pullback():
    # the identity legs from the free and the trivial z2-set on two points
    # are not both equivariant: the generator sends the pair (0, 0) to
    # (1, 0), which is off the diagonal
    z2 = GROUPS["z2"]
    two = FinSet(2)
    pb = pullback(FinFn.identity(two), FinFn.identity(two))
    with pytest.raises(NotEquivariant) as exc:
        pullback_action(pb, arrows_action(z2), trivial_action(z2, two))
    assert exc.value.witness == (1, (0, 0))


def test_action_enumeration_counts_match_hom_counts():
    # a transitive action on d labelled points is fixed by the anchor o and
    # the stabiliser H <= Aut(o) of its least point, with d = |out(o)|/|H|,
    # and by the (d-1)! labellings of the other points.  Every action is a
    # disjoint union of orbits, so the counts h_n on n points satisfy
    # sum_n h_n x^n/n! = exp(sum_(o, H) x^d/d); differentiating gives
    # h_n = sum_(o, H) (n-1)!/(n-d)! h_(n-d).  For a group this counts the
    # homomorphisms G -> S_n.  The subgroups are read off the table by
    # brute force.
    from itertools import combinations
    from math import factorial

    def subgroups(alg, o):
        loops = [a for a in range(alg.order) if alg.src.table[a] == o == alg.tgt.table[a]]
        return [sub for size in range(1, len(loops) + 1) if len(loops) % size == 0
                for sub in combinations(loops, size)
                if all(alg.comp[a][b] in sub for a in sub for b in sub)]

    def action_counts(alg, top):
        indices = [alg.src.table.count(o) // len(sub) for o in range(alg.objects.size)
                   for sub in subgroups(alg, o)]
        h = [1]
        for n in range(1, top + 1):
            h.append(sum(factorial(n - 1) // factorial(n - d) * h[n - d]
                         for d in indices if d <= n))
        return h

    assert action_counts(GROUPS["v4"], 6)[6] == 1216
    assert action_counts(GROUPS["d4"], 6)[6] == 2656
    assert action_counts(GROUPS["z2xz2xz2"], 6)[6] == 12496
    # on the discrete groupoid an action is an anchor map
    assert action_counts(GROUPOIDS["discrete3"], 6)[6] == 3 ** 6
    cases = [(g, 7 if name == "z7" else 6) for name, g in sorted(GROUPS.items())]
    cases += [(gpd, 6) for _, gpd in sorted(GROUPOIDS.items())]
    for alg, top in cases:
        expected = action_counts(alg, top)
        for n in range(top + 1):
            found = sum(1 for _ in all_actions(alg, FinSet(n)))
            assert found == expected[n], (alg, n, found, expected[n])


def test_actions_are_valid_distinct_and_in_order():
    # each action passes validate_action, and the keys (anchor table, rows
    # with "undefined" read as n) strictly increase, so no action comes
    # twice; with the counts above, every action comes once, in this order
    cases = [(g, 7 if name == "z7" else 5) for name, g in sorted(GROUPS.items())
             if g.order <= 6 or name == "z7"]
    cases += [(gpd, 4) for _, gpd in sorted(GROUPOIDS.items())]
    total = 0
    for alg, top in cases:
        for n in range(top + 1):
            keys = []
            for a in all_actions(alg, FinSet(n)):
                assert validate_action(alg, a.carrier, a.act, a.anchor) == a
                keys.append((a.anchor.table,
                             tuple(tuple(n if v is None else v for v in row) for row in a.act)))
            assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), (alg, n)
            total += len(keys)
    assert total == 1666


def test_actions_refuse_a_table_without_left_cancellation():
    # unvalidated: 1 * 0 = 1 * 1 = 1, so the arrow 1 cannot permute the
    # cosets: on two points it would act by the row (1, 1)
    bad = replace(GROUPS["z2"], comp=((0, 1), (1, 1)))
    for n in (1, 2, 3):
        with pytest.raises(NoInverse) as exc:
            list(all_actions(bad, FinSet(n)))
        assert exc.value.witness == 1


def test_actions_refuse_a_table_without_a_right_unit():
    # unvalidated: x * y = y, so 1 * 0 = 0 and the coset {1 * 0} of the
    # arrow 1 would be the coset of 0
    bad = replace(GROUPS["z2"], comp=((0, 1), (0, 1)))
    with pytest.raises(NoUnit) as exc:
        list(all_actions(bad, FinSet(2)))
    assert exc.value.witness == 1


def test_json_fixture_forms_roundtrip():
    from finbundles.algebra import (
        action_from_json,
        action_to_json,
        group_from_json,
        group_to_json,
        groupoid_from_json,
        groupoid_to_json,
        validate_action,
    )

    z2 = GROUPS["z2"]
    assert group_from_json(group_to_json(z2)) == z2
    pair2 = GROUPOIDS["pair2"]
    assert groupoid_from_json(groupoid_to_json(pair2)) == pair2
    a = arrows_action(z2)
    assert action_from_json(action_to_json(a, "groups/z2"), z2) == a
    anchored = trivial_action(pair2, FinSet(2))
    data = action_to_json(anchored, "groupoids/pair2")
    assert data["anchor"] == list(anchored.anchor.table)
    assert action_from_json(data, pair2) == anchored


@given(st.sampled_from(sorted(GROUPS)), st.integers(0, 3), st.data())
def test_untwist_certificates_on_sampled_actions(name, n, data):
    g = GROUPS[name]
    # every action on n <= 3 points, and the group's action on itself
    a = data.draw(st.sampled_from(list(all_actions(g, FinSet(n))) + [arrows_action(g)]))
    u = untwist_iso(a)
    assert u.forward.fn.is_bijection()
    assert u.backward.fn == u.cert.backward
