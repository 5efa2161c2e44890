import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finbundles import catalog
from finbundles.finset import (
    FinFn,
    FinSet,
    IsoCertificate,
    TERMINAL,
    UnionFind,
    all_functions,
    coequalizer,
    product,
    pullback,
)
from finbundles.algebra import (
    ActionObject,
    NoInverse,
    NotAssociative,
    NoUnit,
    all_actions,
    arrows_action,
    trivial_action,
    validate_action,
    validate_group,
)
from finbundles.torsor import (
    Bundle,
    BoundsExceeded,
    CocycleFail,
    DescentDatum,
    DescentShape,
    NotFreeTransitive,
    NotSurjective,
    ShapeMismatch,
    canonical_descent_datum,
    descent_datum,
    descent_pullbacks,
    division_map,
    enumerate_torsors,
    equivariant_iso_over_base,
    glue_descent_data,
    intertwining_witness,
    is_principal_bundle,
    trivial_torsor,
    validate_descent_datum,
)

GROUPS = catalog.groups(8)
GROUPOIDS = catalog.groupoids()


def test_trivial_torsor_is_principal():
    for name in ("z1", "z2", "z3", "v4"):
        g = GROUPS[name]
        for nx in (1, 2):
            w = trivial_torsor(g, FinSet(nx))
            assert len(w.pairs) == g.order * g.order * nx
            division_map(w)


def test_trivial_action_is_not_free():
    z2 = GROUPS["z2"]
    b = Bundle(trivial_action(z2, FinSet(2)), TERMINAL,
               FinFn.constant(FinSet(2), TERMINAL, 0))
    with pytest.raises(NotFreeTransitive):
        is_principal_bundle(b)


def test_not_free_transitive_names_the_first_pair_and_its_count():
    # over a point the fibrewise pairs run (0, 0), (0, 1), (1, 0), (1, 1):
    # both elements of z2 fix (0, 0) under the trivial action, and z1
    # moves nothing, so no element sends 1 to 0
    two = FinSet(2)
    over_point = FinFn.constant(two, TERMINAL, 0)
    for g, witness in ((GROUPS["z2"], ((0, 0), 2)), (GROUPS["z1"], ((0, 1), 0))):
        with pytest.raises(NotFreeTransitive) as exc:
            is_principal_bundle(Bundle(trivial_action(g, two), TERMINAL, over_point))
        assert exc.value.witness == witness


def test_empty_total_is_not_surjective():
    z2 = GROUPS["z2"]
    empty = ActionObject(z2, FinSet(0), ((), ()))
    b = Bundle(empty, TERMINAL, FinFn(FinSet(0), TERMINAL, ()))
    with pytest.raises(NotSurjective) as exc:
        is_principal_bundle(b)
    assert exc.value.witness == 0


def test_bundle_requires_invariant_projection():
    z2 = GROUPS["z2"]
    with pytest.raises(ValueError):
        Bundle(arrows_action(z2), FinSet(2), FinFn.identity(FinSet(2)))


def test_division_self_torsor_formula():
    # on the group acting on itself, division solves x * h = g, so
    # psi(g, h) = g * h^(-1)
    for name in ("z3", "z4", "s3"):
        g = GROUPS[name]
        w = is_principal_bundle(Bundle(arrows_action(g), TERMINAL,
                                       FinFn.constant(g.arrows, TERMINAL, 0)))
        for a in range(g.order):
            for b in range(g.order):
                assert w.psi(a, b) == g.comp[a][g.inverse(b)]


def test_division_diagonal_is_unit():
    w = trivial_torsor(GROUPS["v4"], FinSet(2))
    for p in range(w.bundle.action.carrier.size):
        assert w.psi(p, p) == w.bundle.action.algebra.ident.table[0]


def test_enumerate_z2_matches_raw_table_oracle():
    # independent oracle: literally all 2^4 action tables on two points
    z2 = GROUPS["z2"]
    count = 0
    for table in itertools.product(range(2), repeat=4):
        act = (tuple(table[:2]), tuple(table[2:]))
        try:
            a = validate_action(z2, FinSet(2), act)
        except Exception:
            continue
        try:
            is_principal_bundle(Bundle(a, TERMINAL,
                                       FinFn.constant(FinSet(2), TERMINAL, 0)))
        except Exception:
            continue
        count += 1
    enum = enumerate_torsors(z2, TERMINAL, FinSet(2))
    assert enum.structures == count == 1
    assert enum.iso_count == 1


def oracle_bijection_mod_translation(g):
    """Count torsor structures on a carrier of group size: bijections to
    the group modulo right translation."""
    n = g.order
    seen = set()
    for perm in itertools.permutations(range(n)):
        orbit = frozenset(
            tuple(g.comp[perm[p]][a] for p in range(n)) for a in range(n))
        seen.add(orbit)
    return len(seen)


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "z4", "v4"])
def test_enumerate_over_point_matches_translation_oracle(name):
    g = GROUPS[name]
    enum = enumerate_torsors(g, TERMINAL, FinSet(g.order))
    expected = oracle_bijection_mod_translation(g)
    assert enum.structures == expected
    factorial = 1
    for k in range(2, g.order + 1):
        factorial *= k
    assert expected == factorial // g.order
    assert enum.iso_count == 1


def test_enumerate_discrete_groupoid_counts_anchors():
    for s_size in (1, 2, 3):
        gd = catalog.discrete_groupoid(s_size) if False else GROUPOIDS.get(
            "discrete%d" % s_size)
        for nx in (1, 2):
            x = FinSet(nx)
            enum = enumerate_torsors(gd, x, x)
            assert enum.iso_count == s_size ** nx


def test_every_torsor_is_isomorphic_to_the_trivial_one():
    for name in ("z2", "z3"):
        g = GROUPS[name]
        for nx in (1, 2):
            x = FinSet(nx)
            enum = enumerate_torsors(g, x, FinSet(g.order * nx))
            reference = trivial_torsor(g, x)
            for w in enum.witnesses:
                assert equivariant_iso_over_base(w, reference) is not None


def test_enumerate_guards_carrier_size():
    with pytest.raises(BoundsExceeded):
        enumerate_torsors(GROUPS["z2"], TERMINAL, FinSet(9))


def filtered_fiber_torsors(alg, n):
    """The route the construction replaced: every action on n points that
    passes the torsor predicate over a point, in all_actions' order."""
    point = FinFn.constant(FinSet(n), TERMINAL, 0)
    out = []
    for a in all_actions(alg, FinSet(n)):
        try:
            is_principal_bundle(Bundle(a, TERMINAL, point))
        except (NotSurjective, NotFreeTransitive):
            continue
        out.append(a)
    return out


def constructed_fiber_torsors(alg, n):
    return [w.bundle.action for w in enumerate_torsors(alg, TERMINAL, FinSet(n)).witnesses]


def relabel_keeping_orders(g, seed):
    """g with its elements renamed by a permutation that maps each element
    to one of the same order."""
    rng = random.Random(seed)
    by_order = {}
    for a in range(g.order):
        power, k = a, 1
        while power != g.ident.table[0]:
            power, k = g.comp[power][a], k + 1
        by_order.setdefault(k, []).append(a)
    perm = list(range(g.order))
    for members in by_order.values():
        for a, b in zip(members, rng.sample(members, len(members))):
            perm[a] = b
    mul = [[0] * g.order for _ in range(g.order)]
    inv = [0] * g.order
    for a in range(g.order):
        inv[perm[a]] = perm[g.inverse(a)]
        for b in range(g.order):
            mul[perm[a]][perm[b]] = perm[g.comp[a][b]]
    return validate_group(mul, perm[g.ident.table[0]], inv)


ORACLE_GROUPS = [(name, g) for name, g in sorted(GROUPS.items()) if g.order <= 6 or name == "z7"]


@pytest.mark.parametrize("name", [name for name, _ in ORACLE_GROUPS])
def test_construction_matches_the_filtered_search_on_groups(name):
    g = GROUPS[name]
    assert constructed_fiber_torsors(g, g.order) == filtered_fiber_torsors(g, g.order)


# seeds whose relabelling is not an automorphism, so the table changes
@pytest.mark.parametrize("name,seed", [("s3", 2), ("z5", 1), ("z6", 2), ("z7", 1)])
def test_construction_matches_the_filtered_search_on_relabelled_groups(name, seed):
    g = relabel_keeping_orders(GROUPS[name], seed)
    assert g.comp != GROUPS[name].comp
    assert constructed_fiber_torsors(g, g.order) == filtered_fiber_torsors(g, g.order)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_construction_matches_the_filtered_search_on_groupoids(name):
    gd = GROUPOIDS[name]
    sizes = {gd.src.table.count(o) for o in range(gd.objects.size)}
    for n in range(1, max(sizes) + 2):
        constructed = constructed_fiber_torsors(gd, n)
        assert constructed == filtered_fiber_torsors(gd, n)
        # one structure per object with n outgoing arrows and per bijection
        # of them onto the fibre that sends that object's identity to 0
        objects = sum(gd.src.table.count(o) == n for o in range(gd.objects.size))
        assert len(constructed) == objects * math.factorial(n - 1)


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(GROUPOIDS))
def test_fiber_torsor_count_by_outgoing_arrows(name):
    # dividing by the point 0 matches a torsor over a point with the arrows
    # out of its anchor o, by a bijection that sends id_o to 0: (n-1)! of
    # them for each object with n outgoing arrows
    alg = GROUPS.get(name) or GROUPOIDS[name]
    for n in range(1, 9):
        objects = sum(alg.src.table.count(o) == n for o in range(alg.objects.size))
        structures = enumerate_torsors(alg, TERMINAL, FinSet(n)).structures
        assert structures == objects * math.factorial(n - 1), (n, structures)


@pytest.mark.parametrize("name,base", [("z2", 1), ("z2", 2), ("z2", 3), ("z3", 2), ("v4", 2)])
def test_enumeration_matches_the_closed_form_count(name, base):
    # (|G|.|X|)! bijections of the carrier with X x G, modulo the |G|^|X|
    # translations of the fibres
    g = GROUPS[name]
    enum = enumerate_torsors(g, FinSet(base), FinSet(g.order * base))
    assert enum.structures == math.factorial(g.order * base) // g.order ** base
    assert enum.iso_count == 1


def test_order_eight_group_over_a_point():
    enum = enumerate_torsors(GROUPS["q8"], TERMINAL, FinSet(8))
    assert enum.structures == 5040
    assert enum.iso_count == 1


def test_construction_rejects_a_table_that_is_not_associative():
    z3 = GROUPS["z3"]
    comp = [list(row) for row in z3.comp]
    comp[1][1] = 1  # the unit row and column stay, so only associativity fails
    with pytest.raises(NotAssociative) as expected:
        validate_group(comp, 0, list(z3.inv.table))
    bad = replace(z3, comp=tuple(map(tuple, comp)))
    with pytest.raises(NotAssociative) as exc:
        enumerate_torsors(bad, TERMINAL, FinSet(3))
    assert exc.value.witness == expected.value.witness == (1, 1, 2)


def test_construction_rejects_a_table_without_a_unit():
    z3 = GROUPS["z3"]
    comp = [list(row) for row in z3.comp]
    comp[0][1], comp[0][2] = 2, 1
    bad = replace(z3, comp=tuple(map(tuple, comp)))
    with pytest.raises(NoUnit) as exc:
        enumerate_torsors(bad, TERMINAL, FinSet(3))
    assert exc.value.witness == 1


def test_construction_rejects_a_table_without_left_cancellation():
    # 1 * 0 = 1 * 1 = 1: the arrow 1 would send both points to one
    bad = replace(GROUPS["z2"], comp=((0, 1), (1, 1)))
    with pytest.raises(NoInverse) as exc:
        enumerate_torsors(bad, TERMINAL, FinSet(2))
    assert exc.value.witness == 1


@given(st.sampled_from(["z2", "z3"]), st.permutations(list(range(4))))
def test_torsor_predicate_invariant_under_relabelling(name, perm):
    g = GROUPS[name]
    w = trivial_torsor(g, FinSet(4 // g.order) if g.order <= 4 else TERMINAL)
    b = w.bundle
    n = b.action.carrier.size
    perm = tuple(perm[:n]) if len(perm) >= n else tuple(range(n))
    if sorted(perm) != list(range(n)):
        return
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    act = tuple(tuple(perm[b.action.act[h][inv[p]]] for p in range(n))
                for h in range(g.order))
    proj = FinFn(b.action.carrier, b.base,
                 tuple(b.proj.table[inv[p]] for p in range(n)))
    relabelled = Bundle(ActionObject(g, b.action.carrier, act), b.base, proj)
    w2 = is_principal_bundle(relabelled)
    division_map(w2)
    assert equivariant_iso_over_base(w, w2) is not None


def test_division_laws_on_every_small_torsor():
    for name in ("z1", "z2", "z3"):
        g = GROUPS[name]
        for nx in (1, 2):
            enum = enumerate_torsors(g, FinSet(nx), FinSet(g.order * nx))
            for w in enum.witnesses:
                division_map(w)


def test_orbit_coequalizer_collapses_torsor_fibrewise():
    # the parallel pair (act, project) on a torsor times a test set has
    # the test set itself as coequalizer
    z2 = GROUPS["z2"]
    w = trivial_torsor(z2, TERMINAL)
    P = w.bundle.action
    for nt in (1, 2, 3):
        t = FinSet(nt)
        gp = product(P.algebra.arrows, P.carrier)
        gpt = product(gp.carrier, t)
        pt = product(P.carrier, t)
        act_table, proj_table = [], []
        for k in range(gpt.carrier.size):
            gp_idx, tv = gpt.pairs[k]
            gv, pv = gp.pairs[gp_idx]
            act_table.append(pt.index(P.act[gv][pv], tv))
            proj_table.append(pt.index(pv, tv))
        coeq = coequalizer(FinFn(gpt.carrier, pt.carrier, tuple(act_table)),
                           FinFn(gpt.carrier, pt.carrier, tuple(proj_table)))
        assert coeq.quotient.size == nt
        # the second projection induces the comparison bijection
        comparison = coeq.factor(pt.p2)
        assert comparison.is_bijection()


# Descent ---------------------------------------------------------------------


def test_canonical_descent_roundtrip():
    f = FinFn(FinSet(4), FinSet(2), (0, 0, 1, 1))
    s = FinFn(FinSet(3), FinSet(2), (0, 1, 1))
    d = canonical_descent_datum(pullback(f, f), s)
    glued = glue_descent_data(f, d)
    assert glued.result.dom.size == 3
    assert sorted(glued.result.table) == sorted(s.table)


def test_glue_swap_example():
    # two points over each fibre point of a two-to-one map, glued by the
    # swap, quotient to a two-point object
    f = FinFn(FinSet(2), TERMINAL, (0, 0))
    y = FinFn(FinSet(4), FinSet(2), (0, 0, 1, 1))
    shape = descent_pullbacks(pullback(f, f), y)
    fwd = []
    for (wv, k) in shape.pb1.pairs:
        p1, p2 = shape.pp.pairs[wv]
        if p1 == p2:
            target = k
        else:
            local = k % 2
            target = p2 * 2 + (1 - local)
        fwd.append(shape.pb2.index(wv, target))
    bwd = [0] * len(fwd)
    for i, v in enumerate(fwd):
        bwd[v] = i
    glue = IsoCertificate(
        FinFn(shape.pb1.carrier, shape.pb2.carrier, tuple(fwd)),
        FinFn(shape.pb2.carrier, shape.pb1.carrier, tuple(bwd)))
    d = DescentDatum(y, glue, shape)
    glued = glue_descent_data(f, d)
    # oracle, run by hand: 0 ~ swap(0) = 3 and 1 ~ swap(1) = 2
    assert glued.result.dom.size == 2


def test_glue_rejects_non_surjection():
    f = FinFn(FinSet(1), FinSet(2), (0,))
    s = FinFn.identity(FinSet(1))
    y = FinFn.identity(FinSet(1))
    d = canonical_descent_datum(pullback(s, s), y)
    with pytest.raises(NotSurjective):
        glue_descent_data(f, DescentDatum(d.over, d.glue, d.shape))


def test_validate_descent_rejects_broken_cocycle():
    # three fibre points with two-element fibres; the pairwise bijections
    # are unital and mutually inverse but fail one transitivity composite
    f = FinFn(FinSet(3), TERMINAL, (0, 0, 0))
    y = FinFn(FinSet(6), FinSet(3), (0, 0, 1, 1, 2, 2))
    shape = descent_pullbacks(pullback(f, f), y)

    def theta(p1, p2, local):
        if {p1, p2} == {0, 2}:
            return 1 - local
        return local

    fwd, bwd = [], []
    for (wv, k) in shape.pb1.pairs:
        p1, p2 = shape.pp.pairs[wv]
        fwd.append(shape.pb2.index(wv, 2 * p2 + theta(p1, p2, k % 2)))
    for (wv, k) in shape.pb2.pairs:
        p1, p2 = shape.pp.pairs[wv]
        bwd.append(shape.pb1.index(wv, 2 * p1 + theta(p2, p1, k % 2)))
    glue = IsoCertificate(
        FinFn(shape.pb1.carrier, shape.pb2.carrier, tuple(fwd)),
        FinFn(shape.pb2.carrier, shape.pb1.carrier, tuple(bwd)))
    with pytest.raises(CocycleFail):
        validate_descent_datum(f, DescentDatum(y, glue, shape))


def test_validate_descent_rejects_a_datum_built_along_another_map():
    # the swap and the identity on two points have the same fibrewise
    # pairs, so only the map the shape was built along tells them apart
    swap = FinFn(FinSet(2), FinSet(2), (1, 0))
    s = FinFn(FinSet(2), FinSet(2), (0, 1))
    d = canonical_descent_datum(pullback(swap, swap), s)
    assert validate_descent_datum(swap, d) is d.shape
    with pytest.raises(ValueError):
        validate_descent_datum(FinFn.identity(FinSet(2)), d)
    other = FinFn(FinSet(2), FinSet(2), (1, 0))
    with pytest.raises(ValueError):
        validate_descent_datum(swap, DescentDatum(other, d.glue, d.shape))


def test_a_shape_built_along_the_wrong_leg_raises_shape_mismatch():
    # a datum whose second pullback runs along the first leg, or whose
    # two pullbacks are swapped, names the leg and what it should be
    f = FinFn(FinSet(2), TERMINAL, (0, 0))
    over = FinFn(FinSet(2), FinSet(2), (0, 1))
    kp = pullback(f, f)
    d = descent_datum(descent_pullbacks(kp, over), lambda p1, p2, y: p2)
    pb1, pb2 = d.shape.pb1, d.shape.pb2
    cases = [(DescentShape(kp, pb1, pullback(kp.p1, over)), ((kp.p1, over), (kp.p2, over))),
             (DescentShape(kp, pb2, pb1), ((kp.p2, over), (kp.p1, over)))]
    for shape, witness in cases:
        for check in (validate_descent_datum, glue_descent_data):
            with pytest.raises(ShapeMismatch) as exc:
                check(f, DescentDatum(over, d.glue, shape))
            assert exc.value.witness == witness
    assert validate_descent_datum(f, d) is d.shape


def test_glued_classes_match_the_union_find_quotient():
    # the oracle: the gluing relation read off the certificate, closed by
    # UnionFind, whose classes are numbered by least member
    from finbundles.suites import all_descent_data

    checked = 0
    for nx in (1, 2):
        for np in range(1, 5):
            for f in all_functions(FinSet(np), FinSet(nx)):
                if not f.is_surjection():
                    continue
                for ny in range(4):
                    for d in all_descent_data(pullback(f, f), ny):
                        uf = UnionFind(ny)
                        for k, (_, y) in enumerate(d.shape.pb1.pairs):
                            uf.union(y, d.shape.pb2.pairs[d.glue.forward.table[k]][1])
                        quotient, cls_of, reps = uf.quotient()
                        glued = glue_descent_data(f, d)
                        pb, fwd = glued.pullback, glued.cert.forward.table
                        assert glued.result.dom == quotient
                        assert tuple(pb.pairs[fwd[y]][1] for y in range(ny)) == cls_of
                        assert glued.result.table == tuple(f.table[d.over.table[r]] for r in reps)
                        checked += 1
    assert checked == 227


def test_descent_morphisms_biject_with_glued_morphisms():
    # maps of descent data (over the total space, commuting with the
    # gluing) correspond exactly to maps of the glued slices over the base
    from finbundles.suites import all_descent_data
    from finbundles.torsor import descent_pullbacks

    f = FinFn(FinSet(2), TERMINAL, (0, 0))

    def theta(shape, glue, wv, y):
        k = shape.pb1.index(wv, y)
        return shape.pb2.pairs[glue.forward.table[k]][1]

    data = [d for ny in range(4) for d in all_descent_data(pullback(f, f), ny)]
    for d1 in data[:6]:
        for d2 in data[:6]:
            shape1 = descent_pullbacks(pullback(f, f), d1.over)
            shape2 = descent_pullbacks(pullback(f, f), d2.over)
            datum_maps = []
            for fn in all_functions(d1.over.dom, d2.over.dom):
                if fn.then(d2.over) != d1.over:
                    continue
                ok = True
                for wv, (p1, _) in enumerate(shape1.pp.pairs):
                    for y in range(d1.over.dom.size):
                        if d1.over.table[y] != p1:
                            continue
                        if (fn.table[theta(shape1, d1.glue, wv, y)]
                                != theta(shape2, d2.glue, wv, fn.table[y])):
                            ok = False
                if ok:
                    datum_maps.append(fn)
            g1 = glue_descent_data(f, d1)
            g2 = glue_descent_data(f, d2)
            glued_maps = [fn for fn in all_functions(g1.result.dom, g2.result.dom)
                          if fn.then(g2.result) == g1.result]
            induced = set()
            for fn in datum_maps:
                q1 = {y: g1.cert.forward.table[y] for y in range(d1.over.dom.size)}
                table = [0] * g1.result.dom.size
                for y in range(d1.over.dom.size):
                    cls1 = g1.pullback.pairs[q1[y]][1]
                    table[cls1] = g2.pullback.pairs[
                        g2.cert.forward.table[fn.table[y]]][1]
                induced.add(tuple(table))
            assert len(datum_maps) == len(glued_maps)
            assert induced == {fn.table for fn in glued_maps}


def test_glue_pullback_certificate_sizes():
    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    for nz in range(4):
        z = FinSet(nz)
        for zp in all_functions(z, FinSet(2)):
            d = canonical_descent_datum(pullback(f, f), zp)
            glued = glue_descent_data(f, d)
            assert glued.cert.forward.dom == d.over.dom
            assert glued.cert.forward.cod == glued.pullback.carrier


def test_division_map_rejects_shifted_witness_without_asserts():
    # the division laws are typed checks, so they still run under
    # python -O, where assert statements are stripped
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = "\n".join([
        "from finbundles import catalog",
        "from finbundles.finset import TERMINAL",
        "from finbundles.torsor import (DivisionLawFail, TorsorWitness,",
        "                               division_map, trivial_torsor)",
        "w = trivial_torsor(catalog.cyclic(3), TERMINAL)",
        "shifted = TorsorWitness(w.bundle, w.fibrewise,",
        "                        tuple((d + 1) % 3 for d in w.division), w.reps)",
        "try:",
        "    report = division_map(shifted)",
        "except DivisionLawFail as exc:",
        "    print('REJECTED', exc.witness)",
        "else:",
        "    print('ACCEPTED: %d pairs' % report.checked_pairs)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "REJECTED (0, 0)"


def test_all_descent_data_matches_counting_formula():
    # a datum along f on n points is a slice whose fibres over the k_x
    # points of f's fibre over x all have m_x points, with sum k_x m_x = n,
    # plus a bijection from the fibre over one of those points to each of
    # the others: n!/prod_x m_x!^k_x slices times prod_x m_x!^(k_x - 1)
    # gluings, so n!/prod_x m_x! data for each choice of (m_x)
    from math import factorial, prod

    from finbundles.suites import all_descent_data

    for nx in (1, 2):
        for np in range(1, 5):
            for table in itertools.product(range(nx), repeat=np):
                if set(table) != set(range(nx)):
                    continue
                k = [table.count(x) for x in range(nx)]
                f = FinFn(FinSet(np), FinSet(nx), table)
                for n in range(5):
                    expected = sum(factorial(n) // prod(factorial(mx) for mx in m)
                                   for m in itertools.product(range(n + 1), repeat=nx)
                                   if sum(kx * mx for kx, mx in zip(k, m)) == n)
                    assert sum(1 for _ in all_descent_data(pullback(f, f), n)) == expected, (table, n)


def test_all_descent_data_follows_the_filtered_product():
    # the oracle builds every table p: Y -> P in lexicographic order, drops
    # those whose fibre sizes differ within a fibre of f and glues the rest
    # through the root of each fibre; the data are the same, in the same
    # order, for every surjection onto at most three points from at most
    # four, with at most four points over them
    from finbundles.suites import all_descent_data

    def filtered(kp, n):
        f = kp.f
        fibres = [[p for p in range(f.dom.size) if f.table[p] == x] for x in range(f.cod.size)]
        others = [p for ps in fibres for p in ps[1:]]
        for table in itertools.product(range(f.dom.size), repeat=n):
            fiber = [[yv for yv in range(n) if table[yv] == p] for p in range(f.dom.size)]
            if any(len(fiber[p]) != len(fiber[ps[0]]) for ps in fibres for p in ps):
                continue
            shape = descent_pullbacks(kp, FinFn(FinSet(n), f.dom, table))
            for combo in itertools.product(*(itertools.permutations(fiber[p]) for p in others)):
                image = {ps[0]: fiber[ps[0]] for ps in fibres}
                image.update(zip(others, combo))
                yield descent_datum(shape, lambda p1, p2, yv: image[p2][image[p1].index(yv)])

    def key(d):
        return d.over, d.glue.forward, d.glue.backward

    maps = data = 0
    for nx in (1, 2, 3):
        for np in range(nx, 5):
            for f in all_functions(FinSet(np), FinSet(nx)):
                if not f.is_surjection():
                    continue
                kp = pullback(f, f)
                maps += 1
                for n in range(5):
                    want = [key(d) for d in filtered(kp, n)]
                    assert [key(d) for d in all_descent_data(kp, n)] == want, (f.table, n)
                    data += len(want)
    assert (maps, data) == (68, 5440)


def test_intertwining_witness_names_the_first_mismatch():
    # two points over each point of a two-to-one map, glued by the
    # identity and by the swap; the identity gluing's certificate does not
    # carry the swap, first at the transport of point 0 from 0 to 1
    f = FinFn(FinSet(2), TERMINAL, (0, 0))
    y = FinFn(FinSet(4), FinSet(2), (0, 0, 1, 1))
    identity = descent_datum(descent_pullbacks(pullback(f, f), y), lambda p1, p2, v: 2 * p2 + v % 2)
    swap = descent_datum(descent_pullbacks(pullback(f, f), y),
                         lambda p1, p2, v: 2 * p2 + (v % 2 if p1 == p2 else 1 - v % 2))
    glued = glue_descent_data(f, identity)
    assert glued.result.dom.size == 2
    assert intertwining_witness(identity, glued) is None
    assert intertwining_witness(swap, glued) == (0, 1, 0)
    assert intertwining_witness(swap, glue_descent_data(f, swap)) is None


def test_descent_datum_rejects_a_transport_that_is_not_invertible():
    f = FinFn(FinSet(2), TERMINAL, (0, 0))
    y = FinFn(FinSet(4), FinSet(2), (0, 0, 1, 1))
    with pytest.raises(ValueError):
        descent_datum(descent_pullbacks(pullback(f, f), y), lambda p1, p2, v: 2 * p2)


def test_descent_datum_names_the_first_transport_off_its_fibre():
    from finbundles.finset import NotInPullback

    f = FinFn(FinSet(2), TERMINAL, (0, 0))
    y = FinFn(FinSet(4), FinSet(2), (0, 0, 1, 1))
    # every point goes to 0, which lies over 0, so the first miss is the
    # transport of point 0 along the fibrewise pair (0, 1), numbered 1
    with pytest.raises(NotInPullback) as exc:
        descent_datum(descent_pullbacks(pullback(f, f), y), lambda p1, p2, v: 0)
    assert exc.value.witness == (1, 0)


def test_descent_roundtrip_failure_names_the_slice(monkeypatch):
    from finbundles import suites

    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    assert suites.descent_roundtrip(pullback(f, f), 1) == (3, [])
    # a broken gluing that forgets the datum and glues the empty slice's
    real = suites.glue_descent_data
    empty = FinFn(FinSet(0), FinSet(2), ())
    monkeypatch.setattr(suites, "glue_descent_data",
                        lambda f, d: real(f, canonical_descent_datum(pullback(f, f), empty)))
    assert suites.descent_roundtrip(pullback(f, f), 1) == (3, [
        {"f": [0, 0, 1], "z": 1, "proj": [0]},
        {"f": [0, 0, 1], "z": 1, "proj": [1]},
    ])


def test_failed_gluing_check_reports_its_witnesses(monkeypatch):
    from finbundles import suites

    monkeypatch.setattr(suites, "intertwining_witness", lambda d, glued: (0, 1, 0))
    first = suites.glue_checks(suites.Bounds(base=1), max_p=1, max_y=2)[0]
    assert first["data"] == 3
    assert not first["passed"]
    assert first["essentially_surjective"]
    assert first["witnesses"] == [
        {"f": [0], "y": ny, "reason": "glue mismatch", "at": [0, 1, 0]} for ny in range(3)]


# Shared fibrewise pairs and the transport table -------------------------------


def test_psi_outside_the_fibrewise_pairs_names_the_pair():
    from finbundles.finset import NotInPullback

    # points 0, 1 lie over 0 and points 2, 3 over 1
    w = trivial_torsor(GROUPS["z2"], FinSet(2))
    assert w.psi(1, 0) == 1
    with pytest.raises(NotInPullback) as exc:
        w.psi(0, 2)
    assert exc.value.witness == (0, 2)


def test_descent_shape_checks_raise_a_typed_error_with_the_mismatch():
    from finbundles.torsor import ShapeMismatch, TorsorError

    swap = FinFn(FinSet(2), FinSet(2), (1, 0))
    identity = FinFn.identity(FinSet(2))
    d = canonical_descent_datum(pullback(swap, swap), identity)
    with pytest.raises(ShapeMismatch) as exc:
        validate_descent_datum(FinFn(FinSet(3), FinSet(2), (0, 1, 1)), d)
    assert exc.value.witness == (FinSet(2), FinSet(3))
    with pytest.raises(ShapeMismatch) as exc:
        validate_descent_datum(identity, d)
    assert exc.value.witness == (swap, identity)
    with pytest.raises(ShapeMismatch) as exc:
        validate_descent_datum(swap, DescentDatum(swap, d.glue, d.shape))
    assert exc.value.witness == (d.over, swap)
    wider = canonical_descent_datum(pullback(swap, swap), FinFn(FinSet(3), FinSet(2), (0, 1, 1)))
    with pytest.raises(ShapeMismatch) as exc:
        validate_descent_datum(swap, DescentDatum(d.over, wider.glue, d.shape))
    assert exc.value.witness == ((FinSet(3), FinSet(3)), (FinSet(2), FinSet(2)))
    assert isinstance(exc.value, TorsorError) and isinstance(exc.value, ValueError)


def shared_pullback_cases():
    for g in GROUPS.values():
        if g.order <= 6:
            yield g, TERMINAL, FinSet(g.order)
    for gd in GROUPOIDS.values():
        largest = max(gd.src.table.count(o) for o in range(gd.objects.size))
        for nx in (1, 2):
            for n in range(nx, nx * largest + 1):
                yield gd, FinSet(nx), FinSet(n)


def test_enumerated_witnesses_share_one_pullback_per_projection():
    # the oracle: is_principal_bundle builds the fibrewise pairs afresh
    checked = 0
    for alg, x, carrier in shared_pullback_cases():
        shared = {}
        for w in enumerate_torsors(alg, x, carrier).witnesses:
            ref = is_principal_bundle(w.bundle)
            assert (w.pairs, w.division, w.reps) == (ref.pairs, ref.division, ref.reps)
            assert w.fibrewise.f is w.fibrewise.g is w.bundle.proj
            assert shared.setdefault(w.bundle.proj, w.fibrewise) is w.fibrewise
            checked += 1
    assert checked == 347


def test_witnesses_over_a_point_hold_the_fibre_action(monkeypatch):
    # the oracle: the action embedded into fresh rows, as a structure over
    # a larger base is built
    from finbundles import algebra, torsor

    built = []

    def recording(alg, d, free=False):
        actions = algebra._transitive_actions(alg, d, free)
        built.extend(actions)
        return actions

    monkeypatch.setattr(torsor, "_transitive_actions", recording)
    checked = 0
    for alg, x, carrier in shared_pullback_cases():
        if x.size != 1:
            continue
        for w in enumerate_torsors(alg, x, carrier).witnesses:
            a = w.bundle.action
            assert any(a is fibre for fibre in built)
            act = [[None] * carrier.size for _ in range(alg.order)]
            anchors = [0] * carrier.size
            algebra._embed_fiber_action(a, tuple(range(carrier.size)), act, anchors)
            assert a == ActionObject(alg, carrier, tuple(map(tuple, act)),
                                     FinFn(carrier, alg.objects, tuple(anchors)))
            checked += 1
    assert checked == 289


def test_descent_data_over_one_map_share_its_kernel_pair():
    from finbundles.suites import all_descent_data

    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    kp = pullback(f, f)
    shapes = [d.shape for n in range(5) for d in all_descent_data(kp, n)]
    shapes += [canonical_descent_datum(kp, s).shape
               for n in range(3) for s in all_functions(FinSet(n), FinSet(2))]
    assert len(shapes) == 37 + 7
    assert all(shape.pp is kp for shape in shapes)


def test_canonical_data_share_one_shape_per_first_leg():
    # the first leg of the pullback of f and a slice depends only on the
    # slice's fibre sizes, here (m0, m1) with m0 + m1 <= 3
    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    kp = pullback(f, f)
    shapes = {}
    slices = [s for n in range(4) for s in all_functions(FinSet(n), FinSet(2))]
    data = [canonical_descent_datum(kp, s, shapes) for s in slices]
    assert len(shapes) == len({id(d.shape) for d in data}) == 10
    for s, d in zip(slices, data):
        alone = canonical_descent_datum(kp, s)
        assert d.shape is shapes[d.over] and alone.shape is not d.shape
        assert (d.over, d.glue) == (alone.over, alone.glue)
    other = pullback(f, f)
    with pytest.raises(ShapeMismatch) as exc:
        canonical_descent_datum(other, slices[1], shapes)
    assert exc.value.witness == (kp, other)


def test_descent_shape_rejects_the_pullback_of_two_maps():
    from finbundles.torsor import ShapeMismatch

    f = FinFn(FinSet(2), FinSet(2), (0, 1))
    swap = FinFn(FinSet(2), FinSet(2), (1, 0))
    with pytest.raises(ShapeMismatch) as exc:
        descent_pullbacks(pullback(f, swap), FinFn.identity(FinSet(2)))
    assert exc.value.witness == (f, swap)


def triple_loop_validate(f, d):
    """The check the transport table replaced: the unit condition on every
    point of pb1, then the cocycle condition on all pairs x pairs x points,
    reading the glue afresh at every step."""
    shape, p = d.shape, d.over

    def theta(w, y):
        w2, y2 = shape.pb2.pairs[d.glue.forward.table[shape.pb1.index(w, y)]]
        if w2 != w:
            raise CocycleFail("glue does not live over the fibrewise pairs", (w, y))
        return y2

    for w, (p1, p2) in enumerate(shape.pp.pairs):
        for y in range(p.dom.size):
            if p.table[y] == p1 and theta(w, y) != y and p1 == p2:
                raise CocycleFail("glue must be the identity on the diagonal", (w, y))
    for w12, (p1, p2) in enumerate(shape.pp.pairs):
        for w23, (q2, p3) in enumerate(shape.pp.pairs):
            if q2 != p2 or f.table[p1] != f.table[p3]:
                continue
            w13 = shape.pp.index(p1, p3)
            for y in range(p.dom.size):
                if p.table[y] == p1 and theta(w23, theta(w12, y)) != theta(w13, y):
                    raise CocycleFail("cocycle condition fails", (p1, p2, p3, y))


def swapped_glue(d, k1, k2):
    """d with the glue targets of the points k1 and k2 of pb1 swapped."""
    fwd = list(d.glue.forward.table)
    fwd[k1], fwd[k2] = fwd[k2], fwd[k1]
    bwd = [0] * len(fwd)
    for k, v in enumerate(fwd):
        bwd[v] = k
    glue = IsoCertificate(FinFn(d.shape.pb1.carrier, d.shape.pb2.carrier, tuple(fwd)),
                          FinFn(d.shape.pb2.carrier, d.shape.pb1.carrier, tuple(bwd)))
    return DescentDatum(d.over, glue, d.shape)


def check_outcome(check, f, d):
    try:
        check(f, d)
    except CocycleFail as exc:
        return str(exc), exc.witness
    return None


def descent_data_with_swapped_glues(f, ny):
    """Every datum along f on ny points, then the same datum with two glue
    targets swapped over one pair, and across two pairs."""
    from finbundles.suites import all_descent_data

    for d in all_descent_data(pullback(f, f), ny):
        yield d
        blocks = {}
        for k, (w, _) in enumerate(d.shape.pb1.pairs):
            blocks.setdefault(w, []).append(k)
        for ks in blocks.values():
            if len(ks) > 1:
                yield swapped_glue(d, ks[0], ks[-1])
        firsts = [ks[0] for ks in blocks.values()]
        for a, b in zip(firsts, firsts[1:]):
            yield swapped_glue(d, a, b)


def test_cocycle_check_matches_the_triple_loop_oracle():
    cases = [(f, ny) for nx in (1, 2) for np in range(1, 4)
             for f in all_functions(FinSet(np), FinSet(nx)) if f.is_surjection()
             for ny in range(5)]
    # a fibre of three points with two over each: one swapped pair breaks
    # two triples that start with the same (p1, p2), so the order of p3
    # decides the first witness
    cases.append((FinFn(FinSet(3), TERMINAL, (0, 0, 0)), 6))
    outcomes = {}
    for f, ny in cases:
        for d in descent_data_with_swapped_glues(f, ny):
            expected = check_outcome(triple_loop_validate, f, d)
            assert check_outcome(validate_descent_datum, f, d) == expected
            key = expected[0] if expected else None
            outcomes[key] = outcomes.get(key, 0) + 1
    # 311 data within base 2 and total 3, and 360 along the three-point fibre
    assert outcomes == {None: 671, "cocycle condition fails": 2328,
                        "glue does not live over the fibrewise pairs": 3698,
                        "glue must be the identity on the diagonal": 1405}
