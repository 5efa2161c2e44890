import copy
import gc
import itertools
import weakref

import pytest

from finbundles import catalog
from finbundles.finset import (
    FinFn,
    FinSet,
    FinSetError,
    IsoCertificate,
    NotBijective,
    TERMINAL,
    NotACone,
    NotInPullback,
    all_functions,
    coequalizer,
)
from finbundles.algebra import (
    AnchorMismatch,
    EquivariantMap,
    NotEquivariant,
    all_actions,
    arrows_action,
    equivariant_maps,
    sigma,
    trivial_action,
    validate_action,
)
from finbundles.categories import (
    ActionCategory,
    Mor,
    SliceCategory,
    action_family,
    slice_family,
)
from finbundles.torsor import (
    Bundle,
    TorsorError,
    enumerate_torsors,
    is_principal_bundle,
    trivial_torsor,
)
from finbundles.adjunction import (
    _PAIR_ERRORS,
    AdjunctionError,
    AdjunctionPresentation,
    FrobeniusFail,
    NotOverBase,
    RoundTripFail,
    _obj_desc,
    _terminal_view,
    adjunction_to_bundle,
    bundle_to_adjunction,
    check_frobenius,
    check_naturality,
    check_over_base,
    check_stably_frobenius,
    check_triangles,
    corollary_slice_criterion,
    corrupt_counit,
    frobenius_canonical_map,
    presentation,
    pullback_presentation,
    sigma_presentation,
    slice_adjunction,
    slice_groupoid_equivalence,
    tensor,
    torsor_map_to_transform,
    transform_to_torsor_map,
)
from finbundles.suites import (
    Bounds,
    bundle_roundtrip_cert,
    stable_slice_objects,
    theorem_torsor_checks,
)

GROUPS = catalog.groups(8)
GROUPOIDS = catalog.groupoids()


def dom_mors(cat, objs, cap=200):
    out = []
    for a in objs:
        for b in objs:
            out.extend(cat.homs(a, b))
            if len(out) > cap:
                return out[:cap]
    return out


# Tensor and evaluation -------------------------------------------------------

def test_tensor_with_self_action_recovers_carrier():
    for name in ("z2", "z3"):
        w = trivial_torsor(GROUPS[name], TERMINAL)
        t = tensor(w.bundle.action, arrows_action(GROUPS[name]))
        assert t.carrier.size == w.bundle.action.carrier.size


def balanced_coequalizer(P, a):
    """The balanced product built as a coequalizer, without sigma: the
    pairs with equal anchors, glued by (g.p, a) ~ (p, g^(-1).a) for every
    arrow g from the anchor of p to the anchor of a."""
    alg = P.algebra
    pairs = [(p, av) for p in range(P.carrier.size) for av in range(a.carrier.size)
             if P.anchor.table[p] == a.anchor.table[av]]
    index = {pair: k for k, pair in enumerate(pairs)}
    triples = [(g, p, av) for g in range(alg.order)
               for p in range(P.carrier.size) for av in range(a.carrier.size)
               if alg.src.table[g] == P.anchor.table[p]
               and alg.tgt.table[g] == a.anchor.table[av]]
    dom, cod = FinSet(len(triples)), FinSet(len(pairs))
    moved = FinFn(dom, cod, tuple(index[(P.act[g][p], av)] for g, p, av in triples))
    back = FinFn(dom, cod, tuple(index[(p, a.act[alg.inverse(g)][av])]
                                 for g, p, av in triples))
    return pairs, coequalizer(moved, back)


def test_tensor_is_the_balanced_coequalizer():
    # groups, the one-object groupoid of z2 and the pair groupoid, whose
    # arrows between distinct objects also glue points
    algebras = [GROUPS["z2"], GROUPS["z3"], GROUPOIDS["pair2"], GROUPOIDS["z2_loop"]]
    cases = 0
    for alg in algebras:
        fibre = alg.src.table.count(0)
        actions = [a for n in range(3) for a in all_actions(alg, FinSet(n))]
        for nx in (1, 2):
            enum = enumerate_torsors(alg, FinSet(nx), FinSet(fibre * nx))
            assert enum.witnesses
            for w in enum.witnesses:
                for a in actions:
                    t = tensor(w.bundle.action, a)
                    pairs, coeq = balanced_coequalizer(w.bundle.action, a)
                    assert list(t.product.pairs) == pairs
                    assert t.quotient_map == coeq.q and t.reps == coeq.reps
                    cases += 1
    assert cases > 300


def test_groupoid_torsors_pass_the_theorem_checks():
    for name in ("pair2", "z2_loop"):
        gd = GROUPOIDS[name]
        fibre = gd.src.table.count(0)
        for nx in (1, 2):
            enum = enumerate_torsors(gd, FinSet(nx), FinSet(fibre * nx))
            assert enum.witnesses
            for w in enum.witnesses:
                rep = theorem_torsor_checks(w, Bounds())
                assert rep["passed"], (name, nx, rep["results"])


def test_tensor_with_trivial_action_recovers_set():
    w = trivial_torsor(GROUPS["z3"], TERMINAL)
    for n in range(4):
        t = tensor(w.bundle.action, trivial_action(GROUPS["z3"], FinSet(n)))
        assert t.carrier.size == n


def test_tensor_with_free_four_point_action():
    # oracle: close the relation (g.p, a) ~ (p, g.a) naively; the diagonal
    # action on the eight pairs is free, so there are four classes, which
    # is the underlying-set size as expected for the self torsor
    z2 = GROUPS["z2"]
    w = trivial_torsor(z2, TERMINAL)
    act = ((0, 1, 2, 3), (1, 0, 3, 2))
    a = validate_action(z2, FinSet(4), act)
    pairs = [(p, av) for p in range(2) for av in range(4)]
    cls = {pair: i for i, pair in enumerate(pairs)}
    changed = True
    while changed:
        changed = False
        for (p, av) in pairs:
            for g in range(2):
                other = (w.bundle.action.act[g][p], act[g][av])
                lo = min(cls[(p, av)], cls[other])
                if cls[(p, av)] != lo or cls[other] != lo:
                    cls[(p, av)] = cls[other] = lo
                    changed = True
    oracle = len(set(cls.values()))
    t = tensor(w.bundle.action, a)
    assert t.carrier.size == oracle == 4
    assert sigma(a).quotient.size == 2


def fixedpoints(g):
    """The trivial action on a point over a point: its right adjoint is
    the fixed points."""
    return presentation(trivial_action(g, TERMINAL), FinFn.identity(TERMINAL))


def tensor_oracle(pres, w, a):
    """The tensor P (x) a of a torsor, and the explicit isomorphism onto it
    from R_P(a), checked to be a bijection over the base.  R_P(a) lists the
    pairs (x, phi) by x, then by phi, where phi is its value at the least
    point r_x over x: a point of a with r_x's anchor.  (x, phi) goes to the
    class of (r_x, phi)."""
    b = w.bundle
    t = tensor(b.action, a)
    table = []
    for x in range(b.base.size):
        r = b.proj.table.index(x)
        table += [t.class_of(r, v) for v in range(a.carrier.size)
                  if a.anchor.table[v] == b.action.anchor.table[r]]
    ra = pres.right_obj(a)
    iso = FinFn(ra.dom, t.carrier, table)
    assert iso.is_bijection()
    assert all(ra.table[k] == b.proj.table[t.rep_pair(c)[0]] for k, c in enumerate(table))
    return t, iso


def non_monotone_torsor(g):
    """A torsor over two points whose projection is not monotone."""
    enum = enumerate_torsors(g, FinSet(2), FinSet(2 * g.order))
    return next(w for w in enum.witnesses
                if list(w.bundle.proj.table) != sorted(w.bundle.proj.table))


def test_evaluation_unit_laws():
    # the counit of a torsor's adjunction is evaluation: at p' and the
    # class of p (x) a it returns psi(p', p).a, so a representative
    # evaluates to itself and moving p' by g moves the value by g
    z3 = GROUPS["z3"]
    for w in (trivial_torsor(z3, TERMINAL), non_monotone_torsor(z3)):
        pres = bundle_to_adjunction(w)
        a = arrows_action(z3)
        eps = pres.counit_at(a)
        t, iso = tensor_oracle(pres, w, a)
        back = iso.inverse()
        _, pb = pres.left_data(pres.right_obj(a))
        for p in range(w.bundle.action.carrier.size):
            for av in range(a.carrier.size):
                k = back.table[t.class_of(p, av)]
                assert eps.fn.table[pb.index(p, k)] == av
                for g in range(z3.order):
                    gp = w.bundle.action.act[g][p]
                    assert eps.fn.table[pb.index(gp, k)] == a.act[g][av]


def test_evaluation_representative_independence_bounded():
    # the counit evaluates at one representative of each tensor class;
    # every other member of the class gives the same value
    torsors = [trivial_torsor(GROUPS[name], TERMINAL) for name in ("z2", "z3", "z4", "v4")]
    torsors += [non_monotone_torsor(GROUPS[name]) for name in ("z2", "z3")]
    for w in torsors:
        g = w.bundle.action.algebra
        pres = bundle_to_adjunction(w)
        for n in range(4):
            for a in all_actions(g, FinSet(n)):
                eps = pres.counit_at(a)
                t, iso = tensor_oracle(pres, w, a)
                _, pb = pres.left_data(pres.right_obj(a))
                for k, (pprime, j) in enumerate(pb.pairs):
                    for m, c in enumerate(t.quotient_map.table):
                        if c == iso.table[j]:
                            p0, a0 = t.product.pairs[m]
                            assert eps.fn.table[k] == a.apply(w.psi(pprime, p0), a0)


def hom_set_bijection_failures(pres, dom_objs, cod_objs):
    """Both round trips of the hom-set bijection of a presentation,
    f: o -> R a  |->  counit_at(a) . L f  and  g: L o -> a  |->  R g . unit_at(o),
    over every pair of family objects, and its naturality in o.  Returns
    the number of (o, a) pairs and the pairs where a check fails."""
    dom, cod = pres.dom, pres.cod

    def down(a, f):
        return cod.compose(pres.counit_at(a), pres.left_mor(f))

    def up(o, g):
        return dom.compose(pres.right_mor(g), pres.unit_at(o))

    pairs, failures = 0, []
    for o in dom_objs:
        into_o = [h for o2 in dom_objs for h in dom.homs(o2, o)]
        for a in cod_objs:
            pairs += 1
            ok = True
            for f in dom.homs(o, pres.right_obj(a)):
                g = down(a, f)
                ok = ok and up(o, g).fn == f.fn
                ok = ok and all(down(a, dom.compose(f, h)).fn
                                == cod.compose(g, pres.left_mor(h)).fn for h in into_o)
            for g in cod.homs(pres.left_obj(o), a):
                ok = ok and down(a, up(o, g)).fn == g.fn
            if not ok:
                failures.append((o, a))
    return pairs, failures


def test_transpose_roundtrip_and_naturality():
    # the transposes are built from the unit and counit alone, so this
    # checks that each stock presentation is an adjunction in the hom-set
    # sense, including on the empty slice and the empty action
    z2, z3 = GROUPS["z2"], GROUPS["z3"]
    two = FinSet(2)
    basechange = FinFn(FinSet(3), two, (0, 0, 1))
    cases = [
        (bundle_to_adjunction(trivial_torsor(z2, two)),
         slice_family(two, 2), action_family(z2, 2)),
        (bundle_to_adjunction(trivial_torsor(z3, TERMINAL)),
         slice_family(TERMINAL, 2), action_family(z3, 3)),
        (sigma_presentation(z2), action_family(z2, 2), slice_family(TERMINAL, 2)),
        (fixedpoints(z2), slice_family(TERMINAL, 2), action_family(z2, 2)),
        (pullback_presentation(basechange),
         slice_family(basechange.dom, 2), slice_family(basechange.cod, 2)),
    ]
    for pres, dom_objs, cod_objs in cases:
        pairs, failures = hom_set_bijection_failures(pres, dom_objs, cod_objs)
        assert pairs == len(dom_objs) * len(cod_objs) > 0
        assert failures == [], pres.name
    # a corrupted counit breaks the bijection (on 8 of the 18 pairs)
    pres, dom_objs, cod_objs = cases[1]
    pairs, failures = hom_set_bijection_failures(corrupt_counit(pres, 1),
                                                 dom_objs, cod_objs)
    assert 0 < len(failures) < pairs


def test_transpose_up_of_evaluation_is_identity():
    # the counit is the transpose of the identity: R counit_at(a) . unit_at(R a) = id
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    for a in action_family(z2, 3):
        ra = pres.right_obj(a)
        up = pres.dom.compose(pres.right_mor(pres.counit_at(a)), pres.unit_at(ra))
        assert up.fn == FinFn.identity(ra.dom)


def test_error_paths():
    from finbundles.algebra import AlgebraMismatch

    z2, z3 = GROUPS["z2"], GROUPS["z3"]
    w = trivial_torsor(z2, TERMINAL)
    with pytest.raises(AlgebraMismatch):
        tensor(w.bundle.action, arrows_action(z3))


def test_pullback_presentation_names_the_point_off_the_pullback():
    # a map of slices over 2 that moves the fibre over 0 to the fibre over
    # 1: its image under pullback along (0, 0, 1) would send the pair
    # (0, 0) to (0, 0), which is not a point over the codomain
    pres = pullback_presentation(FinFn(FinSet(3), FinSet(2), (0, 0, 1)))
    one = FinSet(1)
    over0 = FinFn(one, FinSet(2), (0,))
    over1 = FinFn(one, FinSet(2), (1,))
    with pytest.raises(NotInPullback) as exc:
        pres.right_mor(Mor(over0, over1, FinFn.identity(one)))
    assert exc.value.witness == (0, 0)


CATEGORY_CHECKS = """
from finbundles import catalog
from finbundles.algebra import AlgebraError, arrows_action, trivial_action
from finbundles.categories import (
    ActionCategory, Mor, SliceCategory, SliceOverCategory)
from finbundles.finset import FinFn, FinSet, FinSetError

z2 = catalog.groups(2)["z2"]
acts = ActionCategory(z2)
free, triv = arrows_action(z2), trivial_action(z2, FinSet(2))
two = FinSet(2)
slices = SliceCategory(two)
split = FinFn(two, two, (0, 1))
over = SliceOverCategory(acts, triv)
ident = acts.identity(triv)
cases = [
    lambda: acts.mor(triv, free, FinFn(two, two, (0, 0))),
    lambda: slices.mor(split, split, FinFn(two, two, (0, 0))),
    lambda: slices.mor(split, split, FinFn(two, FinSet(3), (0, 0))),
    lambda: over.mor(ident, Mor(triv, triv, FinFn(two, two, (1, 0))),
                     FinFn.identity(two)),
    lambda: acts.compose(acts.identity(free), ident),
    lambda: arrows_action(catalog.groupoids()["pair2"]).apply(1, 0),
]
for case in cases:
    try:
        out = case()
    except (AlgebraError, FinSetError) as exc:
        print("REJECTED", type(exc).__name__, exc.witness)
    else:
        print("ACCEPTED", out)
"""


def test_category_checks_run_without_asserts():
    # every morphism check of categories is a typed check with a witness,
    # so it still runs under python -O, where assert statements are stripped
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", CATEGORY_CHECKS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["REJECTED NotEquivariant (1, 0)", "REJECTED NotAMorphism 1"]
    assert lines[2].startswith("REJECTED CodMismatch (FinSet(size=3")
    assert lines[3] == "REJECTED NotAMorphism 0"
    assert lines[4].startswith("REJECTED CodMismatch (ActionObject(")
    assert lines[5] == "REJECTED AnchorMismatch (1, 0)"
    assert len(lines) == 6


ADJUNCTION_CHECKS = """
from finbundles import catalog
from finbundles.adjunction import (
    AdjunctionError, AdjunctionPresentation, adjunction_to_bundle,
    bundle_to_adjunction, corollary_slice_criterion, pullback_presentation,
    slice_groupoid_equivalence)
from finbundles.algebra import AlgebraError, arrows_action
from finbundles.categories import SliceOverCategory, slice_family
from finbundles.finset import FinFn, FinSet, FinSetError, TERMINAL
from finbundles.torsor import trivial_torsor

z2, z3 = catalog.groups(3)["z2"], catalog.groups(3)["z3"]
two = FinSet(2)
translation = slice_groupoid_equivalence(z2, two)
# a torsor's components over the base, handed a codomain that is a slice
# of its action category: it has an over-base comparison, but its left
# values are not the actions of a bundle
pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
into_slice = AdjunctionPresentation(
    "into a slice", pres.dom, SliceOverCategory(pres.cod, arrows_action(z2)),
    pres.left_obj, pres.left_mor, pres.right_obj, pres.right_mor,
    pres.unit_at, pres.counit_at, pres.over_iso_at)
dom_objs = slice_family(TERMINAL, 2)


def describe(w):
    # sizes of the mismatched sets or algebras, or the offending category
    if isinstance(w, tuple):
        return tuple(x.size if isinstance(x, FinSet) else x.order for x in w)
    return type(w).__name__


cases = [
    lambda: translation.to_anchored(arrows_action(z2), FinFn(two, FinSet(1), (0, 0))),
    lambda: translation.to_anchored(arrows_action(z2), FinFn(FinSet(3), two, (0, 0, 1))),
    lambda: translation.to_anchored(arrows_action(z3), FinFn(FinSet(3), two, (0, 0, 1))),
    lambda: translation.from_anchored(arrows_action(z2)),
    lambda: corollary_slice_criterion(pullback_presentation(FinFn.identity(two)), [], [], []),
    lambda: adjunction_to_bundle(into_slice, dom_objs, []),
]
for case in cases:
    try:
        out = case()
    except (AdjunctionError, AlgebraError, FinSetError) as exc:
        print("REJECTED", type(exc).__name__, describe(exc.witness))
    else:
        print("ACCEPTED", type(out).__name__)
"""


def test_adjunction_checks_run_without_asserts():
    # the category and input checks of the adjunction constructions are
    # typed checks with a witness, so they still run under python -O
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", ADJUNCTION_CHECKS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "REJECTED CodMismatch (1, 2)",
        "REJECTED DomMismatch (3, 2)",
        "REJECTED AlgebraMismatch (3, 2)",
        "REJECTED AlgebraMismatch (2, 4)",
        "REJECTED WrongCategory SliceCategory",
        "REJECTED WrongCategory SliceOverCategory",
    ]


# Bundle presentations --------------------------------------------------------

def test_self_torsor_gives_free_forgetful_pair():
    # over a point the right adjoint is the underlying set and the left
    # adjoint the free action
    z2 = GROUPS["z2"]
    w = is_principal_bundle(Bundle(arrows_action(z2), TERMINAL,
                                   FinFn.constant(z2.arrows, TERMINAL, 0)))
    pres = bundle_to_adjunction(w)
    for a in all_actions(z2, FinSet(3)):
        assert pres.right_obj(a).dom.size == a.carrier.size
    for n in range(4):
        s = FinFn.constant(FinSet(n), TERMINAL, 0)
        assert pres.left_obj(s).carrier.size == 2 * n


def test_left_of_terminal_is_the_torsor():
    for name in ("z2", "z3"):
        for nx in (1, 2):
            w = trivial_torsor(GROUPS[name], FinSet(nx))
            pres = bundle_to_adjunction(w)
            term = pres.dom.terminal()
            lo = pres.left_obj(term)
            assert lo.carrier.size == w.bundle.action.carrier.size
            fn = FinFn(w.bundle.action.carrier, lo.carrier,
                       tuple(range(lo.carrier.size)))
            EquivariantMap(w.bundle.action, lo, fn)


def test_counit_at_self_action_embodies_division():
    # the right value at the group object is the carrier again, and the
    # counit there evaluates the division map
    z3 = GROUPS["z3"]
    for w in (trivial_torsor(z3, TERMINAL), non_monotone_torsor(z3)):
        pres = bundle_to_adjunction(w)
        a = arrows_action(z3)
        t, iso = tensor_oracle(pres, w, a)
        fwd = FinFn(t.carrier, w.bundle.action.carrier,
                    tuple(w.bundle.action.act[z3.inverse(g)][p]
                          for (p, g) in map(t.rep_pair, range(t.carrier.size))))
        IsoCertificate(fwd, fwd.inverse())
        eps = pres.counit_at(a)
        lo, pb = pres.left_data(pres.right_obj(a))
        for k, (pprime, j) in enumerate(pb.pairs):
            p0, g0 = t.rep_pair(iso.table[j])
            assert eps.fn.table[k] == z3.comp[w.psi(pprime, p0)][g0]


def test_bundle_presentation_laws_and_roundtrip():
    for name in ("z1", "z2", "z3"):
        g = GROUPS[name]
        for nx in (1, 2):
            w = trivial_torsor(g, FinSet(nx))
            pres = bundle_to_adjunction(w)
            dom_objs = slice_family(FinSet(nx), 2)
            cod_objs = action_family(g, 2)
            assert check_triangles(pres, dom_objs, cod_objs)["passed"]
            assert check_over_base(pres, dom_objs,
                                   dom_mors(pres.dom, dom_objs))["passed"]
            assert check_naturality(pres, dom_mors(pres.dom, dom_objs, 40),
                                    dom_mors(pres.cod, cod_objs, 40))["passed"]
            b2 = adjunction_to_bundle(pres, dom_objs, cod_objs)
            bundle_roundtrip_cert(w, b2)


def test_fixedpoints_presentation_is_an_adjunction():
    # a genuine adjunction (triangles hold); only reciprocity fails
    for name in ("z2", "s3"):
        pres = fixedpoints(GROUPS[name])
        dom_objs = slice_family(TERMINAL, 2)
        cod_objs = action_family(GROUPS[name], 2)
        assert check_triangles(pres, dom_objs, cod_objs)["passed"]
        assert check_over_base(pres, dom_objs,
                               dom_mors(pres.dom, dom_objs, 30))["passed"]


def test_adjunction_to_bundle_rejects_fixedpoints():
    for name in ("z2", "z3"):
        pres = fixedpoints(GROUPS[name])
        dom_objs = slice_family(TERMINAL, 2)
        # the family must contain an action with a point that moves, so
        # it reaches the group's own carrier size
        cod_objs = action_family(GROUPS[name], GROUPS[name].order)
        with pytest.raises(FrobeniusFail):
            adjunction_to_bundle(pres, dom_objs, cod_objs)
        # and its would-be bundle is not free
        term = pres.dom.terminal()
        lo = pres.left_obj(term)
        from finbundles.torsor import NotFreeTransitive

        with pytest.raises(NotFreeTransitive):
            is_principal_bundle(Bundle(lo, TERMINAL,
                                       FinFn.constant(lo.carrier, TERMINAL, 0)))


def test_trivial_group_bundle_is_identity_torsor():
    z1 = GROUPS["z1"]
    for nx in (1, 2, 3):
        w = trivial_torsor(z1, FinSet(nx))
        pres = bundle_to_adjunction(w)
        dom_objs = slice_family(FinSet(nx), 2)
        cod_objs = action_family(z1, 2)
        b = adjunction_to_bundle(pres, dom_objs, cod_objs)
        assert b.proj.is_bijection()


def test_presentation_without_over_iso_is_rejected():
    sp = sigma_presentation(GROUPS["z2"])
    with pytest.raises(NotOverBase):
        check_over_base(sp, action_family(GROUPS["z2"], 2))


# L_P -| R_P on sets that are not torsors ----------------------------------------

def sets_up_to_iso(g):
    """One g-set on at most |g| points per isomorphism class.  A set is the
    disjoint union of its orbits, and an orbit is fixed up to isomorphism
    by the stabilisers of its points (a conjugacy class of subgroups)."""
    found = {}
    for n in range(g.order + 1):
        for a in all_actions(g, FinSet(n)):
            orbits = {}
            for p in range(n):
                stab = tuple(h for h in range(g.order) if a.act[h][p] == p)
                orbits.setdefault(sigma(a).q.table[p], set()).add(stab)
            found.setdefault(tuple(sorted(tuple(sorted(s)) for s in orbits.values())), a)
    return list(found.values())


def small_sets():
    """(P, proj) for every z2-, z4- and s3-set on at most |G| points over a
    point, up to isomorphism, and a z2-set over two points whose
    projection is not monotone: over 1 the swapped pair {0, 2} and the
    fixed point 3, over 0 the fixed point 1."""
    cases = [(P, FinFn.constant(P.carrier, TERMINAL, 0))
             for name in ("z2", "z4", "s3") for P in sets_up_to_iso(GROUPS[name])]
    P = validate_action(GROUPS["z2"], FinSet(4), ((0, 1, 2, 3), (2, 1, 0, 3)))
    return cases + [(P, FinFn(FinSet(4), FinSet(2), (1, 0, 1, 1)))]


def fibre_action(P, proj, x):
    """The action of P on its fibre over x."""
    points = [p for p in range(P.carrier.size) if proj.table[p] == x]
    return validate_action(P.algebra, FinSet(len(points)),
                           [[points.index(row[p]) for p in points] for row in P.act])


def test_presentation_counts_the_equivariant_maps_out_of_each_fibre():
    # brute force: R_P(A) has as many points over x as there are
    # equivariant maps from the fibre P_x to A
    cases = 0
    for P, proj in small_sets():
        pres = presentation(P, proj)
        fibres = [fibre_action(P, proj, x) for x in range(proj.cod.size)]
        for a in action_family(P.algebra, 3):
            ra = pres.right_obj(a)
            assert [ra.table.count(x) for x in range(proj.cod.size)] == \
                [sum(1 for _ in equivariant_maps(f, a)) for f in fibres]
            cases += 1
    assert cases == 4 * 8 + 10 * 8 + 24 * 14 + 8


def test_presentation_triangles_on_small_sets():
    # R_P L_P at the point is the maps P -> P that send each orbit into the
    # points its stabiliser fixes, so it grows as |P| ** orbits: the
    # families shrink as the orbits grow, and the s3-set of six fixed
    # points, where L_P R_P L_P at the point has 6 ** 7 points, is left out
    checked = 0
    for P, proj in small_sets():
        orbits = sigma(P).quotient.size
        if orbits == 6:
            continue
        n = 2 if orbits <= 2 else 1
        pres = presentation(P, proj)
        rep = check_triangles(pres, slice_family(proj.cod, n), action_family(P.algebra, n))
        assert rep["passed"], (P, rep["witnesses"])
        checked += 1
    assert checked == 4 + 10 + 23 + 1


def test_presentation_is_a_bundle_exactly_for_principal_sets():
    # with the action family at |G| points the round trip accepts exactly
    # the torsors: the regular action of each group, and none of the others
    principal = 0
    for P, proj in small_sets():
        g = P.algebra
        try:
            is_principal_bundle(Bundle(P, proj.cod, proj))
            is_torsor = True
        except TorsorError:
            is_torsor = False
        try:
            adjunction_to_bundle(presentation(P, proj), slice_family(proj.cod, 2),
                                 action_family(g, g.order))
            accepted = True
        except AdjunctionError:
            accepted = False
        assert accepted == is_torsor, P
        principal += is_torsor
    assert principal == 3


def test_z4_mod_z2_passes_until_the_family_reaches_four_points():
    # a finding: the z4-set z4/z2 over a point is over the base and passes
    # plain reciprocity on actions of at most 3 points and the default
    # stable slices; only a 4-point action (z4 itself) tells it from a torsor
    z4 = GROUPS["z4"]
    P = next(a for a in all_actions(z4, FinSet(2)) if sigma(a).quotient.size == 1)
    pres = presentation(P, FinFn.constant(P.carrier, TERMINAL, 0))
    dom_objs = slice_family(TERMINAL, 2)
    assert check_over_base(pres, dom_objs)["passed"]
    assert check_stably_frobenius(pres, stable_slice_objects(z4, TERMINAL), dom_objs,
                                  action_family(z4, 2))["passed"]
    assert [check_frobenius(pres, action_family(z4, n), dom_objs)["passed"]
            for n in range(1, 5)] == [True, True, True, False]


# Frobenius checks ------------------------------------------------------------

def test_canonical_map_for_identity_basechange_is_identity():
    # a plain presentation's map, asked for directly, is read through its
    # slice over the terminal object; the product oracle agrees
    f = FinFn.identity(FinSet(2))
    pres = pullback_presentation(f)
    guard = plain_guard(pres)
    for v in slice_family(FinSet(2), 2):
        for w in slice_family(FinSet(2), 2):
            m = frobenius_canonical_map(pres, v, w)
            assert m.fn.is_bijection()
            assert outcome(frobenius_canonical_map, pres, v, w) == oracle_outcome(pres, guard, v, w)


def test_basechange_presentation_stably_frobenius():
    # (1, 0): 2 -> 3 misses a point, so pulling back loses a fibre
    for table, nd, nc in (((0, 1), 2, 2), ((0, 0, 1), 3, 2), ((1, 0, 1), 3, 2),
                          ((1, 0), 2, 3)):
        f = FinFn(FinSet(nd), FinSet(nc), table)
        pres = pullback_presentation(f)
        assert check_triangles(pres, slice_family(f.dom, 2),
                               slice_family(f.cod, 2))["passed"]
        rep = check_stably_frobenius(pres, slice_family(f.cod, 2),
                                     slice_family(f.dom, 2),
                                     slice_family(f.cod, 2))
        assert rep["passed"]


def test_sigma_presentation_stably_frobenius_small():
    from finbundles.suites import point_slice

    for name in ("z2", "z3"):
        sp = sigma_presentation(GROUPS[name])
        rep = check_stably_frobenius(sp, [point_slice(n) for n in (1, 2)],
                                     action_family(GROUPS[name], 2),
                                     slice_family(TERMINAL, 2))
        assert rep["passed"]


def test_sigma_presentation_groupoid():
    gd = GROUPOIDS["pair2"]
    sp = sigma_presentation(gd)
    cod_objs = slice_family(TERMINAL, 2)
    dom_objs = action_family(gd, 2)
    assert check_triangles(sp, dom_objs, cod_objs)["passed"]
    assert check_frobenius(sp, cod_objs, dom_objs)["passed"]


def test_corrupted_counit_detected():
    z2 = GROUPS["z2"]
    w = trivial_torsor(z2, TERMINAL)
    pres = bundle_to_adjunction(w)
    dom_objs = slice_family(TERMINAL, 2)
    cod_objs = action_family(z2, 2)
    for style in range(1, 6):
        bad = corrupt_counit(pres, style)
        assert not check_frobenius(bad, cod_objs, dom_objs)["passed"]


def test_check_frobenius_gives_three_verdicts():
    # a corrupted counit sliced at the trivial action on the base: some
    # comparison maps cannot be assembled (a counit is not a morphism, or
    # a counit square does not commute), others are assembled but send two
    # points to one
    z2, x = GROUPS["z2"], FinSet(2)
    bad = slice_adjunction(corrupt_counit(bundle_to_adjunction(trivial_torsor(z2, x)), 1),
                           trivial_action(z2, x))
    cod_fam = list(bad.cod.objects_over(action_family(z2, 2)))
    dom_fam = list(bad.dom.objects_over(slice_family(x, 2)))
    rep = check_frobenius(bad, cod_fam, dom_fam, max_witnesses=10 ** 6)
    assert not rep["passed"]
    # every failing pair in family order, with its exception or its map
    failing = []
    for a in cod_fam:
        for w in dom_fam:
            try:
                m = frobenius_canonical_map(bad, a, w)
            except _PAIR_ERRORS as exc:
                failing.append((a, w, exc))
            else:
                if not m.fn.is_bijection():
                    failing.append((a, w, m.fn))
    assert len(rep["witnesses"]) == len(failing)
    for entry, (a, w, outcome) in zip(rep["witnesses"], failing):
        assert (entry["cod_obj"], entry["dom_obj"]) == (_obj_desc(a), _obj_desc(w))
        if isinstance(outcome, Exception):
            assert (entry["error"], entry["witness"]) == (type(outcome).__name__,
                                                          outcome.witness)
        else:
            assert "error" not in entry
    square = next(e for e in rep["witnesses"] if e.get("error") == "NotNatural")
    z, lhs, rhs = square["witness"]
    assert lhs != rhs
    k, (i, j) = next((k, e["witness"]) for k, e in enumerate(rep["witnesses"])
                     if "error" not in e and e["witness"][0] != "missed")
    table = failing[k][2].table
    assert i < j and table[i] == table[j]
    assert {e.get("error") for e in rep["witnesses"]} == {None, "NotNatural",
                                                           "NotEquivariant"}


def test_triangle_and_naturality_failures_name_a_point():
    z2 = GROUPS["z2"]
    bad = corrupt_counit(bundle_to_adjunction(trivial_torsor(z2, TERMINAL)), 1)
    tri = check_triangles(bad, slice_family(TERMINAL, 2), action_family(z2, 2))
    assert not tri["passed"]
    assert tri["witnesses"] == [
        {"triangle": "left", "at": "slice(total=1,proj=[0])", "witness": (1, 0, 1)},
        {"triangle": "left", "at": "slice(total=2,proj=[0, 0])", "witness": (2, 0, 2)},
        {"triangle": "right", "at": "action(carrier=2)", "witness": (1, 0, 1)},
    ]
    nat = check_naturality(bad, [], dom_mors(bad.cod, action_family(z2, 2)))
    assert not nat["passed"]
    first = nat["witnesses"][0]
    assert first == {"square": "counit", "dom": "action(carrier=1)",
                     "cod": "action(carrier=2)", "witness": (0, 1, 0)}


def product_oracle(pres, a, w):
    """The comparison map of the pair (a, w) built by pres's own
    categories: the product R a x w, its projections under L, the counit
    at a and the product a x L w, whose mediate checks the legs' cone.
    For a sliced presentation these products are pullbacks over R b and
    over b."""
    prod_d = pres.dom.product(pres.right_obj(a), w)
    lp1, lp2 = pres.left_mor(prod_d.p1), pres.left_mor(prod_d.p2)
    left_leg = pres.cod.compose(pres.counit_at(a), lp1)
    return pres.cod.product(a, pres.left_obj(w)).mediate(left_leg, lp2)


def outcome(build, pres, a, w):
    """("map", (table, size of the codomain)) of the comparison map that
    build makes for the pair, or (name, witness) of the typed error it
    raises."""
    try:
        fn = build(pres, a, w).fn
    except _PAIR_ERRORS as exc:
        return type(exc).__name__, exc.witness
    return "map", (fn.table, fn.cod.size)


def guard_failure(src, b, a, w):
    """(name, witness) of the first guard of src's records over b that
    fails on the sliced pair (a, w), or None when both records hold: the
    counit at b and at A = a.dom are morphisms, the counit square along a
    commutes (else the first point where its sides differ, with both
    images), and L(w) is a morphism."""
    try:
        src.cod.mor(*src.counit_at(b))
        src.cod.mor(*src.counit_at(a.dom))
        lhs = src.counit_at(a.dom).fn.then(a.fn)
        rhs = src.left_mor(src.right_mor(a)).fn.then(src.counit_at(b).fn)
        if lhs != rhs:
            z = next(z for z in range(lhs.dom.size) if lhs.table[z] != rhs.table[z])
            return "NotNatural", (z, lhs.table[z], rhs.table[z])
        src.cod.mor(*src.left_mor(w))
    except (FinSetError, NotEquivariant) as exc:
        return type(exc).__name__, exc.witness
    return None


def plain_guard(pres):
    """guard_failure on a plain presentation's pairs, read in its slice
    over the terminal object: a becomes a -> 1 and w the unique w -> R 1."""
    term = pres.cod.terminal()
    r1 = pres.right_obj(term)

    def guard(a, w):
        return guard_failure(pres, term, Mor(a, term, pres.cod.bang(a).fn),
                             Mor(w, r1, pres.dom.bang(w).fn.then(pres.dom.bang(r1).fn.inverse())))

    return guard


def oracle_outcome(pres, guard, a, w):
    """What the pair's comparison map must be: the failing guard's typed
    error, else the product oracle's map, which the guards make a map."""
    failed = guard(a, w)
    if failed:
        return failed
    want = outcome(product_oracle, pres, a, w)
    assert want[0] == "map", (pres.name, a, w, want)
    return want


def oracle_report(pres, guard, cod_objs, dom_objs) -> dict:
    """check_frobenius's report as the oracle sees it: a failure entry per
    failing pair in family order, with the failing guard's typed error or
    the NotBijective witness of the oracle's map."""
    witnesses = []
    for a in cod_objs:
        for w in dom_objs:
            name, value = oracle_outcome(pres, guard, a, w)
            if name != "map":
                verdict = {"error": name, "witness": value}
            else:
                table, n = value
                try:
                    FinFn(FinSet(len(table)), FinSet(n), table).inverse()
                    continue
                except NotBijective as exc:
                    verdict = {"witness": exc.witness}
            witnesses.append({"cod_obj": _obj_desc(a), "dom_obj": _obj_desc(w), **verdict})
    pairs = len(cod_objs) * len(dom_objs)
    return {"check": "frobenius", "presentation": pres.name,
            "family": {"cod_objects": len(cod_objs), "dom_objects": len(dom_objs)},
            "pairs": pairs, "passed": bool(pairs) and not witnesses, "witnesses": witnesses}


def test_sliced_canonical_map_matches_the_category_route():
    # a sliced presentation reads every comparison map off its source's
    # tables; the sliced categories' products are the oracle of each pair
    # whose records hold, and the guards' typed errors that of every
    # other pair, on the families theorem runs
    from finbundles.suites import point_slice

    cases = []  # (presentation, slicing objects, dom family, cod family)
    for alg, nx in itertools.product([GROUPS[n] for n in ("z2", "z3", "z4", "v4")]
                                     + [GROUPOIDS["pair2"]], (1, 2)):
        x = FinSet(nx)
        fibre = alg.src.table.count(0)
        pres = bundle_to_adjunction(enumerate_torsors(alg, x, FinSet(fibre * nx)).witnesses[-1])
        presentations = [pres]
        if (alg, nx) == (GROUPS["z2"], 2):
            presentations += [corrupt_counit(pres, style) for style in range(1, 6)]
        for p in presentations:
            cases.append((p, stable_slice_objects(alg, x),
                          slice_family(x, 2), action_family(alg, 2)))
    for alg in (GROUPS["z2"], GROUPOIDS["pair2"]):
        cases.append((sigma_presentation(alg), [point_slice(n) for n in (1, 2, 3)],
                      action_family(alg, 3), slice_family(TERMINAL, 3)))
    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    cases.append((pullback_presentation(f), slice_family(f.cod, 1),
                  slice_family(f.dom, 2), slice_family(f.cod, 2)))
    cases.append((fixedpoints(GROUPS["z2"]), stable_slice_objects(GROUPS["z2"], TERMINAL),
                  slice_family(TERMINAL, 2), action_family(GROUPS["z2"], 2)))
    outcomes = set()
    counts = []  # (presentation, its pairs, its pairs with a map)
    for pres, slicing, dom_objs, cod_objs in cases:
        pairs = maps = 0
        for b in slicing:
            sliced = slice_adjunction(pres, b)
            dom_fam = list(sliced.dom.objects_over(dom_objs))
            cod_fam = list(sliced.cod.objects_over(cod_objs))

            def guard(a, w):
                return guard_failure(pres, b, a, w)

            for a in cod_fam:
                for w in dom_fam:
                    name, value = outcome(frobenius_canonical_map, sliced, a, w)
                    assert (name, value) == oracle_outcome(sliced, guard, a, w), (sliced.name, a, w)
                    outcomes.add(name if name != "map" else len(set(value[0])) == len(value[0]))
                    pairs += 1
                    maps += name == "map"
        counts.append((pres.name, pairs, maps))
    # every verdict is exercised: bijections, non-injective maps and the
    # typed errors of two guards
    assert outcomes == {True, False, "NotNatural", "NotEquivariant"}
    # every genuine presentation has a map on every pair; each corrupted
    # one fails some pairs' guards and passes others
    for name, pairs, maps in counts:
        assert pairs > 0
        if "!corrupt" in name:
            assert 0 < maps < pairs, name
        else:
            assert maps == pairs, name
    assert len(counts) == 19 and sum(pairs for _, pairs, _ in counts) > 6000


def test_corrupted_counit_reports_match_the_category_route():
    # the records read every component through the presentation, so a
    # corrupted copy's counit is the one its guards and tables use; every
    # sliced report is the oracle's, witnesses included
    stable = []
    for alg, x in ((GROUPS["z2"], FinSet(2)), (GROUPS["z3"], TERMINAL)):
        pres = bundle_to_adjunction(trivial_torsor(alg, x))
        for style in range(1, 6):
            bad = corrupt_counit(pres, style)
            for b in stable_slice_objects(alg, x):
                sliced = slice_adjunction(bad, b)
                dom_fam = list(sliced.dom.objects_over(slice_family(x, 2)))
                cod_fam = list(sliced.cod.objects_over(action_family(alg, 2)))
                got = check_frobenius(sliced, cod_fam, dom_fam, max_witnesses=10 ** 6)
                want = oracle_report(sliced, lambda a, w: guard_failure(bad, b, a, w),
                                     cod_fam, dom_fam)
                assert got == want, (sliced.name, style)
            stable.append(check_stably_frobenius(bad, stable_slice_objects(alg, x),
                                                 slice_family(x, 2), action_family(alg, 2)))
    assert len(stable) == 10 and not any(rep["passed"] for rep in stable)


def test_plain_map_through_the_terminal_slice_matches_the_product_route():
    # check_frobenius reads a plain comparison map off the tables of the
    # slice over the terminal object; the product route is its oracle,
    # table for table, and every genuine presentation, base change
    # included, has a map on every pair
    cases = []  # (presentation, dom family, cod family)
    for alg, nx in itertools.product([GROUPS[n] for n in ("z2", "z3", "z4", "v4")]
                                     + [GROUPOIDS["pair2"], GROUPOIDS["z2_loop"]], (1, 2)):
        x = FinSet(nx)
        fibre = alg.src.table.count(0)
        witnesses = enumerate_torsors(alg, x, FinSet(fibre * nx)).witnesses
        for w in {witnesses[0].bundle: witnesses[0], witnesses[-1].bundle: witnesses[-1]}.values():
            cases.append((bundle_to_adjunction(w), slice_family(x, 2), action_family(alg, 3)))
    for alg in (GROUPS["z2"], GROUPOIDS["pair2"]):
        cases.append((sigma_presentation(alg), action_family(alg, 3), slice_family(TERMINAL, 3)))
    for table, nd, nc in (((0, 1), 2, 2), ((0, 0, 1), 3, 2), ((1, 0), 2, 3)):
        f = FinFn(FinSet(nd), FinSet(nc), table)
        cases.append((pullback_presentation(f), slice_family(f.dom, 2), slice_family(f.cod, 2)))
    pairs = 0
    for pres, dom_objs, cod_objs in cases:
        view, guard = _terminal_view(pres), plain_guard(pres)
        for a in cod_objs:
            for w in dom_objs:
                got = outcome(frobenius_canonical_map, view, a, w)
                assert got[0] == "map" and got == oracle_outcome(pres, guard, a, w), \
                    (pres.name, a, w)
                pairs += 1
        assert check_frobenius(pres, cod_objs, dom_objs)["passed"], pres.name
    assert len(cases) == 27 and pairs > 1000


def test_plain_reports_match_the_product_route():
    # the fixed-points presentations fail on the same pairs with the same
    # NotBijective witnesses; a corrupted counit fails some pairs' guards,
    # and its whole report, witnesses included, is the oracle's
    reports = []
    for g in (GROUPS["z2"], GROUPS["z3"]):
        reports.append((fixedpoints(g), slice_family(TERMINAL, 2), action_family(g, g.order)))
    for alg, x in ((GROUPS["z2"], FinSet(2)), (GROUPS["z3"], TERMINAL),
                   (GROUPOIDS["pair2"], TERMINAL)):
        w = enumerate_torsors(alg, x, FinSet(alg.src.table.count(0) * x.size)).witnesses[0]
        pres = bundle_to_adjunction(w)
        reports += [(corrupt_counit(pres, style), slice_family(x, 2), action_family(alg, 2))
                    for style in range(1, 6)]
    verdicts = set()
    for pres, dom_objs, cod_objs in reports:
        got = check_frobenius(pres, cod_objs, dom_objs, max_witnesses=10 ** 6)
        want = oracle_report(pres, plain_guard(pres), cod_objs, dom_objs)
        assert got == want and not got["passed"], pres.name
        verdicts.update(e.get("error") for e in got["witnesses"])
    # NotBijective witnesses, and the typed errors of the guards where a
    # corrupted counit is not a morphism
    assert verdicts == {None, "NotEquivariant"}


def test_checks_leave_no_cycle_through_the_presentation():
    # every record and memo of the checks hangs off the presentation or a
    # sliced form of it, and none refers back to a presentation that holds
    # it: with the cycle collector off, the presentation dies with its
    # last reference
    z3, x = GROUPS["z3"], FinSet(2)
    gc.disable()
    try:
        pres = bundle_to_adjunction(trivial_torsor(z3, x))
        dom_objs, cod_objs = slice_family(x, 2), action_family(z3, 2)
        assert check_stably_frobenius(pres, stable_slice_objects(z3, x),
                                      dom_objs, cod_objs)["passed"]
        adjunction_to_bundle(pres, dom_objs, cod_objs)
        ref = weakref.ref(pres)
        del pres
        assert ref() is None
    finally:
        gc.enable()


def test_a_counit_corrupted_only_at_the_slicing_object_fails_every_pair():
    # z2 over a point, sliced over b = the arrows action plus a fixed point
    # 2; one point q of L(R b) that no L(R a) of the family reaches is sent
    # to 2, so every counit square along the family still commutes and
    # only the guard of the counit at b fails, on every pair
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    b = validate_action(z2, FinSet(3), ((0, 1, 2), (1, 0, 2)))
    sliced = slice_adjunction(pres, b)
    cod_fam = list(sliced.cod.objects_over(action_family(z2, 1)))
    dom_fam = list(sliced.dom.objects_over(slice_family(TERMINAL, 2)))
    reached = {v for a in cod_fam for v in pres.left_mor(pres.right_mor(a)).fn.table}
    q = min(set(range(pres.counit_at(b).fn.dom.size)) - reached)

    def counit_at(o):
        m = pres.counit_at(o)
        if o != b:
            return m
        table = tuple(2 if v == q else e for v, e in enumerate(m.fn.table))
        return Mor(m.dom, m.cod, FinFn(m.fn.dom, m.fn.cod, table))

    bad = copy.copy(pres)
    bad.counit_at = counit_at
    for a in cod_fam:
        assert (bad.counit_at(a.dom).fn.then(a.fn)
                == bad.left_mor(bad.right_mor(a)).fn.then(bad.counit_at(b).fn))
    with pytest.raises(NotEquivariant) as at_b:
        bad.cod.mor(*bad.counit_at(b))
    sliced = slice_adjunction(bad, b)
    got = check_frobenius(sliced, cod_fam, dom_fam, max_witnesses=10 ** 6)
    want = oracle_report(sliced, lambda a, w: guard_failure(bad, b, a, w), cod_fam, dom_fam)
    assert got == want and not got["passed"]
    assert len(got["witnesses"]) == got["pairs"] == 26
    assert all(e["error"] == "NotEquivariant" and e["witness"] == at_b.value.witness
               for e in got["witnesses"])


def test_a_counit_with_the_wrong_endpoints_gives_failed_pairs():
    # a hand-built presentation whose counit lands in a set one point too
    # large: every pair fails the guard of the counit at the terminal
    # action with the typed CodMismatch and its two sets, and nothing
    # raises out of the check
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))

    def counit_at(a):
        m = pres.counit_at(a)
        return Mor(m.dom, m.cod, FinFn(m.fn.dom, FinSet(m.fn.cod.size + 1), m.fn.table))

    bad = AdjunctionPresentation(
        "wrong ends", pres.dom, pres.cod, pres.left_obj, pres.left_mor,
        pres.right_obj, pres.right_mor, pres.unit_at, counit_at)
    rep = check_frobenius(bad, action_family(z2, 2), slice_family(TERMINAL, 2),
                          max_witnesses=10 ** 6)
    assert not rep["passed"] and len(rep["witnesses"]) == rep["pairs"] > 0
    assert all(e["error"] == "CodMismatch" and e["witness"] == (FinSet(2), FinSet(1))
               for e in rep["witnesses"])




def test_a_left_functor_off_its_morphisms_fails_the_pairs_of_that_object():
    # a hand-built copy of z2's torsor presentation whose L sends every
    # morphism out of the three-point slice to a constant map, which is
    # not equivariant: the pairs of that slice fail the guard that L(w) is
    # a morphism, with its witness, and every other pair keeps its map
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    three = FinFn.constant(FinSet(3), TERMINAL, 0)

    def left_mor(m):
        lm = pres.left_mor(m)
        if m.dom != three:
            return lm
        return Mor(lm.dom, lm.cod, FinFn.constant(lm.fn.dom, lm.fn.cod, 0))

    bad = AdjunctionPresentation(
        "constant L", pres.dom, pres.cod, pres.left_obj, left_mor,
        pres.right_obj, pres.right_mor, pres.unit_at, pres.counit_at)
    cod_objs, dom_objs = action_family(z2, 2), slice_family(TERMINAL, 3)
    rep = check_frobenius(bad, cod_objs, dom_objs, max_witnesses=10 ** 6)
    assert rep == oracle_report(bad, plain_guard(bad), cod_objs, dom_objs)
    assert len(rep["witnesses"]) == len(cod_objs)
    assert all(e["dom_obj"] == _obj_desc(three) and e["error"] == "NotEquivariant"
               for e in rep["witnesses"])


def test_corollary_agreement_positive_and_negative():
    z3 = GROUPS["z3"]
    w = trivial_torsor(z3, FinSet(2))
    pres = bundle_to_adjunction(w)
    dom_objs = slice_family(FinSet(2), 2)
    cod_objs = action_family(z3, 2)
    stable = stable_slice_objects(z3, FinSet(2))
    rep = corollary_slice_criterion(pres, dom_objs, cod_objs, stable)
    assert rep["criterion_passed"] and rep["stable_passed"] and rep["agree"]
    bad = corrupt_counit(pres, 2)
    rep = corollary_slice_criterion(bad, dom_objs, cod_objs, stable)
    assert not rep["criterion_passed"] and not rep["stable_passed"]
    assert rep["agree"]


def test_stable_reciprocity_over_all_small_slicing_objects():
    # representative torsors, sliced over every action object with a
    # small carrier rather than just the canonical pair
    for name, nx in (("z2", 2), ("z3", 1)):
        g = GROUPS[name]
        w = trivial_torsor(g, FinSet(nx))
        pres = bundle_to_adjunction(w)
        slicing = action_family(g, 3)
        rep = check_stably_frobenius(pres, slicing,
                                     slice_family(FinSet(nx), 2),
                                     action_family(g, 2),
                                     hom_cap=100000, max_pairs=10 ** 9)
        assert rep["passed"], (name, rep)


def test_slice_adjunction_triangles():
    z2 = GROUPS["z2"]
    w = trivial_torsor(z2, TERMINAL)
    pres = bundle_to_adjunction(w)
    b = arrows_action(z2)
    sliced = slice_adjunction(pres, b)
    dom_fam = list(sliced.dom.objects_over(slice_family(TERMINAL, 2), 500))
    cod_fam = list(sliced.cod.objects_over(action_family(z2, 2), 500))
    assert check_triangles(sliced, dom_fam, cod_fam)["passed"]


def test_factored_matches_translated_groupoid_torsor():
    # the left values of a torsor over a base, each with the base point of
    # its points, agree table by table with the left values of the
    # fibrewise-groupoid torsor, read back as group actions over the base
    for name, nx in (("z2", 2), ("z3", 2)):
        g = GROUPS[name]
        x = FinSet(nx)
        w = trivial_torsor(g, x)
        translation = slice_groupoid_equivalence(g, x)
        anchored = translation.to_anchored(w.bundle.action, w.bundle.proj)
        gw = is_principal_bundle(Bundle(anchored, x, w.bundle.proj))
        gpres = bundle_to_adjunction(gw)
        pres = presentation(w.bundle.action, w.bundle.proj)
        for o in slice_family(x, 2):
            lo, pb = pres.left_data(o)
            plain, invariant = translation.from_anchored(gpres.left_obj(o))
            assert plain.act == lo.act
            assert invariant.table == tuple(o.table[v] for _, v in pb.pairs)


# Slice/groupoid translation --------------------------------------------------

def test_slice_groupoid_translation_roundtrip():
    z2 = GROUPS["z2"]
    x = FinSet(2)
    translation = slice_groupoid_equivalence(z2, x)
    for n in range(4):
        for a in all_actions(z2, FinSet(n)):
            for u_table in all_functions(FinSet(n), x):
                orb = sigma(a)
                if any(u_table.table[p] != u_table.table[a.act[g][p]]
                       for g in range(2) for p in range(n)):
                    continue
                anchored = translation.to_anchored(a, u_table)
                validate_action(z2 if False else anchored.algebra,
                                anchored.carrier, anchored.act, anchored.anchor)
                back, u_back = translation.from_anchored(anchored)
                assert back.act == a.act and u_back == u_table


def test_slice_groupoid_translation_trivial_group():
    z1 = GROUPS["z1"]
    x = FinSet(3)
    translation = slice_groupoid_equivalence(z1, x)
    a = trivial_action(z1, FinSet(3))
    u = FinFn.identity(FinSet(3))
    anchored = translation.to_anchored(a, u)
    back, u_back = translation.from_anchored(anchored)
    assert back.act == a.act and u_back == u


def test_slice_groupoid_translation_preserves_torsors():
    for name in ("z2", "z3"):
        g = GROUPS[name]
        for nx in (1, 2):
            x = FinSet(nx)
    # translated bundles satisfy the predicate exactly when the originals do
            translation = slice_groupoid_equivalence(g, x)
            enum = enumerate_torsors(g, x, FinSet(g.order * nx))
            for w in enum.witnesses:
                anchored = translation.to_anchored(w.bundle.action, w.bundle.proj)
                gw = is_principal_bundle(Bundle(anchored, x, w.bundle.proj))
                # division tables agree under the arrow indexing
                for (p, q) in w.pairs:
                    arrow = gw.psi(p, q)
                    assert arrow == w.psi(p, q) * nx + w.bundle.proj.table[p]
            # a non-torsor stays a non-torsor
            triv = trivial_action(g, FinSet(g.order * nx))
            proj = FinFn(triv.carrier, x,
                         tuple(i % nx for i in range(g.order * nx)))
            anchored = translation.to_anchored(triv, proj)
            from finbundles.torsor import TorsorError

            with pytest.raises(TorsorError):
                is_principal_bundle(Bundle(anchored, x, proj))


# Groupoid instances ----------------------------------------------------------

def test_discrete_groupoid_bundles_match_basechange():
    from finbundles.suites import _basechange_witness

    bounds = Bounds()
    for name in ("discrete1", "discrete2", "discrete3"):
        gd = GROUPOIDS[name]
        for nx in (1, 2):
            x = FinSet(nx)
            enum = enumerate_torsors(gd, x, x)
            assert enum.iso_count == gd.objects.size ** nx
            for w in enum.class_reps():
                assert _basechange_witness(w, bounds) is None


def test_groupoid_bundle_presentation_stable():
    gd = GROUPOIDS["discrete2"]
    x = FinSet(2)
    enum = enumerate_torsors(gd, x, x)
    w = enum.class_reps()[0]
    pres = bundle_to_adjunction(w)
    dom_objs = slice_family(x, 2)
    cod_objs = action_family(gd, 2)
    assert check_triangles(pres, dom_objs, cod_objs)["passed"]
    rep = check_stably_frobenius(pres, stable_slice_objects(gd, x),
                                 dom_objs, cod_objs)
    assert rep["passed"]


def test_adjunction_roundtrip_gives_natural_iso_of_left_adjoints():
    # adjunction -> bundle -> adjunction: the two left adjoints are
    # naturally isomorphic through the carrier comparison
    for name, nx in (("z2", 1), ("z2", 2), ("z3", 1)):
        g = GROUPS[name]
        x = FinSet(nx)
        w = trivial_torsor(g, x)
        pres = bundle_to_adjunction(w)
        dom_objs = slice_family(x, 2)
        cod_objs = action_family(g, 2)
        b2 = adjunction_to_bundle(pres, dom_objs, cod_objs)
        pres2 = bundle_to_adjunction(is_principal_bundle(b2))
        t = bundle_roundtrip_cert(w, b2)
        component = torsor_map_to_transform(pres, pres2, t)
        for o in dom_objs:
            m = component(o)
            assert m.fn.is_bijection()
            for mor in dom_mors(pres.dom, [o], 10):
                lhs = pres.cod.compose(component(mor.cod), pres.left_mor(mor))
                rhs = pres.cod.compose(pres2.left_mor(mor), component(mor.dom))
                assert lhs.fn == rhs.fn


def test_family_too_large_guard():
    from finbundles.categories import FamilyTooLarge

    z2 = GROUPS["z2"]
    w = trivial_torsor(z2, TERMINAL)
    pres = bundle_to_adjunction(w)
    dom_objs = slice_family(TERMINAL, 2)
    cod_objs = action_family(z2, 2)
    with pytest.raises(FamilyTooLarge):
        check_frobenius(pres, cod_objs, dom_objs, max_pairs=1)
    sliced = slice_adjunction(pres, arrows_action(z2))
    with pytest.raises(FamilyTooLarge):
        list(sliced.dom.objects_over(dom_objs, hom_cap=0))


# Morphism-level functoriality ------------------------------------------------

def test_torsor_maps_induce_natural_transformations():
    z2 = GROUPS["z2"]
    x = FinSet(2)
    enum = enumerate_torsors(z2, x, FinSet(4))
    w1 = enum.witnesses[0]
    for w2 in enum.witnesses[:3]:
        from finbundles.torsor import equivariant_iso_over_base

        t = equivariant_iso_over_base(w1, w2)
        assert t is not None
        p1 = bundle_to_adjunction(w1)
        p2 = bundle_to_adjunction(w2)
        component = torsor_map_to_transform(p1, p2, t)
        for o in slice_family(x, 2):
            m = component(o)
            # naturality against every slice morphism
            for mor in dom_mors(p1.dom, [o], 20):
                lhs = p1.cod.compose(component(mor.cod), p1.left_mor(mor))
                rhs = p1.cod.compose(p2.left_mor(mor), component(mor.dom))
                assert lhs.fn == rhs.fn
        assert transform_to_torsor_map(p1, p2, component) == t


# Family handling ----------------------------------------------------------------

def test_check_triangles_counts_generator_families():
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    as_lists = check_triangles(pres, slice_family(TERMINAL, 2), action_family(z2, 2))
    as_generators = check_triangles(pres, SliceCategory(TERMINAL).objects_upto(2),
                                    ActionCategory(z2).objects_upto(2))
    assert as_lists["objects"] == 7
    assert as_generators == as_lists


def test_check_frobenius_fails_on_an_empty_family():
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    for cod_objs, dom_objs in (([], slice_family(TERMINAL, 2)),
                               (action_family(z2, 2), []), ([], [])):
        rep = check_frobenius(pres, cod_objs, dom_objs)
        assert rep["pairs"] == 0
        assert not rep["passed"]


def test_check_frobenius_lets_a_crashing_component_escape():
    # only the typed errors of a malformed comparison map count as a failed
    # pair; a component that crashes is a bug and must not read as a verdict
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))

    def counit_at(a):
        raise ValueError("component crashed")

    crashing = AdjunctionPresentation(
        "crashing", pres.dom, pres.cod, pres.left_obj, pres.left_mor,
        pres.right_obj, pres.right_mor, pres.unit_at, counit_at)
    with pytest.raises(ValueError, match="component crashed"):
        check_frobenius(crashing, action_family(z2, 1), slice_family(TERMINAL, 1))


def test_check_stably_frobenius_fails_with_no_slices():
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    rep = check_stably_frobenius(pres, iter([]), slice_family(TERMINAL, 2),
                                 action_family(z2, 2))
    assert rep["slices"] == 0
    assert not rep["passed"]


def test_check_triangles_fails_on_empty_families():
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    rep = check_triangles(pres, [], [])
    assert rep["objects"] == 0
    assert not rep["passed"]


def test_check_naturality_counts_morphisms_and_fails_on_empty_families():
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    rep = check_naturality(pres, [], [])
    assert rep["morphisms"] == 0
    assert not rep["passed"]
    mors = dom_mors(pres.dom, slice_family(TERMINAL, 2), 40)
    rep = check_naturality(pres, iter(mors), iter([]))
    assert rep["morphisms"] == len(mors) > 0
    assert rep["passed"]


def test_check_over_base_fails_on_an_empty_family():
    z2 = GROUPS["z2"]
    pres = bundle_to_adjunction(trivial_torsor(z2, TERMINAL))
    rep = check_over_base(pres, [])
    assert rep["objects"] == 0
    assert not rep["passed"]


def test_bundle_roundtrip_cert_names_a_witness():
    z2 = GROUPS["z2"]
    w = trivial_torsor(z2, TERMINAL)
    two, three = FinSet(2), FinSet(3)
    cases = [
        # the trivial action: the comparison is not equivariant at g = 1, p = 0
        (Bundle(trivial_action(z2, two), TERMINAL, FinFn.constant(two, TERMINAL, 0)),
         (1, 0)),
        # a third point on the round trip has no preimage
        (Bundle(trivial_action(z2, three), TERMINAL, FinFn.constant(three, TERMINAL, 0)),
         ("missed", 2)),
    ]
    for b2, witness in cases:
        with pytest.raises(RoundTripFail) as exc:
            bundle_roundtrip_cert(w, b2)
        assert exc.value.witness == witness
    with pytest.raises(RoundTripFail) as exc:
        bundle_roundtrip_cert(trivial_torsor(z2, three), w.bundle)
    assert exc.value.witness == ("unmatched", 2)
    # the same action with its two fibres over swapped base points
    w2 = trivial_torsor(z2, two)
    b2 = Bundle(w2.bundle.action, two, FinFn(w2.bundle.action.carrier, two, (1, 1, 0, 0)))
    with pytest.raises(RoundTripFail) as exc:
        bundle_roundtrip_cert(w2, b2)
    assert exc.value.witness == 0


def test_bundle_roundtrip_cert_rejects_without_asserts():
    # the round-trip comparison is a typed check, so it still runs under
    # python -O, where assert statements are stripped
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = "\n".join([
        "from finbundles import catalog",
        "from finbundles.algebra import trivial_action",
        "from finbundles.finset import FinFn, FinSet, TERMINAL",
        "from finbundles.torsor import Bundle, trivial_torsor",
        "from finbundles.adjunction import RoundTripFail",
        "from finbundles.suites import bundle_roundtrip_cert",
        "z2 = catalog.cyclic(2)",
        "b2 = Bundle(trivial_action(z2, FinSet(2)), TERMINAL,",
        "            FinFn.constant(FinSet(2), TERMINAL, 0))",
        "try:",
        "    fn = bundle_roundtrip_cert(trivial_torsor(z2, TERMINAL), b2)",
        "except RoundTripFail as exc:",
        "    print('REJECTED', exc.witness)",
        "else:",
        "    print('ACCEPTED', fn.table)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "REJECTED (1, 0)"
