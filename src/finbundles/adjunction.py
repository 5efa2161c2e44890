"""Adjunction presentations between slice and action categories: the
one builder of L_P -| R_P for an action over a base, the tensor, both
directions of the bundle <-> adjunction correspondence, and the law
checkers.

A presentation is a pair of computable functors with per-object unit and
counit components.  These fix the adjunction: the hom-set bijection sends
f: o -> R a to counit_at(a) . L f and g: L o -> a to R g . unit_at(o).
The theorem's side of the correspondence is a presentation from a slice
category into an action category that is over the base and stably
Frobenius; each of those two properties has one check here.  The sliced
forms that the stable check builds are the only presentations between
other kinds of category.

Categories of actions have unboundedly many objects, so every law
(triangle identities, naturality, reciprocity, over-base comparisons) is
verified on an explicit finite family, and each law's report (one
builder, _law_report) carries the family sizes used.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cache

from .finset import (
    BaseMismatch,
    CodMismatch,
    DomMismatch,
    FinFn,
    FinSet,
    FinSetError,
    NotBijective,
    Pullback,
    TERMINAL,
    pullback,
)
from .algebra import (
    ActionObject,
    AlgebraMismatch,
    AnchorMismatch,
    FinGroupoid,
    NotEquivariant,
    action_product,
    group_bundle_groupoid,
    pullback_action,
    sigma,
    sigma_mor,
    trivial_action,
)
from .categories import (
    ActionCategory,
    FamilyTooLarge,
    Mor,
    SliceCategory,
    SliceOverCategory,
)
from .torsor import Bundle, TorsorWitness


class AdjunctionError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotOverBase(AdjunctionError):
    pass


class FrobeniusFail(AdjunctionError):
    pass


class RoundTripFail(AdjunctionError):
    """The comparison from a bundle's carrier onto its round trip is not
    an isomorphism over the base; the witness says where it fails."""


class WrongCategory(AdjunctionError):
    """A construction got a presentation between categories of another
    kind; the witness is the offending category."""


class NotNatural(AdjunctionError):
    """A counit square that does not commute; the witness is the first
    point z where its two sides differ, as (z, lhs(z), rhs(z))."""


class NotTrivial(AdjunctionError):
    """A value of a right adjoint that should be a trivial action is not;
    the witness is (g, k) for an arrow g that moves the point k, or
    ("anchor", k) for a point anchored off its object."""


def _require(cat, kind):
    if not isinstance(cat, kind):
        raise WrongCategory("needs a %s" % kind.__name__, cat)


def _bucketed_w_side(w: Mor, lw: Mor):
    side = {}
    for v, y in enumerate(lw.fn.table):
        side.setdefault(y, []).append(v)
    return side


# L(D), D the pullback of ra: R a -> R b and w, as the pullback of L(R a)
# and L(w) over L(R b), in its order: the sides are L's tables on R a and
# on w, bucketed for w
_PULLBACK_LEGS = (lambda ra, lra: lra.fn.table, _bucketed_w_side,
                  lambda sa, sw: [(u, v) for u, y in enumerate(sa) for v in sw.get(y, ())])


class AdjunctionPresentation:
    """A computable left/right functor pair with unit and counit
    components, between two of the wrapped categories.  Every component
    is cached per presentation: the checks evaluate them again and again
    on equal objects.  over_iso_at, the comparison of each left value's
    orbit set with the underlying set of its argument, is present exactly
    on the presentations of actions over a base (presentation), whose
    left values are actions.  legs_at is three uncached functions:
    join(ra_side(ra, L ra), w_side(w, L w)) lists (L p1 z, L p2 z) over
    L(D)'s points z, D the pullback of ra and w.  Its default is right
    for every L that keeps that pullback, as P x_X - and post-composition
    do; sigma_presentation's orbits do not, and bring their own."""

    def __init__(self, name, dom, cod, left_obj, left_mor, right_obj, right_mor,
                 unit_at, counit_at, over_iso_at=None, legs_at=_PULLBACK_LEGS):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.left_obj = cache(left_obj)
        self.left_mor = cache(left_mor)
        self.right_obj = cache(right_obj)
        self.right_mor = cache(right_mor)
        self.unit_at = cache(unit_at)
        self.counit_at = cache(counit_at)
        self.over_iso_at = cache(over_iso_at) if over_iso_at is not None else None
        self.legs_at = legs_at
        self.records = None  # a sliced form's records (_records)

    def __repr__(self):
        return "AdjunctionPresentation(%s)" % self.name


# Tensor ----------------------------------------------------------------------

@dataclass(frozen=True)
class TensorResult:
    """P (x) A with its quotient map from the anchored product, which
    holds the pairs (p, a); a class is numbered by its least pair."""

    carrier: FinSet
    quotient_map: FinFn
    product: Pullback
    reps: tuple[int, ...]

    def class_of(self, p: int, a: int) -> int:
        return self.quotient_map.table[self.product.index(p, a)]

    def rep_pair(self, k: int) -> tuple[int, int]:
        return self.product.pairs[self.reps[k]]


# A plain dict rather than functools.cache: the benchmark child
# (perfbench/child.py) reads len(_tensor_cache) in every repetition.  Its
# keys are a torsor's actions, so suites.theorem_torsor_checks empties it
# in place (finbundles.clear_caches) after each torsor instance; the
# benchmark's count thus covers only the entries since the last instance.
_tensor_cache: dict = {}


def tensor(P: ActionObject, a: ActionObject) -> TensorResult:
    """The balanced product: the quotient of the anchored product of P
    with a by (g.p, a) ~ (p, g^(-1).a).  That relation is the orbit
    relation of the diagonal action, so the tensor is its orbit set."""
    key = (P, a)
    result = _tensor_cache.get(key)
    if result is None:
        obj, pb = action_product(P, a)
        orb = sigma(obj)
        result = _tensor_cache[key] = TensorResult(orb.quotient, orb.q, pb, orb.reps)
    return result


# The presentation of a G-set over a base ----------------------------------

def presentation(P: ActionObject, proj: FinFn, name: str | None = None
                 ) -> AdjunctionPresentation:
    """L_P -| R_P for an action P with an invariant map proj to a base X
    (Mac Lane & Moerdijk, Sheaves in Geometry and Logic, ch. VII).  L_P
    pairs P with a slice fibrewise: L_P(Y) = P x_X Y.  R_P(A) is the
    coproduct over x of the equivariant maps from the fibre P_x to A: the
    pairs (x, phi), ordered by x, then by phi.  phi is stored as its
    values at the least point r of each orbit of P_x; each is a point of A
    with r's anchor that r's stabiliser fixes.  The unit sends y to
    (o(y), r |-> (r, y)); the counit evaluates, sending (p, (x, phi)) to
    g.phi(r) for any arrow g that moves r onto p.  For a torsor R_P(A) is
    the tensor P (x) A; for a point over a point it is the fixed points."""
    b = Bundle(P, proj.cod, proj)
    alg = P.algebra
    X = b.base
    orbits = sigma(P)
    # the orbit representatives over each base point; per point p, an
    # arrow moving its representative onto p and that representative's
    # place among those over p's base point
    reps = [[r for r in orbits.reps if proj.table[r] == x] for x in X]
    stabiliser = {r: [g for g in range(alg.order) if P.act[g][r] == r] for r in orbits.reps}
    mover, place = [None] * P.carrier.size, [None] * P.carrier.size
    for rs in reps:
        for i, r in enumerate(rs):
            for g in range(alg.order):
                p = P.act[g][r]
                if p is not None and mover[p] is None:
                    mover[p], place[p] = g, i

    @cache
    def left_data(o: FinFn):
        pb = pullback(proj, o)
        return pullback_action(pb, P), pb

    @cache
    def right_data(a: ActionObject):
        values = {r: [v for v in range(a.carrier.size)
                      if a.anchor.table[v] == P.anchor.table[r]
                      and all(a.act[g][v] == v for g in stabiliser[r])]
                  for r in orbits.reps}
        points = [(x, phi) for x in X
                  for phi in itertools.product(*(values[r] for r in reps[x]))]
        index = {point: k for k, point in enumerate(points)}
        return FinFn(FinSet(len(points)), X, tuple(x for x, _ in points)), points, index

    def left_obj(o):
        return left_data(o)[0]

    def left_mor(m: Mor):
        lo, pbo = left_data(m.dom)
        lc, pbc = left_data(m.cod)
        table = tuple(pbc.index(p, m.fn.table[wv]) for (p, wv) in pbo.pairs)
        return Mor(lo, lc, FinFn(lo.carrier, lc.carrier, table))

    def right_obj(a):
        return right_data(a)[0]

    def right_mor(n: Mor):
        roA, points, _ = right_data(n.dom)
        roB, _, indexB = right_data(n.cod)
        f = n.fn.table
        table = tuple(indexB[x, tuple(f[v] for v in phi)] for x, phi in points)
        return Mor(roA, roB, FinFn(roA.dom, roB.dom, table))

    def unit_at(o: FinFn):
        lo, pbo = left_data(o)
        ro, _, index = right_data(lo)
        table = tuple(index[x, tuple(pbo.index(r, wv) for r in reps[x])]
                      for wv, x in enumerate(o.table))
        return Mor(o, ro, FinFn(o.dom, ro.dom, table))

    def counit_at(a: ActionObject):
        ro, points, _ = right_data(a)
        lo, pbo = left_data(ro)
        table = tuple(a.apply(mover[p], points[k][1][place[p]]) for (p, k) in pbo.pairs)
        return Mor(lo, a, FinFn(lo.carrier, a.carrier, table))

    def over_iso_at(o: FinFn):
        lo, pbo = left_data(o)
        orb = sigma(lo)
        table = tuple(pbo.pairs[orb.reps[k]][1] for k in range(orb.quotient.size))
        return FinFn(orb.quotient, o.dom, table)

    pres = AdjunctionPresentation(
        name or "bundle(|G|=%d, |X|=%d, |P|=%d)" % (alg.order, X.size, P.carrier.size),
        SliceCategory(X), ActionCategory(alg), left_obj, left_mor, right_obj, right_mor,
        unit_at, counit_at, over_iso_at)
    pres.bundle = b
    pres.left_data = left_data
    return pres


def bundle_to_adjunction(w: TorsorWitness) -> AdjunctionPresentation:
    """The adjunction induced by a torsor, whose right adjoint is the
    tensor with its carrier."""
    return presentation(w.bundle.action, w.bundle.proj)


# Stock presentations --------------------------------------------------------

def sigma_presentation(alg) -> AdjunctionPresentation:
    """Orbit quotient left adjoint to the trivial-action functor."""
    dom = ActionCategory(alg)
    cod = SliceCategory(TERMINAL)

    def left_obj(a):
        return FinFn.constant(sigma(a).quotient, TERMINAL, 0)

    def left_mor(m: Mor):
        return Mor(left_obj(m.dom), left_obj(m.cod), sigma_mor(m.dom, m.cod, m.fn))

    def right_obj(v: FinFn):
        return trivial_action(alg, v.dom)

    def right_mor(m: Mor):
        # trivial-action points (o, x) are indexed o * |X| + x
        rd, rc = right_obj(m.dom), right_obj(m.cod)
        n_from, n_to = m.dom.dom.size, m.cod.dom.size
        table = tuple((k // n_from) * n_to + m.fn.table[k % n_from]
                      for k in range(rd.carrier.size))
        return Mor(rd, rc, FinFn(rd.carrier, rc.carrier, table))

    def unit_at(a: ActionObject):
        orb = sigma(a)
        rla = right_obj(left_obj(a))
        table = tuple(a.anchor.table[p] * orb.quotient.size + orb.q.table[p]
                      for p in range(a.carrier.size))
        return Mor(a, rla, FinFn(a.carrier, rla.carrier, table))

    def counit_at(v: FinFn):
        lrv = left_obj(right_obj(v))
        orb = sigma(right_obj(v))
        table = tuple(r % v.dom.size for r in orb.reps)
        return Mor(lrv, v, FinFn(lrv.dom, v.dom, table))

    # R a must be trivial (k = (o, u) anchored by o, arrows keep u), so
    # that the orbit of (k, alpha) in D = R a x w and its legs depend on
    # (u, orbit of alpha) only; D meets each orbit first at its least point
    def ra_side(ra: Mor, lra: Mor):
        n = ra.dom.carrier.size // alg.objects.size
        moved = next(itertools.chain(
            (("anchor", k) for k, o in enumerate(ra.dom.anchor.table) if o != k // n),
            ((g, k) for g, row in enumerate(ra.dom.act) for k, v in enumerate(row)
             if v is not None and v % n != k % n)), None)
        if moved is not None:
            raise NotTrivial("R a is not a trivial action", moved)
        triv = sigma(ra.dom).q.table
        return [(y, k % n, triv[k]) for k, y in enumerate(ra.fn.table)]

    def w_side(w: Mor, lw: Mor):
        orbit, side = sigma(w.dom).q.table, {}
        for alpha, y in enumerate(w.fn.table):
            side.setdefault(y, {})[orbit[alpha]] = None
        return side

    def join(sa, sw):
        return list({(u, o): (t, o) for y, u, t in sa for o in sw.get(y, ())}.values())

    return AdjunctionPresentation("sigma(|alg|=%d)" % alg.order, dom, cod,
                                  left_obj, left_mor, right_obj, right_mor,
                                  unit_at, counit_at, legs_at=(ra_side, w_side, join))


def pullback_presentation(f: FinFn) -> AdjunctionPresentation:
    """Base change along a map of finite sets: post-composition with f,
    left adjoint to pullback along f.  A slice over the wrong base raises
    BaseMismatch."""
    dom = SliceCategory(f.dom)
    cod = SliceCategory(f.cod)

    def check_base(s: FinFn, base: FinSet):
        if s.cod != base:
            raise BaseMismatch("slice lives over the wrong base", (s.cod, base))

    @cache
    def star(s: FinFn):
        check_base(s, f.cod)
        pb = pullback(f, s)
        return pb.p1, pb

    def left_obj(s):
        check_base(s, f.dom)
        return s.then(f)

    def left_mor(m: Mor):
        return Mor(left_obj(m.dom), left_obj(m.cod), m.fn)

    def right_obj(s):
        return star(s)[0]

    def right_mor(m: Mor):
        so, pbo = star(m.dom)
        sc, pbc = star(m.cod)
        table = tuple(pbc.index(x, m.fn.table[v]) for (x, v) in pbo.pairs)
        return Mor(so, sc, FinFn(so.dom, sc.dom, table))

    def unit_at(s):
        ro, pb = star(left_obj(s))
        table = tuple(pb.index(s.table[z], z) for z in range(s.dom.size))
        return Mor(s, ro, FinFn(s.dom, ro.dom, table))

    def counit_at(s):
        ro, pb = star(s)
        return Mor(left_obj(ro), s, pb.p2)

    return AdjunctionPresentation("basechange(%s)" % (f.table,), dom, cod,
                                  left_obj, left_mor, right_obj, right_mor,
                                  unit_at, counit_at)


def corrupt_counit(pres: AdjunctionPresentation, style: int) -> AdjunctionPresentation:
    """A deliberately broken copy of a presentation: the counit components
    are post-composed with a collapsing (non-injective) map whenever the
    target carrier has at least two points, so reciprocity genuinely fails.
    Used as a negative control.  Every other component, and its cache, is
    the source's own."""

    def collapse(n: int) -> tuple[int, ...]:
        if n < 2:
            return tuple(range(n))
        hit = 1 + (style % (n - 1))
        return tuple(0 if i == hit else i for i in range(n))

    def counit_at(a):
        m = pres.counit_at(a)
        fold = collapse(m.fn.cod.size)
        return Mor(m.dom, m.cod,
                   FinFn(m.fn.dom, m.fn.cod, tuple(fold[v] for v in m.fn.table)))

    bad = copy.copy(pres)
    bad.name = "%s!corrupt%d" % (pres.name, style)
    bad.counit_at = cache(counit_at)
    return bad


# Frobenius checks -----------------------------------------------------------

def frobenius_canonical_map(pres: AdjunctionPresentation, a, wobj) -> Mor:
    """The comparison map L(R a x_{R b} w) -> a x_b L'w of a presentation
    sliced over b (a plain one: over the terminal object, _terminal_view),
    the join of the pair's two records (_records), each of which raises
    its failed guard's typed error: z goes to (counit_A(L p1 z), L p2 z)
    in the pullback of a and L'w.  The Mor's ends are carriers."""
    records = pres.records or _terminal_view(pres).records
    (ra_side, counit, a_table), (w_side, counts, rank) = records[0](a), records[1](wobj)
    start = list(itertools.accumulate([counts[y] for y in a_table], initial=0))
    table = tuple([start[counit[u]] + rank[v] for u, v in records[2](ra_side, w_side)])
    fn = FinFn(FinSet(len(table)), FinSet(start[-1]), table)
    return Mor(fn.dom, fn.cod, fn)


def _records(src: AdjunctionPresentation, b, sliced_a, sliced_w):
    """The cached records of src sliced over b, one per codomain object a
    (R a's side, the counit table at A = a.dom, a's table) and one per
    domain object w (its side, the fibre counts and ranks of L'w = counit_b
    . L w), and the join of two sides; sliced_a and sliced_w give an
    object's sliced form.  A record raises the typed error of its first
    failed guard: for a, the counit at b and at A are morphisms and the
    counit square along a commutes (NotNatural); for w, L(w) is a
    morphism.  So the legs are morphisms and a cone: a . counit_A . L p1 =
    counit_b . L(R a . p1) = L'w . L p2.  No record refers to a
    presentation holding it."""
    ra_side, w_side, join = src.legs_at

    def ra_record(key):
        a = sliced_a(key)
        src.cod.mor(*src.counit_at(b))
        counit = src.cod.mor(*src.counit_at(a.dom))
        lhs, rhs = _counit_square(src, a)
        if lhs.fn != rhs.fn:
            raise NotNatural("the counit square along a does not commute",
                             _difference(lhs.fn, rhs.fn))
        ra = src.right_mor(a)
        return ra_side(ra, src.left_mor(ra)), counit.fn.table, a.fn.table

    def w_record(key):
        w = sliced_w(key)
        lw = src.cod.mor(*src.left_mor(w))
        lpw = src.cod.compose(src.counit_at(b), lw).fn
        counts, rank = [0] * lpw.cod.size, []
        for y in lpw.table:
            rank.append(counts[y])
            counts[y] += 1
        return w_side(w, lw), counts, rank

    return cache(ra_record), cache(w_record), join


def _terminal_view(pres: AdjunctionPresentation) -> AdjunctionPresentation:
    """A copy of a plain presentation with the records of its slice over
    the terminal object 1, where a is a -> 1 and w the unique w -> R1."""
    term = pres.cod.terminal()

    def over_r1(w):  # through the isomorphism R1 -> 1
        r1 = pres.right_obj(term)
        return Mor(w, r1, pres.dom.bang(w).fn.then(pres.dom.bang(r1).fn.inverse()))

    view = copy.copy(pres)
    view.records = _records(pres, term, lambda a: Mor(a, term, pres.cod.bang(a).fn), over_r1)
    return view


def _obj_desc(o) -> str:
    if isinstance(o, FinFn):
        return "slice(total=%d,proj=%s)" % (o.dom.size, list(o.table))
    if isinstance(o, ActionObject):
        return "action(carrier=%d)" % o.carrier.size
    if isinstance(o, Mor):
        return "%s/%s" % (_obj_desc(o.dom), list(o.fn.table))
    return repr(o)


# failures a law report keeps as witnesses
_WITNESSES = 3


def _law_report(check: str, pres: AdjunctionPresentation, failures: list,
                checked, **counts) -> dict:
    """The report of a law checked on a finite family: the family's
    counts, the first failures found and the verdict.  A check that
    checked nothing fails."""
    return {"check": check, "presentation": pres.name, **counts,
            "passed": bool(checked) and not failures, "witnesses": failures}


# the typed errors of the guards of a comparison map's records
_PAIR_ERRORS = (FinSetError, NotEquivariant, AnchorMismatch, NotNatural, NotTrivial)


def check_frobenius(pres: AdjunctionPresentation, cod_objs, dom_objs,
                    max_pairs: int = 20000, max_witnesses: int = _WITNESSES) -> dict:
    """Assert bijectivity of the canonical map on every family pair, and
    a family with no pair fails: it checked nothing.  A failure entry
    names its pair and carries one of two verdicts: a comparison map that
    is not a bijection has the witness of NotBijective (the first two
    points with one image, or ("missed", y)); one that cannot even be
    assembled (a corrupted presentation) has the name and witness of the
    typed error of its records' failed guard.  Any other error escapes."""
    cod_objs = list(cod_objs)
    dom_objs = list(dom_objs)
    pairs = len(cod_objs) * len(dom_objs)
    if pairs > max_pairs:
        raise FamilyTooLarge("frobenius family too large", pairs)
    pres = pres if pres.records else _terminal_view(pres)
    failures = []
    for a in cod_objs:
        for wobj in dom_objs:
            try:
                m = frobenius_canonical_map(pres, a, wobj)
                if pres.cod.is_iso(m):
                    continue
                verdict = {"witness": _not_bijective(m.fn)}
            except _PAIR_ERRORS as exc:
                verdict = {"error": type(exc).__name__, "witness": exc.witness}
            if len(failures) < max_witnesses:
                failures.append({"cod_obj": _obj_desc(a), "dom_obj": _obj_desc(wobj),
                                 **verdict})
    return _law_report("frobenius", pres, failures, pairs,
                       family={"cod_objects": len(cod_objs), "dom_objects": len(dom_objs)},
                       pairs=pairs)


def _not_bijective(fn: FinFn):
    """The NotBijective witness of a map, None for a bijection."""
    try:
        fn.inverse()
    except NotBijective as exc:
        return exc.witness


def slice_adjunction(pres: AdjunctionPresentation, b) -> AdjunctionPresentation:
    """The sliced form of a presentation over an object of its codomain."""
    rb = pres.right_obj(b)
    dom2 = SliceOverCategory(pres.dom, rb)
    cod2 = SliceOverCategory(pres.cod, b)

    def left_obj(o: Mor):
        return pres.cod.compose(pres.counit_at(b), pres.left_mor(o))

    def left_mor(m: Mor):
        inner = pres.left_mor(Mor(m.dom.dom, m.cod.dom, m.fn))
        return Mor(left_obj(m.dom), left_obj(m.cod), inner.fn)

    def right_mor(m: Mor):
        inner = pres.right_mor(Mor(m.dom.dom, m.cod.dom, m.fn))
        return Mor(pres.right_mor(m.dom), pres.right_mor(m.cod), inner.fn)

    def unit_at(o: Mor):
        u = pres.unit_at(o.dom)
        return Mor(o, pres.right_mor(left_obj(o)), u.fn)

    def counit_at(o: Mor):
        e = pres.counit_at(o.dom)
        return Mor(left_obj(pres.right_mor(o)), o, e.fn)

    sliced = AdjunctionPresentation("%s@%s" % (pres.name, _obj_desc(b)),
                                    dom2, cod2, left_obj, left_mor, pres.right_mor,
                                    right_mor, unit_at, counit_at)
    sliced.records = _records(pres, b, lambda a: a, lambda w: w)
    return sliced


def check_stably_frobenius(pres: AdjunctionPresentation, slice_objs,
                           dom_objs, cod_objs, hom_cap: int = 4000,
                           max_pairs: int = 20000) -> dict:
    """Run the reciprocity check on every sliced form of the presentation
    over the supplied objects; families in the sliced categories are all
    structure morphisms from the supplied base families.  No slicing
    object means nothing was checked, which fails."""
    results = []
    dom_objs = list(dom_objs)
    cod_objs = list(cod_objs)
    for b in slice_objs:
        sliced = slice_adjunction(pres, b)
        dom_fam = list(sliced.dom.objects_over(dom_objs, hom_cap))
        cod_fam = list(sliced.cod.objects_over(cod_objs, hom_cap))
        rep = check_frobenius(sliced, cod_fam, dom_fam, max_pairs=max_pairs)
        rep["slice_at"] = _obj_desc(b)
        results.append(rep)
    return {"check": "stably_frobenius", "presentation": pres.name,
            "slices": len(results),
            "passed": bool(results) and all(r["passed"] for r in results),
            "results": results}


def _difference(f: FinFn, g: FinFn):
    """Where two unequal maps differ: the first point and its two images,
    else their two domains or their two codomains."""
    if f.dom != g.dom:
        return f.dom, g.dom
    return next(((z, f.table[z], g.table[z]) for z in range(f.dom.size)
                 if f.table[z] != g.table[z]), (f.cod, g.cod))


def check_triangles(pres: AdjunctionPresentation, dom_objs, cod_objs) -> dict:
    """Both triangle identities at every family object; no object means
    nothing was checked, which fails.  A failure names the object and the
    first point z where the composite moves, as (z, composite(z), z)."""
    dom_objs = list(dom_objs)
    cod_objs = list(cod_objs)
    failures = []

    def record(triangle, at, composite, ident):
        if composite.fn != ident.fn and len(failures) < _WITNESSES:
            failures.append({"triangle": triangle, "at": _obj_desc(at),
                             "witness": _difference(composite.fn, ident.fn)})

    for o in dom_objs:
        lo = pres.left_obj(o)
        record("left", o, pres.cod.compose(pres.counit_at(lo), pres.left_mor(pres.unit_at(o))),
               pres.cod.identity(lo))
    for a in cod_objs:
        ra = pres.right_obj(a)
        record("right", a, pres.dom.compose(pres.right_mor(pres.counit_at(a)), pres.unit_at(ra)),
               pres.dom.identity(ra))
    objects = len(dom_objs) + len(cod_objs)
    return _law_report("triangles", pres, failures, objects, objects=objects)


def _counit_square(pres: AdjunctionPresentation, n: Mor) -> tuple[Mor, Mor]:
    """The two sides of the counit's naturality square along n:
    n . counit_(n.dom) and counit_(n.cod) . L R n."""
    return (pres.cod.compose(n, pres.counit_at(n.dom)),
            pres.cod.compose(pres.counit_at(n.cod), pres.left_mor(pres.right_mor(n))))


def check_naturality(pres: AdjunctionPresentation, dom_mors, cod_mors) -> dict:
    """Unit and counit naturality squares on families of morphisms; no
    morphism means nothing was checked, which fails.  A failure names the
    morphism's domain and codomain and the first point z where the two
    sides differ, as (z, lhs(z), rhs(z))."""
    dom_mors = list(dom_mors)
    cod_mors = list(cod_mors)
    failures = []

    def record(square, m, lhs, rhs):
        if lhs.fn != rhs.fn and len(failures) < _WITNESSES:
            failures.append({"square": square, "dom": _obj_desc(m.dom),
                             "cod": _obj_desc(m.cod),
                             "witness": _difference(lhs.fn, rhs.fn)})

    for m in dom_mors:
        record("unit", m, pres.dom.compose(pres.unit_at(m.cod), m),
               pres.dom.compose(pres.right_mor(pres.left_mor(m)), pres.unit_at(m.dom)))
    for n in cod_mors:
        record("counit", n, *_counit_square(pres, n))
    morphisms = len(dom_mors) + len(cod_mors)
    return _law_report("naturality", pres, failures, morphisms, morphisms=morphisms)


def check_over_base(pres: AdjunctionPresentation, dom_objs, dom_mors=None) -> dict:
    """Verify the over-base comparison: the orbit quotient of each left
    value maps bijectively and naturally onto the underlying object.  No
    object and no morphism means nothing was checked, which fails.  A
    failure's witness is the comparison's NotBijective witness (its two
    ends, when those are wrong) or where the two sides of the naturality
    square differ."""
    if pres.over_iso_at is None:
        raise NotOverBase("presentation carries no over-base comparison")
    failures = []
    dom_objs = list(dom_objs)
    for o in dom_objs:
        comp = pres.over_iso_at(o)
        ok = (comp.dom == sigma(pres.left_obj(o)).quotient
              and comp.cod == pres.dom.carrier(o) and comp.is_bijection())
        if not ok and len(failures) < _WITNESSES:
            failures.append({"at": _obj_desc(o), "reason": "not a bijection",
                             "witness": _not_bijective(comp) or (comp.dom, comp.cod)})
    dom_mors = list(dom_mors or [])
    for m in dom_mors:
        induced = sigma_mor(pres.left_obj(m.dom), pres.left_obj(m.cod), pres.left_mor(m).fn)
        lhs = induced.then(pres.over_iso_at(m.cod))
        rhs = pres.over_iso_at(m.dom).then(m.fn)
        if lhs != rhs and len(failures) < _WITNESSES:
            failures.append({"square": "over", "at": _obj_desc(m.dom),
                             "witness": _difference(lhs, rhs)})
    return _law_report("over_base", pres, failures, dom_objs or dom_mors,
                       objects=len(dom_objs))


# The adjunction -> bundle direction ----------------------------------------

def adjunction_to_bundle(pres: AdjunctionPresentation, dom_objs, cod_objs,
                         dom_mors=None) -> Bundle:
    """Validate a presentation on the family, then extract its bundle:
    the left value at the terminal slice, projected by the orbit quotient
    through the over-base comparison."""
    _require(pres.cod, ActionCategory)
    over = check_over_base(pres, dom_objs, dom_mors)
    if not over["passed"]:
        raise NotOverBase("presentation is not over the base", over["witnesses"])
    frob = check_frobenius(pres, cod_objs, dom_objs)
    if not frob["passed"]:
        raise FrobeniusFail("reciprocity fails on the family", frob["witnesses"])
    term = pres.dom.terminal()
    p_act = pres.left_obj(term)
    proj = sigma(p_act).q.then(pres.over_iso_at(term))
    return Bundle(p_act, pres.dom.base, proj)


def corollary_slice_criterion(pres: AdjunctionPresentation, dom_objs, cod_objs,
                              stable_slices, hom_cap: int = 4000) -> dict:
    """Compare the single-slice reciprocity criterion (slicing only at the
    trivial action on the base) against the full stable check; the report
    holds both checks' reports."""
    _require(pres.cod, ActionCategory)
    alg = pres.cod.algebra
    x = pres.dom.base
    triv_x = trivial_action(alg, x)
    sliced = slice_adjunction(pres, triv_x)
    dom_fam = list(sliced.dom.objects_over(dom_objs, hom_cap))
    cod_fam = list(sliced.cod.objects_over(cod_objs, hom_cap))
    criterion = check_frobenius(sliced, cod_fam, dom_fam)
    full = check_stably_frobenius(pres, stable_slices, dom_objs, cod_objs, hom_cap)
    return {"check": "corollary_slice_criterion", "presentation": pres.name,
            "criterion_passed": criterion["passed"],
            "stable_passed": full["passed"],
            "agree": criterion["passed"] == full["passed"],
            "passed": criterion["passed"] == full["passed"],
            "criterion": criterion, "stable": full}


# Slice/groupoid translation -------------------------------------------------

@dataclass(frozen=True)
class SliceGroupoidTranslation:
    """The identity-on-data translation between fibrewise group actions
    over a base (actions of the bundle-of-groups groupoid) and group
    actions equipped with an invariant map to the base."""

    group: FinGroupoid
    base: FinSet
    groupoid: FinGroupoid

    def to_anchored(self, a: ActionObject, u: FinFn) -> ActionObject:
        if a.algebra != self.group:
            raise AlgebraMismatch("action of another algebra", (a.algebra, self.group))
        if u.dom != a.carrier:
            raise DomMismatch("map must leave the action's carrier", (u.dom, a.carrier))
        if u.cod != self.base:
            raise CodMismatch("map must land in the base", (u.cod, self.base))
        n = self.base.size
        act = []
        for arrow in range(self.groupoid.order):
            gi, xi = arrow // n, arrow % n
            act.append(tuple(a.act[gi][p] if u.table[p] == xi else None
                             for p in range(a.carrier.size)))
        return ActionObject(self.groupoid, a.carrier, tuple(act),
                            FinFn(a.carrier, self.groupoid.objects, u.table))

    def from_anchored(self, ga: ActionObject) -> tuple[ActionObject, FinFn]:
        if ga.algebra != self.groupoid:
            raise AlgebraMismatch("action of another algebra", (ga.algebra, self.groupoid))
        n = self.base.size
        act = []
        for gi in range(self.group.order):
            act.append(tuple(ga.act[gi * n + ga.anchor.table[p]][p]
                             for p in range(ga.carrier.size)))
        plain = ActionObject(self.group, ga.carrier, tuple(act))
        return plain, FinFn(ga.carrier, self.base, ga.anchor.table)


def slice_groupoid_equivalence(g: FinGroupoid, x: FinSet) -> SliceGroupoidTranslation:
    return SliceGroupoidTranslation(g, x, group_bundle_groupoid(g, x))


# Natural transformations of left adjoints ----------------------------------

def torsor_map_to_transform(pres1, pres2, t: FinFn):
    """The natural transformation of left adjoints induced by a map of
    torsors over the same base (components act on the carrier factor)."""

    def component(o: FinFn) -> Mor:
        lo1, pb1 = pres1.left_data(o)
        lo2, pb2 = pres2.left_data(o)
        table = tuple(pb2.index(t.table[p], wv) for (p, wv) in pb1.pairs)
        return Mor(lo1, lo2, FinFn(lo1.carrier, lo2.carrier, table))

    return component


def transform_to_torsor_map(pres1, pres2, component) -> FinFn:
    """Evaluate a natural transformation of left adjoints at the terminal
    slice and read off the underlying map of torsor carriers."""
    term = pres1.dom.terminal()
    lo1, pb1 = pres1.left_data(term)
    lo2, pb2 = pres2.left_data(term)
    m = component(term)
    p_carrier1 = pres1.bundle.action.carrier
    p_carrier2 = pres2.bundle.action.carrier
    table = [0] * p_carrier1.size
    for p in range(p_carrier1.size):
        k = pb1.index(p, pres1.bundle.proj.table[p])
        table[p] = pb2.pairs[m.fn.table[k]][0]
    return FinFn(p_carrier1, p_carrier2, tuple(table))
