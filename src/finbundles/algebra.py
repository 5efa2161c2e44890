"""Internal groupoids in finite sets, and their action categories.  A
group is a one-object groupoid: validate_group returns one.

Groupoid orientation: src and tgt are chosen so that an arrow g acts on
points anchored at src(g) and moves them to tgt(g); compose(a, b) means
"a after b" and needs src(a) = tgt(b).  The convention is used
consistently everywhere (actions, orbit quotients, division maps).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cache

from .finset import (
    FinFn,
    FinSet,
    IsoCertificate,
    NotInPullback,
    Pullback,
    TERMINAL,
    UnionFind,
    all_functions,
    product,
    pullback,
)


class AlgebraError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAssociative(AlgebraError):
    pass


class NoUnit(AlgebraError):
    pass


class NoInverse(AlgebraError):
    pass


class BadComposability(AlgebraError):
    pass


class BadIdentity(AlgebraError):
    pass


class BadInverse(AlgebraError):
    pass


class UnitLawFail(AlgebraError):
    pass


class AssocLawFail(AlgebraError):
    pass


class AnchorMismatch(AlgebraError):
    pass


class NotEquivariant(AlgebraError):
    pass


class AlgebraMismatch(AlgebraError):
    pass


def _cached_hash(self) -> int:
    """Hash over the dataclass fields, computed once per object: algebras
    and actions are memo keys that hold deep tables."""
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", h)
    return h


# Shape checks for tables read from JSON ------------------------------------

def _size(value, what: str) -> int:
    """A set size given as n, as {"size": n} or as a FinSet."""
    if isinstance(value, FinSet):
        return value.size
    if isinstance(value, dict):
        value = value.get("size")
    if type(value) is not int or value < 0:
        raise ValueError("%s is not a set size" % what)
    return value


def _indices(value, bound: int, what: str, nullable: bool = False) -> tuple:
    """A list of indices below bound (None allowed where nullable)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s is not a list" % what)
    for v in value:
        if not (v is None and nullable) and (type(v) is not int or not 0 <= v < bound):
            raise ValueError("%s entry %r is not an index below %d" % (what, v, bound))
    return tuple(value)


def _table(value, rows: int, cols: int, what: str, nullable: bool = False) -> tuple:
    """A rows x cols table of indices below cols."""
    if not isinstance(value, (list, tuple)) or len(value) != rows:
        raise ValueError("%s does not have %d rows" % (what, rows))
    table = tuple(_indices(row, cols, what, nullable) for row in value)
    if any(len(row) != cols for row in table):
        raise ValueError("%s rows do not have %d entries" % (what, cols))
    return table


@dataclass(frozen=True)
class FinGroupoid:
    """A finite groupoid.  A group is the case with one object."""

    objects: FinSet
    arrows: FinSet
    src: FinFn
    tgt: FinFn
    ident: FinFn
    comp: tuple[tuple[int | None, ...], ...]
    inv: FinFn

    __hash__ = _cached_hash

    @property
    def order(self) -> int:
        return self.arrows.size

    def inverse(self, a: int) -> int:
        return self.inv.table[a]


def validate_group(mul, unit: int, inv) -> FinGroupoid:
    """Check the group axioms on candidate tables; each failure names a
    violating element or triple.  The group is returned as its one-object
    groupoid: the carrier as arrows, constant src and tgt, ident the unit
    and comp the multiplication table."""
    n = len(mul) if isinstance(mul, (list, tuple)) else 0
    if n == 0:
        raise ValueError("mul is not a non-empty table (the empty carrier is not a group)")
    mul = _table(mul, n, n, "mul")
    inv = _indices(inv, n, "inv")
    if len(inv) != n:
        raise ValueError("inv does not have %d entries" % n)
    if type(unit) is not int or not 0 <= unit < n:
        raise ValueError("unit index out of range")
    for a in range(n):
        if mul[unit][a] != a or mul[a][unit] != a:
            raise NoUnit("unit law fails", a)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise NotAssociative("associativity fails", (a, b, c))
    for a in range(n):
        if mul[inv[a]][a] != unit or mul[a][inv[a]] != unit:
            raise NoInverse("inverse law fails", a)
    carrier = FinSet(n)
    point = FinFn.constant(carrier, TERMINAL, 0)
    return FinGroupoid(TERMINAL, carrier, point, point, FinFn(TERMINAL, carrier, (unit,)),
                       mul, FinFn(carrier, carrier, inv))


def validate_groupoid(objects, arrows, src, tgt, ident, comp, inv) -> FinGroupoid:
    """Check the groupoid axioms, including the composability domain of
    the partial composition table."""
    n_obj = _size(objects, "objects")
    n_arr = _size(arrows, "arrows")
    obj_set = FinSet(n_obj)
    arr_set = FinSet(n_arr)
    src_fn = FinFn(arr_set, obj_set, _indices(src, n_obj, "src"))
    tgt_fn = FinFn(arr_set, obj_set, _indices(tgt, n_obj, "tgt"))
    ident_fn = FinFn(obj_set, arr_set, _indices(ident, n_arr, "ident"))
    inv_fn = FinFn(arr_set, arr_set, _indices(inv, n_arr, "inv"))
    comp = _table(comp, n_arr, n_arr, "comp", nullable=True)
    for a in range(n_arr):
        for b in range(n_arr):
            defined = comp[a][b] is not None
            composable = src_fn.table[a] == tgt_fn.table[b]
            if defined != composable:
                raise BadComposability("composition defined on the wrong pairs", (a, b))
            if defined:
                c = comp[a][b]
                if src_fn.table[c] != src_fn.table[b] or tgt_fn.table[c] != tgt_fn.table[a]:
                    raise BadComposability("composite has wrong endpoints", (a, b))
    for o in range(n_obj):
        e = ident_fn.table[o]
        if src_fn.table[e] != o or tgt_fn.table[e] != o:
            raise BadIdentity("identity arrow has wrong endpoints", o)
    for a in range(n_arr):
        if comp[a][ident_fn.table[src_fn.table[a]]] != a:
            raise BadIdentity("right identity law fails", a)
        if comp[ident_fn.table[tgt_fn.table[a]]][a] != a:
            raise BadIdentity("left identity law fails", a)
    for a in range(n_arr):
        for b in range(n_arr):
            if comp[a][b] is None:
                continue
            for c in range(n_arr):
                if comp[b][c] is None:
                    continue
                if comp[comp[a][b]][c] != comp[a][comp[b][c]]:
                    raise NotAssociative("associativity fails", (a, b, c))
    for a in range(n_arr):
        ia = inv_fn.table[a]
        if src_fn.table[ia] != tgt_fn.table[a] or tgt_fn.table[ia] != src_fn.table[a]:
            raise BadInverse("inverse has wrong endpoints", a)
        if comp[ia][a] != ident_fn.table[src_fn.table[a]]:
            raise BadInverse("left inverse law fails", a)
        if comp[a][ia] != ident_fn.table[tgt_fn.table[a]]:
            raise BadInverse("right inverse law fails", a)
    return FinGroupoid(obj_set, arr_set, src_fn, tgt_fn, ident_fn, comp, inv_fn)


def discrete_groupoid(objects) -> FinGroupoid:
    n = objects if isinstance(objects, int) else objects.size
    comp = [[a if a == b else None for b in range(n)] for a in range(n)]
    return validate_groupoid(n, n, src=list(range(n)), tgt=list(range(n)),
                             ident=list(range(n)), comp=comp, inv=list(range(n)))


def pair_groupoid(objects) -> FinGroupoid:
    """The codiscrete groupoid: exactly one arrow between any two objects.

    Arrow (t, s) from s to t is indexed t * n + s.
    """
    n = objects if isinstance(objects, int) else objects.size
    n_arr = n * n
    src = [k % n for k in range(n_arr)]
    tgt = [k // n for k in range(n_arr)]
    comp = [[None] * n_arr for _ in range(n_arr)]
    for a in range(n_arr):
        for b in range(n_arr):
            if src[a] == tgt[b]:
                comp[a][b] = tgt[a] * n + src[b]
    return validate_groupoid(n, n_arr, src=src, tgt=tgt,
                             ident=[o * n + o for o in range(n)], comp=comp,
                             inv=[src[a] * n + tgt[a] for a in range(n_arr)])


def group_bundle_groupoid(g: FinGroupoid, x: FinSet) -> FinGroupoid:
    """A constant bundle of groups over x: arrows (gi, xi) with
    src = tgt = xi, composed fibrewise.  Arrow index is gi * x.size + xi.
    """
    n = x.size
    n_arr = g.order * n
    src = [k % n for k in range(n_arr)]
    comp = [[None] * n_arr for _ in range(n_arr)]
    for a in range(n_arr):
        for b in range(n_arr):
            if a % n == b % n:
                comp[a][b] = g.comp[a // n][b // n] * n + (a % n)
    return validate_groupoid(n, n_arr, src=src, tgt=list(src),
                             ident=[g.ident.table[0] * n + xi for xi in range(n)], comp=comp,
                             inv=[g.inverse(k // n) * n + (k % n) for k in range(n_arr)])


@dataclass(frozen=True)
class ActionObject:
    """A carrier acted on by a groupoid via an anchor map to its objects.

    act[g][p] is the result of g acting on p; it is None exactly when
    src(g) != anchor(p).  Over a one-object algebra (a group) the anchor
    may be omitted: it is then the constant map to the one object.
    """

    algebra: FinGroupoid
    carrier: FinSet
    act: tuple[tuple[int | None, ...], ...]
    anchor: FinFn | None = None

    __hash__ = _cached_hash

    def __post_init__(self):
        if self.anchor is None:
            if self.algebra.objects.size != 1:
                raise AnchorMismatch("groupoid actions need an anchor map")
            object.__setattr__(self, "anchor",
                               FinFn(self.carrier, TERMINAL, (0,) * self.carrier.size))

    def apply(self, g: int, p: int) -> int:
        v = self.act[g][p]
        if v is None:
            raise AnchorMismatch("arrow does not act on the point", (g, p))
        return v


def validate_action(alg, carrier: FinSet, act, anchor=None) -> ActionObject:
    """Check a candidate action table: defined exactly where the arrow's
    src is the point's anchor, moving anchors to tgt, with the unit and
    associativity laws."""
    n = carrier.size
    act = _table(act, alg.order, n, "action table", nullable=True)
    obj = ActionObject(alg, carrier, act, anchor)
    if obj.anchor.dom != carrier or obj.anchor.cod != alg.objects:
        raise ValueError("anchor must run carrier -> objects")
    anchor = obj.anchor.table
    src, tgt = alg.src.table, alg.tgt.table
    for g in range(alg.order):
        for p in range(n):
            v = act[g][p]
            if (v is not None) != (src[g] == anchor[p]):
                raise AnchorMismatch("action defined on the wrong pairs", (g, p))
            if v is not None and anchor[v] != tgt[g]:
                raise AnchorMismatch("acting must move the anchor to tgt", (g, p))
    for p in range(n):
        if act[alg.ident.table[anchor[p]]][p] != p:
            raise UnitLawFail("identity arrows must act as the identity", p)
    for g in range(alg.order):
        for h in range(alg.order):
            gh = alg.comp[g][h]
            if gh is None:
                continue
            for p in range(n):
                if act[h][p] is None:
                    continue
                if act[gh][p] != act[g][act[h][p]]:
                    raise AssocLawFail("action is not associative", (g, h, p))
    return obj


@dataclass(frozen=True)
class EquivariantMap:
    dom: ActionObject
    cod: ActionObject
    fn: FinFn

    def __post_init__(self):
        witness = equivariance_witness(self.dom, self.cod, self.fn)
        if witness is not None:
            raise NotEquivariant("map does not commute with the actions", witness)


def equivariance_witness(a: ActionObject, b: ActionObject, fn: FinFn):
    """None if fn is equivariant and anchor-preserving, else a witness."""
    if a.algebra != b.algebra:
        raise AlgebraMismatch("objects live over different algebras")
    if fn.dom != a.carrier or fn.cod != b.carrier:
        raise ValueError("map endpoints do not match the carriers")
    f, b_anchor = fn.table, b.anchor.table
    for p, o in enumerate(a.anchor.table):
        if b_anchor[f[p]] != o:
            return ("anchor", p)
    for g, (row, image) in enumerate(zip(a.act, b.act)):
        for p, v in enumerate(row):
            if v is not None and f[v] != image[f[p]]:
                return (g, p)
    return None


def trivial_action(alg, x: FinSet) -> ActionObject:
    """Every arrow acts as the identity: the carrier is objects x X with
    first-component anchor, and an arrow moves the object coordinate from
    src to tgt.  The point (o, x) has index o * |X| + x, so over one
    object it is x itself."""
    prod = product(alg.objects, x)
    n = x.size
    act = []
    for s, t in zip(alg.src.table, alg.tgt.table):
        row = [None] * prod.carrier.size
        row[s * n:(s + 1) * n] = range(t * n, (t + 1) * n)
        act.append(tuple(row))
    return ActionObject(alg, prod.carrier, tuple(act), prod.p1)


def arrows_action(gpd) -> ActionObject:
    """The arrow carrier anchored at tgt, acted on by post-composition."""
    src, tgt = gpd.src.table, gpd.tgt.table
    act = tuple(tuple(gpd.comp[g][a] if src[g] == tgt[a] else None
                      for a in range(gpd.order))
                for g in range(gpd.order))
    return ActionObject(gpd, gpd.arrows, act, gpd.tgt)


def terminal_action(alg) -> ActionObject:
    """The terminal object: the object set, anchored by the identity, on
    which an arrow moves src to tgt (a point for a group)."""
    act = []
    for g in range(alg.order):
        row = [alg.tgt.table[g] if alg.src.table[g] == o else None
               for o in range(alg.objects.size)]
        act.append(tuple(row))
    return ActionObject(alg, alg.objects, tuple(act), FinFn.identity(alg.objects))


@dataclass(frozen=True)
class Orbits:
    quotient: FinSet
    q: FinFn
    reps: tuple[int, ...]


@cache
def sigma(a: ActionObject) -> Orbits:
    """Orbit quotient with its canonical surjection; classes are numbered
    by least representative."""
    uf = UnionFind(a.carrier.size)
    for row in a.act:
        for p, v in enumerate(row):
            if v is not None:
                uf.union(p, v)
    quotient, table, reps = uf.quotient()
    return Orbits(quotient, FinFn(a.carrier, quotient, table), reps)


def sigma_mor(dom: ActionObject, cod: ActionObject, fn: FinFn) -> FinFn:
    """The induced map on orbit sets of an equivariant fn."""
    od, oc = sigma(dom), sigma(cod)
    return FinFn(od.quotient, oc.quotient,
                 tuple(oc.q.table[fn.table[r]] for r in od.reps))


def pullback_action(pb: Pullback, a: ActionObject, b: ActionObject | None = None
                    ) -> ActionObject:
    """The action on a pullback of carriers, anchored through the first
    factor: diagonal when b acts on the second factor, on the first
    factor alone when b is None.  NotEquivariant when the pairs are not
    closed under the action (legs that are not equivariant); the witness
    is (g, (i, j)) for the first arrow and pair sent off the pullback."""
    alg = a.algebra
    pairs = pb.pairs
    fixed = range(pb.g.dom.size)
    act = []
    for g in range(alg.order):
        ra = a.act[g]
        rb = fixed if b is None else b.act[g]
        row = []
        for (i, j) in pairs:
            v, w = ra[i], rb[j]
            if v is None or w is None:
                row.append(None)
                continue
            try:
                row.append(pb.index(v, w))
            except NotInPullback:
                raise NotEquivariant("pullback carrier is not closed under the action",
                                     (g, (i, j))) from None
        act.append(tuple(row))
    anchor = tuple(a.anchor.table[i] for (i, _) in pairs)
    return ActionObject(alg, pb.carrier, tuple(act), FinFn(pb.carrier, alg.objects, anchor))


@cache
def action_product(a: ActionObject, b: ActionObject) -> tuple[ActionObject, Pullback]:
    """The categorical product: the pairs with equal anchors (the pullback
    over the object set) with the diagonal action, and that pullback."""
    if a.algebra != b.algebra:
        raise AlgebraMismatch("product needs a common algebra")
    pb = pullback(a.anchor, b.anchor)
    return pullback_action(pb, a, b), pb


@dataclass(frozen=True)
class UntwistIso:
    """The untwisting of a product with the arrows action: forward sends
    (a, g) with the trivial action on the left factor to (g.a, g)."""

    trivial_side: ActionObject
    twisted_side: ActionObject
    cert: IsoCertificate
    forward: EquivariantMap
    backward: EquivariantMap


def untwist_iso(a: ActionObject) -> UntwistIso:
    """Stated for one-object algebras (groups), where the trivial action
    on the carrier has the carrier itself as its points."""
    g = a.algebra
    if g.objects.size != 1:
        raise ValueError("untwisting is stated for one-object algebras")
    triv = trivial_action(g, a.carrier)
    left, lpb = action_product(triv, arrows_action(g))
    right, rpb = action_product(a, arrows_action(g))
    fwd = FinFn(left.carrier, right.carrier,
                tuple(rpb.index(a.act[h][p], h) for (p, h) in lpb.pairs))
    bwd = FinFn(right.carrier, left.carrier,
                tuple(lpb.index(a.act[g.inverse(h)][p], h) for (p, h) in rpb.pairs))
    return UntwistIso(left, right, IsoCertificate(fwd, bwd),
                      EquivariantMap(left, right, fwd),
                      EquivariantMap(right, left, bwd))


# Every action, built orbit by orbit ----------------------------------------

def _check_laws_out_of(alg, o: int, out: list[int]) -> None:
    """The laws that the coset spaces of out, the arrows out of o, need to
    be actions: both unit laws on out, associativity on every composite
    that ends in an arrow of out, and left cancellation, so that each
    arrow permutes the cosets it acts on.  A validated algebra passes; an
    unvalidated table raises NoUnit, NotAssociative or NoInverse with the
    arrow or the triple where its law fails."""
    src, tgt, comp = alg.src.table, alg.tgt.table, alg.comp
    unit = alg.ident.table[o]
    for k in out:
        if comp[alg.ident.table[tgt[k]]][k] != k or comp[k][unit] != k:
            raise NoUnit("unit law fails", k)
    for g, h, k in itertools.product(range(alg.order), range(alg.order), out):
        gh = comp[g][h]
        if gh is not None and tgt[k] == src[h] and comp[gh][k] != comp[g][comp[h][k]]:
            raise NotAssociative("associativity fails", (g, h, k))
    for g in range(alg.order):
        images = [comp[g][k] for k in out if tgt[k] == src[g]]
        if len(set(images)) != len(images):
            raise NoInverse("left cancellation fails", g)


def _sorted_actions(alg, carrier: FinSet, found) -> list[ActionObject]:
    """The actions given as (anchor table, rows) pairs whose rows read the
    carrier size for "undefined", sorted by those pairs."""
    n = carrier.size
    return [ActionObject(alg, carrier, tuple(
        row if n not in row else tuple(None if v == n else v for v in row) for row in rows),
        FinFn(carrier, alg.objects, anchors)) for anchors, rows in sorted(found)]


def _transitive_actions(alg, d: int, free: bool = False) -> list[ActionObject]:
    """Every transitive action on d points, or with free set every free
    one (a torsor over a point), sorted by anchor table, then by action
    rows with "undefined" read as d.

    Each is a coset space (tom Dieck, Transformation Groups, ch. I): for
    an object o and a subgroup H of its loops, the cosets hH of the arrows
    h out of o, on which g.(hH) = (gh)H, anchored at tgt(h), labelled by a
    bijection onto the points that sends H to 0.  Each action arises
    once, since the anchor and the stabiliser of the point 0 give back o
    and H; the free ones are those with H = {id_o}.  A subgroup is a set
    of loops that holds id_o and is closed under composition."""
    src, tgt, comp = alg.src.table, alg.tgt.table, alg.comp
    points = FinSet(d)
    found = []
    for o in range(alg.objects.size):
        out = [h for h in range(alg.order) if src[h] == o]
        size = 1 if free else len(out) // d
        if not size or size * d != len(out):
            continue
        _check_laws_out_of(alg, o, out)
        unit = alg.ident.table[o]
        loops = [a for a in out if tgt[a] == o and a != unit]
        for rest in itertools.combinations(loops, size - 1):
            sub = (unit,) + rest
            if any(comp[a][b] not in sub for a in sub for b in sub):
                continue
            coset, reps = {}, []
            for h in [unit] + out:
                if h not in coset:
                    coset.update((comp[h][k], len(reps)) for k in sub)
                    reps.append(h)
            cosets = ActionObject(alg, points, tuple(
                tuple(coset[comp[g][h]] if src[g] == tgt[h] else None for h in reps)
                for g in range(alg.order)), FinFn(points, alg.objects, tuple(tgt[h] for h in reps)))
            for image in itertools.permutations(range(1, d)):
                act, anchors = [[d] * d for _ in range(alg.order)], [0] * d
                _embed_fiber_action(cosets, (0,) + image, act, anchors)
                found.append((tuple(anchors), tuple(map(tuple, act))))
    return _sorted_actions(alg, points, found)


def _embed_fiber_action(a: ActionObject, points: tuple[int, ...], act, anchors):
    """Write the action a into the rows act and the anchors of a larger
    carrier, sending its point i to points[i]."""
    for g in range(a.algebra.order):
        row = a.act[g]
        for local, p in enumerate(points):
            if row[local] is not None:
                act[g][p] = points[row[local]]
    for local, p in enumerate(points):
        anchors[p] = a.anchor.table[local]


def _partitions(points: tuple[int, ...]):
    """Every partition of points into blocks, each block in increasing order."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for size in range(len(rest) + 1):
        for others in itertools.combinations(rest, size):
            left = tuple(p for p in rest if p not in others)
            for blocks in _partitions(left):
                yield ((first,) + others,) + blocks


def all_actions(alg, carrier: FinSet):
    """Every action of the algebra on the carrier, sorted by anchor table,
    then by action rows with "undefined" read as the carrier size.  An
    action is the disjoint union of its orbits: each is assembled from a
    partition of the carrier and a transitive action on each block."""
    n = carrier.size
    transitive: dict[int, list[ActionObject]] = {}
    found = []
    for blocks in _partitions(tuple(range(n))):
        for block in blocks:
            if len(block) not in transitive:
                transitive[len(block)] = _transitive_actions(alg, len(block))
        for combo in itertools.product(*(transitive[len(b)] for b in blocks)):
            act, anchors = [[n] * n for _ in range(alg.order)], [0] * n
            for block, a in zip(blocks, combo):
                _embed_fiber_action(a, block, act, anchors)
            found.append((tuple(anchors), tuple(map(tuple, act))))
    yield from _sorted_actions(alg, carrier, found)


def equivariant_maps(a: ActionObject, b: ActionObject):
    """Brute-force enumeration of the hom set of the action category."""
    for fn in all_functions(a.carrier, b.carrier):
        if equivariance_witness(a, b, fn) is None:
            yield fn


# JSON fixture forms --------------------------------------------------------

def group_to_json(g: FinGroupoid) -> dict:
    return {"order": g.order, "mul": [list(r) for r in g.comp],
            "unit": g.ident.table[0], "inv": list(g.inv.table)}


def group_from_json(data) -> FinGroupoid:
    return validate_group(data["mul"], data["unit"], data["inv"])


def groupoid_to_json(g: FinGroupoid) -> dict:
    return {"objects": g.objects.size, "arrows": g.arrows.size,
            "src": list(g.src.table), "tgt": list(g.tgt.table),
            "ident": list(g.ident.table),
            "comp": [list(r) for r in g.comp], "inv": list(g.inv.table)}


def groupoid_from_json(data) -> FinGroupoid:
    return validate_groupoid(data["objects"], data["arrows"], data["src"],
                             data["tgt"], data["ident"], data["comp"], data["inv"])


def action_to_json(a: ActionObject, algebra_ref) -> dict:
    """Actions of a one-object algebra (a group) leave out their constant
    anchor, which ActionObject rebuilds."""
    out = {"algebra": algebra_ref,
           "carrier": a.carrier.size,
           "act": [list(r) for r in a.act]}
    if a.algebra.objects.size != 1:
        out["anchor"] = list(a.anchor.table)
    return out


def action_from_json(data, alg) -> ActionObject:
    carrier = FinSet(_size(data["carrier"], "carrier"))
    anchor = data.get("anchor")
    if anchor is not None:
        anchor = FinFn(carrier, alg.objects, _indices(anchor, alg.objects.size, "anchor"))
    return validate_action(alg, carrier, data["act"], anchor)
