"""Principal bundles over a base: the torsor predicate, the division map
and its laws, enumeration by the Cayley construction, and descent-data
gluing.

A bundle projection in finite sets is an effective descent morphism
exactly when it is surjective (every surjection splits), so the predicate
checks surjectivity plus the freeness/transitivity condition: the
action-and-projection map onto the fibrewise pairs must be a bijection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finset import (
    FinFn,
    FinSet,
    IsoCertificate,
    Pullback,
    product,
    pullback,
)
from .algebra import (
    ActionObject,
    FinGroupoid,
    _embed_fiber_action,
    _indices,
    _size,
    _transitive_actions,
    equivariance_witness,
    validate_action,
)


class TorsorError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSurjective(TorsorError):
    pass


class NotFreeTransitive(TorsorError):
    pass


class CocycleFail(TorsorError):
    pass


class DivisionLawFail(TorsorError):
    pass


class ShapeMismatch(TorsorError, ValueError):
    """A descent datum checked along a map or slice it was not built on;
    the witness is what the datum holds, then what it should hold."""


@dataclass(frozen=True)
class Bundle:
    """An action object with an action-invariant projection to a base."""

    action: ActionObject
    base: FinSet
    proj: FinFn

    def __post_init__(self):
        if self.proj.dom != self.action.carrier or self.proj.cod != self.base:
            raise ValueError("proj must run carrier -> base")
        for g in range(self.action.algebra.order):
            row = self.action.act[g]
            for p in range(self.action.carrier.size):
                if row[p] is not None and self.proj.table[row[p]] != self.proj.table[p]:
                    raise ValueError("projection is not action-invariant", (g, p))


@dataclass(frozen=True)
class TorsorWitness:
    """Evidence that a bundle is principal: the inverse of the
    action-and-projection map, stored as a division table on the fibrewise
    pairs (shared by every witness with one projection), plus one fibre
    representative per base point."""

    bundle: Bundle
    fibrewise: Pullback
    division: tuple[int, ...]
    reps: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.fibrewise.pairs

    def psi(self, p: int, q: int) -> int:
        """The unique algebra element moving q to p within a fibre; a pair
        from two fibres raises NotInPullback naming it."""
        return self.division[self.fibrewise.index(p, q)]


def _acting_pairs(a: ActionObject):
    for g in range(a.algebra.order):
        row = a.act[g]
        for p in range(a.carrier.size):
            if row[p] is not None:
                yield g, p


def is_principal_bundle(b: Bundle) -> TorsorWitness:
    """Decide the torsor predicate, extracting the division table from the
    inverse of (act, pr2) when it exists."""
    return _divide(b, pullback(b.proj, b.proj))


def _divide(b: Bundle, pb: Pullback) -> TorsorWitness:
    """The torsor predicate on the fibrewise pairs pb, the pullback of
    b.proj with itself."""
    fibers: dict[int, list[int]] = {x: [] for x in range(b.base.size)}
    for p in range(b.action.carrier.size):
        fibers[b.proj.table[p]].append(p)
    for x in range(b.base.size):
        if not fibers[x]:
            raise NotSurjective("projection misses a base point", x)
    reps = tuple(fibers[x][0] for x in range(b.base.size))
    # per fibrewise pair (g.p, p): how many g solve it, and the last one
    counts = [0] * len(pb.pairs)
    division = [0] * len(pb.pairs)
    at = pb.indices
    for g, row in enumerate(b.action.act):
        for p, v in enumerate(row):
            if v is not None:
                k = at[(v, p)]
                counts[k] += 1
                division[k] = g
    for k, count in enumerate(counts):
        if count != 1:
            raise NotFreeTransitive("fibrewise pair has %d solutions" % count,
                                    (pb.pairs[k], count))
    return TorsorWitness(b, pb, tuple(division), reps)


@dataclass(frozen=True)
class DivisionReport:
    witness: TorsorWitness
    checked_pairs: int
    checked_translations: int


def division_map(w: TorsorWitness) -> DivisionReport:
    """Verify the division-map laws on every defined pair.  A failure
    means the witness itself is inconsistent: DivisionLawFail names the
    pair (p, q), or the arrow and pair (g, p, q), where a law fails."""
    a = w.bundle.action
    alg = a.algebra
    n_checked = 0
    for (p, q) in w.pairs:
        d = w.psi(p, q)
        if a.act[d][q] != p:
            raise DivisionLawFail("division must solve g.q = p", (p, q))
        if p == q and d != alg.ident.table[a.anchor.table[p]]:
            raise DivisionLawFail("division on the diagonal must be the identity", (p, q))
        n_checked += 1
    n_trans = 0
    for (p, q) in w.pairs:
        d = w.psi(p, q)
        for g, pp in _acting_pairs(a):
            if pp == p:
                if w.psi(a.act[g][p], q) != alg.comp[g][d]:
                    raise DivisionLawFail("left translation law fails", (g, p, q))
                n_trans += 1
            if pp == q:
                if w.psi(p, a.act[g][q]) != alg.comp[d][alg.inverse(g)]:
                    raise DivisionLawFail("right translation law fails", (g, p, q))
                n_trans += 1
    return DivisionReport(w, n_checked, n_trans)


def trivial_torsor(g: FinGroupoid, x: FinSet) -> TorsorWitness:
    """The canonical torsor over x: carrier x * G with first projection
    and left multiplication on the group coordinate."""
    prod = product(x, g.arrows)
    act = [tuple(prod.index(x0, g.comp[h][a]) for x0, a in prod.pairs) for h in range(g.order)]
    action = validate_action(g, prod.carrier, act)
    return is_principal_bundle(Bundle(action, x, prod.p1))


def equivariant_iso_over_base(w1: TorsorWitness, w2: TorsorWitness) -> FinFn | None:
    """Search for an equivariant bijection commuting with the projections
    (and anchors).  Such a map is determined by the image of one fibre
    representative per base point, so only those images are enumerated.
    None when the bundles are not isomorphic."""
    b1, b2 = w1.bundle, w2.bundle
    if b1.base != b2.base or b1.action.algebra != b2.action.algebra:
        return None
    n = b1.action.carrier.size
    if n != b2.action.carrier.size:
        return None
    fibers2: dict[int, list[int]] = {x: [] for x in range(b1.base.size)}
    for q in range(n):
        fibers2[b2.proj.table[q]].append(q)
    candidates = []
    for x in range(b1.base.size):
        anchor_needed = b1.action.anchor.table[w1.reps[x]]
        opts = [q for q in fibers2[x] if b2.action.anchor.table[q] == anchor_needed]
        if not opts:
            return None
        candidates.append(opts)
    for combo in itertools.product(*candidates):
        table = [0] * n
        for p in range(n):
            x = b1.proj.table[p]
            table[p] = b2.action.apply(w1.psi(p, w1.reps[x]), combo[x])
        fn = FinFn(b1.action.carrier, b2.action.carrier, tuple(table))
        if not fn.is_bijection():
            continue
        if any(b2.proj.table[fn.table[p]] != b1.proj.table[p] for p in range(n)):
            continue
        if equivariance_witness(b1.action, b2.action, fn) is None:
            return fn
    return None


@dataclass(frozen=True)
class TorsorEnumeration:
    witnesses: tuple[TorsorWitness, ...]
    structures: int
    iso_classes: tuple[tuple[int, ...], ...]

    @property
    def iso_count(self) -> int:
        return len(self.iso_classes)

    def class_reps(self) -> tuple[TorsorWitness, ...]:
        return tuple(self.witnesses[cls[0]] for cls in self.iso_classes)


class BoundsExceeded(TorsorError):
    pass


# enumerate_torsors refuses larger carriers unless told otherwise.
CARRIER_LIMIT = 8


def enumerate_torsors(alg, x: FinSet, carrier: FinSet,
                      max_carrier: int = CARRIER_LIMIT) -> TorsorEnumeration:
    """Enumerate every (projection, action) structure on the carrier that
    passes the torsor predicate, and group the results into isomorphism
    classes by exhaustive bijection search.

    Invariance forces the action to restrict to each projection fibre, so
    candidates are assembled fibrewise from the torsor structures on each
    fibre, built once per fibre size as free coset spaces (Cayley).  A fibre
    is pruned by cardinality before any table is built: dividing by one of
    its points matches it with the arrows out of that point's anchor, so
    it has as many points as some object has outgoing arrows.  The
    fibrewise pairs are built once per projection table and shared by the
    witnesses of every structure under it.  Over a point each structure's
    action is the fibre action itself, not a copy of it.
    """
    if carrier.size > max_carrier:
        raise BoundsExceeded("carrier too large to enumerate", carrier.size)
    fiber_sizes = {alg.src.table.count(o) for o in range(alg.objects.size)}
    structures: dict[int, list[ActionObject]] = {}
    witnesses = []
    for proj_table in itertools.product(range(x.size), repeat=carrier.size):
        fibers: dict[int, list[int]] = {b: [] for b in range(x.size)}
        for p, b in enumerate(proj_table):
            fibers[b].append(p)
        if any(len(f) not in fiber_sizes for f in fibers.values()):
            continue
        proj = FinFn(carrier, x, proj_table)
        pb = pullback(proj, proj)
        for f in fibers.values():
            if len(f) not in structures:
                structures[len(f)] = _transitive_actions(alg, len(f), free=True)
        choices = [[(tuple(f), a) for a in structures[len(f)]] for f in fibers.values()]
        for combo in itertools.product(*choices):
            if len(combo) == 1:
                # over a point the one fibre is the whole carrier in order,
                # so the structure is the fibre action itself
                action = combo[0][1]
            else:
                act = [[None] * carrier.size for _ in range(alg.order)]
                anchors = [0] * carrier.size
                for points, fiber_action in combo:
                    _embed_fiber_action(fiber_action, points, act, anchors)
                action = ActionObject(alg, carrier, tuple(tuple(r) for r in act),
                                      FinFn(carrier, alg.objects, tuple(anchors)))
            try:
                witnesses.append(_divide(Bundle(action, x, proj), pb))
            except TorsorError:
                continue
    classes: list[list[int]] = []
    for i, w in enumerate(witnesses):
        for cls in classes:
            if equivariant_iso_over_base(witnesses[cls[0]], w) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    return TorsorEnumeration(tuple(witnesses), len(witnesses),
                             tuple(tuple(c) for c in classes))


# Descent data ---------------------------------------------------------------

@dataclass(frozen=True)
class DescentDatum:
    """An object over the total space of a surjection (a map into it),
    with a gluing isomorphism between its two pullbacks to the fibrewise
    pairs, and the shape (those pullbacks) the gluing was built on."""

    over: FinFn
    glue: IsoCertificate
    shape: DescentShape


@dataclass(frozen=True)
class DescentShape:
    pp: Pullback
    pb1: Pullback
    pb2: Pullback


def descent_pullbacks(kp: Pullback, over: FinFn) -> DescentShape:
    """The two canonical pullbacks of the slice to the fibrewise pairs of
    a map f, given as its kernel pair kp (the pullback of f with itself),
    which the shape holds as pp; the glue certificate of a datum runs from
    the first to the second.  Every shape over one map can share kp.
    Fibrewise pairs of two different maps raise ShapeMismatch naming
    them."""
    if kp.f != kp.g:
        raise ShapeMismatch("fibrewise pairs must be the kernel pair of one map",
                            (kp.f, kp.g))
    pb1 = pullback(kp.p1, over)
    pb2 = pullback(kp.p2, over)
    return DescentShape(kp, pb1, pb2)


def _transport(f: FinFn, d: DescentDatum) -> list[dict[int, int]]:
    """Check the shape, unit and cocycle conditions, and read the glue as
    a transport table: entry w maps each point y over p1 to the point over
    p2 that it is glued to, for the w-th fibrewise pair (p1, p2)."""
    pp, pb1, pb2, fwd = d.shape.pp, d.shape.pb1, d.shape.pb2, d.glue.forward
    if d.over.cod != f.dom:
        raise ShapeMismatch("datum must live over the total space of f", (d.over.cod, f.dom))
    if pp.f != f or pb1.g != d.over:
        raise ShapeMismatch("datum's shape was built along another map or slice",
                            (pp.f, f) if pp.f != f else (pb1.g, d.over))
    for i, pb, leg in (1, pb1, pp.p1), (2, pb2, pp.p2):
        if pb.f is not leg or pb.g is not d.over:
            raise ShapeMismatch("shape's pb%d must pull the datum back along the fibrewise "
                                "pairs' leg p%d" % (i, i), ((pb.f, pb.g), (leg, d.over)))
    if fwd.dom != pb1.carrier or fwd.cod != pb2.carrier:
        raise ShapeMismatch("glue endpoints do not match the canonical pullbacks",
                            ((fwd.dom, fwd.cod), (pb1.carrier, pb2.carrier)))
    to: list[dict[int, int]] = [{} for _ in pp.pairs]
    for (w, y), k2 in zip(pb1.pairs, fwd.table):
        w2, y2 = pb2.pairs[k2]
        if w2 != w:
            raise CocycleFail("glue does not live over the fibrewise pairs", (w, y))
        p1, p2 = pp.pairs[w]
        if p1 == p2 and y2 != y:
            raise CocycleFail("glue must be the identity on the diagonal", (w, y))
        to[w][y] = y2
    # the triples of each fibre of f in the order (p1, p2, p3), then y over
    # p1: this order fixes which failure is reported first.  The leg checks
    # put each glued point over p2, so every lookup below finds its key.
    fibers, ys = [[] for _ in range(f.cod.size)], [[] for _ in range(f.dom.size)]
    for p, x in enumerate(f.table):
        fibers[x].append(p)
    for y, p in enumerate(d.over.table):
        ys[p].append(y)
    w_at = pp.indices
    for p1, ys1 in enumerate(ys):
        fiber = fibers[f.table[p1]]
        for p2 in fiber:
            to12 = to[w_at[(p1, p2)]]
            for p3 in fiber:
                to23, to13 = to[w_at[(p2, p3)]], to[w_at[(p1, p3)]]
                for y in ys1:
                    if to23[to12[y]] != to13[y]:
                        raise CocycleFail("cocycle condition fails", (p1, p2, p3, y))
    return to


def validate_descent_datum(f: FinFn, d: DescentDatum) -> DescentShape:
    """Check the shape, unit and cocycle conditions; returns the pullback
    shape for reuse."""
    _transport(f, d)
    return d.shape


def descent_datum(shape: DescentShape, transport) -> DescentDatum:
    """The datum over the slice shape.pb1.g whose glue sends a point y over
    p1 to transport(p1, p2, y) over p2, for every fibrewise pair (p1, p2)
    of the map shape.pp.f.  The backward map transports from p2 to p1.
    This is the one place that writes the certificate's indices into the
    pullbacks pb1 and pb2; an inconsistent transport raises ValueError
    from IsoCertificate."""
    pairs, pb1, pb2 = shape.pp.pairs, shape.pb1, shape.pb2
    fwd = tuple([pb2.indices[(w, transport(*pairs[w], y))] for (w, y) in pb1.pairs])
    bwd = tuple([pb1.indices[(w, transport(pairs[w][1], pairs[w][0], y))] for (w, y) in pb2.pairs])
    glue = IsoCertificate(FinFn(pb1.carrier, pb2.carrier, fwd),
                          FinFn(pb2.carrier, pb1.carrier, bwd))
    return DescentDatum(pb1.g, glue, shape)


def canonical_descent_datum(kp: Pullback, s: FinFn, shapes: dict | None = None) -> DescentDatum:
    """The datum obtained by pulling a slice over the base back along the
    map f of the kernel pair kp: the glue transports (p1, z) to (p2, z).
    The shape depends only on that pullback's first leg: the shapes dict
    shares one per leg, and one built on another kernel pair raises
    ShapeMismatch."""
    pb = pullback(kp.f, s)
    shapes = {} if shapes is None else shapes
    shape = shapes.get(pb.p1)
    if shape is None:
        shape = shapes[pb.p1] = descent_pullbacks(kp, pb.p1)
    elif shape.pp is not kp:
        raise ShapeMismatch("shared shape was built on another kernel pair", (shape.pp, kp))
    return descent_datum(shape, lambda p1, p2, y: pb.indices[(p2, pb.pairs[y][1])])


@dataclass(frozen=True)
class GluedSlice:
    """The glued slice (a map into the base), its pullback along f, the
    certificate from the datum's total space onto that pullback, and the
    datum's shape."""

    result: FinFn
    pullback: Pullback
    cert: IsoCertificate
    shape: DescentShape


def glue_descent_data(f: FinFn, d: DescentDatum) -> GluedSlice:
    """Quotient the datum by its gluing relation, producing a slice over
    the base whose pullback along f is certified isomorphic to the datum."""
    if not f.is_surjection():
        missed = min(set(range(f.cod.size)) - set(f.table))
        raise NotSurjective("cannot glue along a non-surjection", missed)
    to = _transport(f, d)
    shape, p = d.shape, d.over
    # unit and cocycle make a point's class its transport to the least point
    # of its fibre of f; numbering in point order numbers by least member
    w_at, ft = shape.pp.indices, f.table
    roots = [to[w_at[(py, ft.index(ft[py]))]][y] for y, py in enumerate(p.table)]
    cls_at: dict[int, int] = {}
    cls_of = [cls_at.setdefault(root, len(cls_at)) for root in roots]
    reps = [roots.index(root) for root in cls_at]
    result = FinFn(FinSet(len(reps)), f.cod, tuple(f.table[p.table[rep]] for rep in reps))
    pb = pullback(f, result)
    fwd = FinFn(p.dom, pb.carrier,
                tuple([pb.indices[(py, c)] for py, c in zip(p.table, cls_of)]))
    bwd = FinFn(pb.carrier, p.dom, tuple(
        [to[w_at[(p.table[reps[c]], p0)]][reps[c]] for (p0, c) in pb.pairs]))
    cert = IsoCertificate(fwd, bwd)
    return GluedSlice(result, pb, cert, shape)


def intertwining_witness(d: DescentDatum, glued: GluedSlice):
    """None when the glued certificate carries the datum's gluing to the
    canonical gluing of the glued slice: a point y over p1 and its
    transport over p2 land in the same class.  Otherwise the first
    (p1, p2, y) where they do not.  The datum must live over the same
    slice as the one that was glued."""
    shape = glued.shape
    to_pb = glued.cert.forward.table
    pb = glued.pullback
    for k, (w, y) in enumerate(shape.pb1.pairs):
        p1, p2 = shape.pp.pairs[w]
        y2 = shape.pb2.pairs[d.glue.forward.table[k]][1]
        if to_pb[y2] != pb.index(p2, pb.pairs[to_pb[y]][1]):
            return (p1, p2, y)
    return None


# JSON forms -----------------------------------------------------------------

def bundle_to_json(b: Bundle, algebra_ref) -> dict:
    from .algebra import action_to_json

    return {"action": action_to_json(b.action, algebra_ref),
            "base": b.base.size,
            "proj": list(b.proj.table)}


def bundle_from_json(data, alg) -> Bundle:
    from .algebra import action_from_json

    action = action_from_json(data["action"], alg)
    base = FinSet(_size(data["base"], "base"))
    proj = _indices(data["proj"], base.size, "proj")
    return Bundle(action, base, FinFn(action.carrier, base, proj))
