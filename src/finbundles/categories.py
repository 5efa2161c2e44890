"""Uniform wrappers for the categories the adjunction machinery runs over:
slices of finite sets, action categories, and slices of either.

Each category knows its objects, validates its morphisms, and can build
products, pullbacks and exhaustive hom sets.  A morphism is always a Mor
holding the map between underlying carriers; a morphism is invertible
exactly when that map is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .finset import FinFn, FinSet, SliceObject, all_functions, pullback
from .algebra import (
    ActionObject,
    action_product,
    all_actions,
    equivariance_witness,
    pullback_action,
    terminal_action,
)


class FamilyTooLarge(Exception):
    pass


@dataclass(frozen=True)
class Mor:
    dom: Any
    cod: Any
    fn: FinFn


@dataclass(frozen=True)
class CatProduct:
    obj: Any
    p1: Mor
    p2: Mor
    pair: Callable = None


@dataclass(frozen=True)
class CatPullback:
    obj: Any
    p1: Mor
    p2: Mor
    mediate: Callable = None


class SliceCategory:
    """The slice of finite sets over a fixed base; the base category of
    finite sets itself is the slice over a point."""

    def __init__(self, base: FinSet):
        self.base = base

    def __repr__(self):
        return "SliceCategory(%d)" % self.base.size

    def __eq__(self, other):
        return isinstance(other, SliceCategory) and self.base == other.base

    def carrier(self, o: SliceObject) -> FinSet:
        return o.total

    def mor(self, dom: SliceObject, cod: SliceObject, fn: FinFn) -> Mor:
        assert fn.dom == dom.total and fn.cod == cod.total
        assert fn.then(cod.proj) == dom.proj, "map does not commute with projections"
        return Mor(dom, cod, fn)

    def identity(self, o: SliceObject) -> Mor:
        return Mor(o, o, FinFn.identity(o.total))

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        assert m1.cod == m2.dom
        return Mor(m1.dom, m2.cod, m1.fn.then(m2.fn))

    def terminal(self) -> SliceObject:
        return SliceObject(self.base, self.base, FinFn.identity(self.base))

    def bang(self, o: SliceObject) -> Mor:
        return Mor(o, self.terminal(), o.proj)

    def is_iso(self, m: Mor) -> bool:
        return m.fn.is_bijection()

    def product(self, a: SliceObject, b: SliceObject) -> CatProduct:
        pb = pullback(a.proj, b.proj)
        obj = SliceObject(pb.carrier, self.base, pb.p1.then(a.proj))

        def pair(m1: Mor, m2: Mor) -> Mor:
            assert m1.dom == m2.dom
            return Mor(m1.dom, obj, pb.mediate(m1.fn, m2.fn))

        return CatProduct(obj, Mor(obj, a, pb.p1), Mor(obj, b, pb.p2), pair)

    def pullback(self, m1: Mor, m2: Mor) -> CatPullback:
        assert m1.cod == m2.cod
        pb = pullback(m1.fn, m2.fn)
        obj = SliceObject(pb.carrier, self.base, pb.p1.then(m1.dom.proj))

        def mediate(n1: Mor, n2: Mor) -> Mor:
            assert n1.dom == n2.dom
            return Mor(n1.dom, obj, pb.mediate(n1.fn, n2.fn))

        return CatPullback(obj, Mor(obj, m1.dom, pb.p1), Mor(obj, m2.dom, pb.p2), mediate)

    def homs(self, a: SliceObject, b: SliceObject):
        for fn in all_functions(a.total, b.total):
            if fn.then(b.proj) == a.proj:
                yield Mor(a, b, fn)

    def objects_upto(self, max_total: int):
        for n in range(max_total + 1):
            total = FinSet(n)
            for proj in all_functions(total, self.base):
                yield SliceObject(total, self.base, proj)


class ActionCategory:
    """The category of action objects of a fixed group or groupoid."""

    def __init__(self, algebra):
        self.algebra = algebra

    def __repr__(self):
        return "ActionCategory(%r)" % (self.algebra,)

    def __eq__(self, other):
        return isinstance(other, ActionCategory) and self.algebra == other.algebra

    def carrier(self, o: ActionObject) -> FinSet:
        return o.carrier

    def mor(self, dom: ActionObject, cod: ActionObject, fn: FinFn) -> Mor:
        witness = equivariance_witness(dom, cod, fn)
        assert witness is None, "map is not equivariant: %r" % (witness,)
        return Mor(dom, cod, fn)

    def identity(self, o: ActionObject) -> Mor:
        return Mor(o, o, FinFn.identity(o.carrier))

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        assert m1.cod == m2.dom
        return Mor(m1.dom, m2.cod, m1.fn.then(m2.fn))

    def terminal(self) -> ActionObject:
        return terminal_action(self.algebra)

    def bang(self, o: ActionObject) -> Mor:
        term = self.terminal()
        return Mor(o, term, FinFn(o.carrier, term.carrier, o.anchor.table))

    def is_iso(self, m: Mor) -> bool:
        return m.fn.is_bijection()

    def product(self, a: ActionObject, b: ActionObject) -> CatProduct:
        prod = action_product(a, b)

        def pair(m1: Mor, m2: Mor) -> Mor:
            assert m1.dom == m2.dom
            return Mor(m1.dom, prod.obj, prod.tuple_map(m1.fn, m2.fn))

        return CatProduct(prod.obj, Mor(prod.obj, a, prod.p1),
                          Mor(prod.obj, b, prod.p2), pair)

    def pullback(self, m1: Mor, m2: Mor) -> CatPullback:
        assert m1.cod == m2.cod
        a, b = m1.dom, m2.dom
        pb = pullback(m1.fn, m2.fn)
        obj = pullback_action(pb, a, b)

        def mediate(n1: Mor, n2: Mor) -> Mor:
            assert n1.dom == n2.dom
            return Mor(n1.dom, obj, pb.mediate(n1.fn, n2.fn))

        return CatPullback(obj, Mor(obj, a, pb.p1), Mor(obj, b, pb.p2), mediate)

    def homs(self, a: ActionObject, b: ActionObject):
        for fn in all_functions(a.carrier, b.carrier):
            if equivariance_witness(a, b, fn) is None:
                yield Mor(a, b, fn)

    def objects_upto(self, max_carrier: int):
        for n in range(max_carrier + 1):
            yield from all_actions(self.algebra, FinSet(n))


@dataclass(frozen=True)
class SlicedObj:
    """An object of a slice of another category: an object together with
    its structure morphism into the slicing anchor."""

    obj: Any
    arrow: Mor


class SliceOverCategory:
    """The slice of an arbitrary base category over one of its objects.
    Products here are pullbacks there."""

    def __init__(self, base_cat, anchor):
        self.base_cat = base_cat
        self.anchor = anchor

    def __repr__(self):
        return "SliceOverCategory(%r)" % (self.base_cat,)

    def __eq__(self, other):
        return (isinstance(other, SliceOverCategory)
                and self.base_cat == other.base_cat and self.anchor == other.anchor)

    def carrier(self, o: SlicedObj) -> FinSet:
        return self.base_cat.carrier(o.obj)

    def mor(self, dom: SlicedObj, cod: SlicedObj, fn: FinFn) -> Mor:
        inner = self.base_cat.mor(dom.obj, cod.obj, fn)
        composed = self.base_cat.compose(cod.arrow, inner)
        assert composed.fn == dom.arrow.fn, "map does not commute with the anchors"
        return Mor(dom, cod, fn)

    def identity(self, o: SlicedObj) -> Mor:
        return Mor(o, o, self.base_cat.identity(o.obj).fn)

    def compose(self, m2: Mor, m1: Mor) -> Mor:
        assert m1.cod == m2.dom
        return Mor(m1.dom, m2.cod, m1.fn.then(m2.fn))

    def terminal(self) -> SlicedObj:
        return SlicedObj(self.anchor, self.base_cat.identity(self.anchor))

    def bang(self, o: SlicedObj) -> Mor:
        return Mor(o, self.terminal(), o.arrow.fn)

    def is_iso(self, m: Mor) -> bool:
        return m.fn.is_bijection()

    def product(self, a: SlicedObj, b: SlicedObj) -> CatProduct:
        pb = self.base_cat.pullback(a.arrow, b.arrow)
        obj = SlicedObj(pb.obj, self.base_cat.compose(a.arrow, pb.p1))

        def pair(m1: Mor, m2: Mor) -> Mor:
            assert m1.dom == m2.dom
            inner1 = self.base_cat.mor(m1.dom.obj, a.obj, m1.fn)
            inner2 = self.base_cat.mor(m2.dom.obj, b.obj, m2.fn)
            return Mor(m1.dom, obj, pb.mediate(inner1, inner2).fn)

        return CatProduct(obj, Mor(obj, a, pb.p1.fn), Mor(obj, b, pb.p2.fn), pair)

    def objects_over(self, base_objs, hom_cap: int | None = None):
        """Slice objects built from a family of base objects; the cap
        guards the enumeration of structure morphisms."""
        count = 0
        for obj in base_objs:
            for m in self.base_cat.homs(obj, self.anchor):
                yield SlicedObj(obj, m)
                count += 1
                if hom_cap is not None and count > hom_cap:
                    raise FamilyTooLarge("sliced family exceeds cap", hom_cap)


def slice_family(base: FinSet, max_total: int):
    return list(SliceCategory(base).objects_upto(max_total))


def action_family(algebra, max_carrier: int):
    return list(ActionCategory(algebra).objects_upto(max_carrier))
