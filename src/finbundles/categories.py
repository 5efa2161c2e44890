"""Uniform wrappers for the categories the adjunction machinery runs over:
slices of finite sets, action categories, and slices of either.

Each category knows its objects, validates its morphisms, and can build
pullbacks and exhaustive hom sets; a product is the pullback of the two
maps to the terminal object.  A morphism check that fails raises a typed
error with a witness.  A morphism is always a Mor
holding the map between underlying carriers; a morphism is invertible
exactly when that map is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .finset import (
    CodMismatch,
    DomMismatch,
    FinFn,
    FinSet,
    FinSetError,
    all_functions,
    pullback,
)
from .algebra import (
    ActionObject,
    NotEquivariant,
    action_product,
    all_actions,
    equivariance_witness,
    equivariant_maps,
    pullback_action,
    terminal_action,
)


class FamilyTooLarge(Exception):
    """The witness is the size that went over the cap: the number of
    family pairs, or the hom cap."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAMorphism(FinSetError):
    """A map between carriers that does not commute with the structure
    maps; the witness is the first point where the square fails."""


@dataclass(frozen=True)
class Mor:
    dom: Any
    cod: Any
    fn: FinFn


def _square_witness(fn: FinFn, dom_leg: FinFn, cod_leg: FinFn):
    """None when fn then cod_leg is dom_leg, else the first point where
    the two differ (the two codomains when only those differ)."""
    composite = fn.then(cod_leg)
    if composite == dom_leg:
        return None
    return next((z for z in range(fn.dom.size) if composite.table[z] != dom_leg.table[z]),
                (composite.cod, dom_leg.cod))


def _compose(m2: Mor, m1: Mor) -> Mor:
    if m1.cod != m2.dom:
        raise CodMismatch("composition mismatch", (m1.cod, m2.dom))
    return Mor(m1.dom, m2.cod, m1.fn.then(m2.fn))


@dataclass(frozen=True)
class CatPullback:
    """A pullback, and so a product (the pullback over the terminal
    object): the object, its two projections and the mediating map of a
    cone."""

    obj: Any
    p1: Mor
    p2: Mor
    mediate: Callable = None


def _cat_pullback(obj, a, b, pb) -> CatPullback:
    """The pullback in a category whose object obj sits over the pullback
    pb of carriers, with a and b the objects the projections land in."""

    def mediate(n1: Mor, n2: Mor) -> Mor:
        if n1.dom != n2.dom:
            raise DomMismatch("a cone needs legs with one domain", (n1.dom, n2.dom))
        return Mor(n1.dom, obj, pb.mediate(n1.fn, n2.fn))

    return CatPullback(obj, Mor(obj, a, pb.p1), Mor(obj, b, pb.p2), mediate)


class SliceCategory:
    """The slice of finite sets over a fixed base, whose objects are the
    maps into the base; the base category of finite sets itself is the
    slice over a point."""

    def __init__(self, base: FinSet):
        self.base = base

    def __repr__(self):
        return "SliceCategory(%d)" % self.base.size

    def __eq__(self, other):
        return isinstance(other, SliceCategory) and self.base == other.base

    def carrier(self, o: FinFn) -> FinSet:
        return o.dom

    def mor(self, dom: FinFn, cod: FinFn, fn: FinFn) -> Mor:
        if fn.dom != dom.dom:
            raise DomMismatch("map does not leave the domain object", (fn.dom, dom.dom))
        if fn.cod != cod.dom:
            raise CodMismatch("map does not land in the codomain object", (fn.cod, cod.dom))
        witness = _square_witness(fn, dom, cod)
        if witness is not None:
            raise NotAMorphism("map does not commute with the projections", witness)
        return Mor(dom, cod, fn)

    def identity(self, o: FinFn) -> Mor:
        return Mor(o, o, FinFn.identity(o.dom))

    compose = staticmethod(_compose)

    def terminal(self) -> FinFn:
        return FinFn.identity(self.base)

    def bang(self, o: FinFn) -> Mor:
        return Mor(o, self.terminal(), o)

    def is_iso(self, m: Mor) -> bool:
        return m.fn.is_bijection()

    def product(self, a: FinFn, b: FinFn) -> CatPullback:
        return self.pullback(self.bang(a), self.bang(b))

    def pullback(self, m1: Mor, m2: Mor) -> CatPullback:
        if m1.cod != m2.cod:
            raise CodMismatch("pullback needs a common codomain", (m1.cod, m2.cod))
        pb = pullback(m1.fn, m2.fn)
        return _cat_pullback(pb.p1.then(m1.dom), m1.dom, m2.dom, pb)

    def homs(self, a: FinFn, b: FinFn):
        for fn in all_functions(a.dom, b.dom):
            if fn.then(b) == a:
                yield Mor(a, b, fn)

    def objects_upto(self, max_total: int):
        for n in range(max_total + 1):
            yield from all_functions(FinSet(n), self.base)


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
        if witness is not None:
            raise NotEquivariant("map does not commute with the actions", witness)
        return Mor(dom, cod, fn)

    def identity(self, o: ActionObject) -> Mor:
        return Mor(o, o, FinFn.identity(o.carrier))

    compose = staticmethod(_compose)

    def terminal(self) -> ActionObject:
        return terminal_action(self.algebra)

    def bang(self, o: ActionObject) -> Mor:
        term = self.terminal()
        return Mor(o, term, FinFn(o.carrier, term.carrier, o.anchor.table))

    def is_iso(self, m: Mor) -> bool:
        return m.fn.is_bijection()

    def product(self, a: ActionObject, b: ActionObject) -> CatPullback:
        # the pullback of the bangs, kept in the action_product cache
        obj, pb = action_product(a, b)
        return _cat_pullback(obj, a, b, pb)

    def pullback(self, m1: Mor, m2: Mor) -> CatPullback:
        if m1.cod != m2.cod:
            raise CodMismatch("pullback needs a common codomain", (m1.cod, m2.cod))
        pb = pullback(m1.fn, m2.fn)
        return _cat_pullback(pullback_action(pb, m1.dom, m2.dom), m1.dom, m2.dom, pb)

    def homs(self, a: ActionObject, b: ActionObject):
        for fn in equivariant_maps(a, b):
            yield Mor(a, b, fn)

    def objects_upto(self, max_carrier: int):
        for n in range(max_carrier + 1):
            yield from all_actions(self.algebra, FinSet(n))


class SliceOverCategory:
    """The slice of an arbitrary base category over one of its objects,
    whose objects are the base category's morphisms into that anchor.
    Products here are pullbacks there."""

    def __init__(self, base_cat, anchor):
        self.base_cat = base_cat
        self.anchor = anchor

    def __repr__(self):
        return "SliceOverCategory(%r)" % (self.base_cat,)

    def __eq__(self, other):
        return (isinstance(other, SliceOverCategory)
                and self.base_cat == other.base_cat and self.anchor == other.anchor)

    def carrier(self, o: Mor) -> FinSet:
        return self.base_cat.carrier(o.dom)

    def mor(self, dom: Mor, cod: Mor, fn: FinFn) -> Mor:
        self.base_cat.mor(dom.dom, cod.dom, fn)
        witness = _square_witness(fn, dom.fn, cod.fn)
        if witness is not None:
            raise NotAMorphism("map does not commute with the structure maps", witness)
        return Mor(dom, cod, fn)

    def identity(self, o: Mor) -> Mor:
        return Mor(o, o, self.base_cat.identity(o.dom).fn)

    compose = staticmethod(_compose)

    def terminal(self) -> Mor:
        return self.base_cat.identity(self.anchor)

    def bang(self, o: Mor) -> Mor:
        return Mor(o, self.terminal(), o.fn)

    def is_iso(self, m: Mor) -> bool:
        return m.fn.is_bijection()

    def product(self, a: Mor, b: Mor) -> CatPullback:
        pb = self.base_cat.pullback(a, b)
        obj = self.base_cat.compose(a, pb.p1)

        def mediate(m1: Mor, m2: Mor) -> Mor:
            if m1.dom != m2.dom:
                raise DomMismatch("a cone needs legs with one domain", (m1.dom, m2.dom))
            inner1 = self.base_cat.mor(m1.dom.dom, a.dom, m1.fn)
            inner2 = self.base_cat.mor(m2.dom.dom, b.dom, m2.fn)
            return Mor(m1.dom, obj, pb.mediate(inner1, inner2).fn)

        return CatPullback(obj, Mor(obj, a, pb.p1.fn), Mor(obj, b, pb.p2.fn), mediate)

    def objects_over(self, base_objs, hom_cap: int | None = None):
        """The morphisms from a family of base objects into the anchor;
        the cap guards their enumeration."""
        count = 0
        for obj in base_objs:
            for m in self.base_cat.homs(obj, self.anchor):
                yield m
                count += 1
                if hom_cap is not None and count > hom_cap:
                    raise FamilyTooLarge("sliced family exceeds cap", hom_cap)


def slice_family(base: FinSet, max_total: int):
    return list(SliceCategory(base).objects_upto(max_total))


def action_family(algebra, max_carrier: int):
    return list(ActionCategory(algebra).objects_upto(max_carrier))
