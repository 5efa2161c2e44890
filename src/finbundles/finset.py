"""Finite sets and maps as index tables, plus the limits and colimits
everything else is built from.

Conventions, fixed so repeated runs are bit-identical:

- a set of size n is the index range 0..n-1; labels are display-only
- pullback carriers list their pairs in lexicographic order; a product
  is the pullback over the terminal set, so its pairs are row-major:
  (i, j) -> i * right.size + j
- quotient classes are numbered by least representative
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property


class FinSetError(Exception):
    """Structural error in a finite-set construction."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CodMismatch(FinSetError):
    pass


class DomMismatch(FinSetError):
    pass


class BaseMismatch(FinSetError):
    pass


class NotInPullback(FinSetError):
    """The witness is the pair (a, b) that is not a point of the
    pullback."""


class NotACone(FinSetError):
    """The witness is (z, f(u z), g(v z)) for the first point z where the
    two legs of a cone disagree over the cospan."""


class NotBijective(FinSetError):
    """The witness is the first two points with one image, or
    ("missed", y) for the first point y that nothing reaches."""


class NotInverse(FinSetError, ValueError):
    """The witness is (i, j) for the first point i that one composite of
    two supposed inverses sends to j != i, or their two pairs of ends
    when those do not match."""


class _Interned:
    """Hash-consing: the constructor returns the one object of each value,
    validated the first time the value is built, so equality is identity
    and hashing is by address.  The pools are never emptied (that would
    break identity as equality); instances are immutable because every
    holder shares them.  Address hashes differ from run to run, so no
    output may depend on them: never iterate a set of these values or
    order output by their hash."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


_FINSETS: dict = {}
_FINFNS: dict = {}


class FinSet(_Interned):
    """A finite set: the index range 0..size-1, optionally labelled."""

    __slots__ = ("size", "labels")

    def __new__(cls, size: int, labels=None):
        if labels is not None:
            labels = tuple(labels)
        key = (size, labels)
        s = _FINSETS.get(key)
        if s is None:
            if size < 0:
                raise ValueError("size must be non-negative")
            if labels is not None:
                if len(labels) != size:
                    raise ValueError("labels must match size")
                if len(set(labels)) != size:
                    raise ValueError("labels must be pairwise distinct")
            s = _FINSETS[key] = object.__new__(cls)
            object.__setattr__(s, "size", size)
            object.__setattr__(s, "labels", labels)
        return s

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def __iter__(self):
        return iter(range(self.size))


TERMINAL = FinSet(1)
EMPTY = FinSet(0)


class FinFn(_Interned):
    """A total function between finite sets, stored as an index table."""

    __slots__ = ("dom", "cod", "table")

    def __new__(cls, dom: FinSet, cod: FinSet, table):
        table = tuple(table)
        key = (dom, cod, table)
        f = _FINFNS.get(key)
        if f is None:
            if len(table) != dom.size:
                raise ValueError("table length must equal dom.size")
            for v in table:
                if not (0 <= v < cod.size):
                    raise ValueError("table entry %r out of codomain range" % (v,))
            f = _FINFNS[key] = object.__new__(cls)
            object.__setattr__(f, "dom", dom)
            object.__setattr__(f, "cod", cod)
            object.__setattr__(f, "table", table)
        return f

    def __call__(self, i: int) -> int:
        return self.table[i]

    def then(self, other: "FinFn") -> "FinFn":
        """Diagram-order composite: apply self first, then other."""
        if self.cod != other.dom:
            raise CodMismatch("composition mismatch", (self.cod, other.dom))
        return FinFn(self.dom, other.cod, tuple(other.table[v] for v in self.table))

    @staticmethod
    def identity(s: FinSet) -> "FinFn":
        return FinFn(s, s, tuple(range(s.size)))

    @staticmethod
    def constant(dom: FinSet, cod: FinSet, value: int) -> "FinFn":
        return FinFn(dom, cod, (value,) * dom.size)

    def is_bijection(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.table)) == self.dom.size

    def is_surjection(self) -> bool:
        return len(set(self.table)) == self.cod.size

    def inverse(self) -> "FinFn":
        table = [None] * self.cod.size
        for i, v in enumerate(self.table):
            if table[v] is not None:
                raise NotBijective("only bijections invert", (table[v], i))
            table[v] = i
        if None in table:
            raise NotBijective("only bijections invert", ("missed", table.index(None)))
        return FinFn(self.cod, self.dom, tuple(table))


def all_functions(dom: FinSet, cod: FinSet):
    """All FinFns dom -> cod, in lexicographic table order."""
    if dom.size == 0:
        yield FinFn(dom, cod, ())
        return
    if cod.size == 0:
        return
    for table in itertools.product(range(cod.size), repeat=dom.size):
        yield FinFn(dom, cod, table)


@dataclass(frozen=True)
class IsoCertificate:
    """Evidence of an isomorphism: mutually inverse maps, verified on
    construction."""

    forward: FinFn
    backward: FinFn

    def __post_init__(self):
        fwd, bwd = self.forward, self.backward
        if fwd.dom != bwd.cod or fwd.cod != bwd.dom:
            raise NotInverse("forward/backward endpoints do not match",
                             ((fwd.dom, fwd.cod), (bwd.dom, bwd.cod)))
        for i in range(fwd.dom.size):
            if bwd.table[fwd.table[i]] != i:
                raise NotInverse("backward . forward is not the identity",
                                 (i, bwd.table[fwd.table[i]]))
        for j in range(fwd.cod.size):
            if fwd.table[bwd.table[j]] != j:
                raise NotInverse("forward . backward is not the identity",
                                 (j, fwd.table[bwd.table[j]]))


class _Indices(dict):
    """Pairs to indices; a pair that is not a point raises NotInPullback."""

    __slots__ = ()

    def __missing__(self, pair):
        raise NotInPullback("pair is not a point of the pullback", pair)


class Pullback:
    """The pullback of f and g: pairs (a, b) with f(a) = g(b), in lexicographic
    order, and the index of each pair in ``indices``.  The legs p1 and p2 are
    built on first read.  Immutable, and not pooled: equality is identity."""

    __slots__ = ("carrier", "pairs", "f", "g", "indices", "__dict__")
    __setattr__, __delattr__ = _Interned.__setattr__, _Interned.__delattr__

    def __init__(self, carrier: FinSet, pairs, f: FinFn, g: FinFn):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "indices", _Indices(zip(pairs, range(len(pairs)))))

    def __reduce__(self):
        return pullback, (self.f, self.g)

    @cached_property
    def p1(self) -> FinFn:
        return FinFn(self.carrier, self.f.dom, tuple(a for a, _ in self.pairs))

    @cached_property
    def p2(self) -> FinFn:
        return FinFn(self.carrier, self.g.dom, tuple(b for _, b in self.pairs))

    def index(self, a: int, b: int) -> int:
        return self.indices[(a, b)]

    def mediate(self, u: FinFn, v: FinFn) -> FinFn:
        """The unique map into the pullback induced by a cone (u, v)."""
        if u.dom != v.dom:
            raise DomMismatch("a cone needs legs with one domain", (u.dom, v.dom))
        if u.cod != self.f.dom or v.cod != self.g.dom:
            raise CodMismatch("cone legs must land in the cospan", (u.cod, v.cod))
        table = []
        for z in range(u.dom.size):
            fu, gv = self.f.table[u.table[z]], self.g.table[v.table[z]]
            if fu != gv:
                raise NotACone("not a cone over the cospan", (z, fu, gv))
            table.append(self.index(u.table[z], v.table[z]))
        return FinFn(u.dom, self.carrier, tuple(table))


def pullback(f: FinFn, g: FinFn) -> Pullback:
    if f.cod != g.cod:
        raise CodMismatch("pullback needs a common codomain", (f.cod, g.cod))
    gt = tuple(enumerate(g.table))
    pairs = tuple([(a, b) for a, x in enumerate(f.table) for b, y in gt if x == y])
    return Pullback(FinSet(len(pairs)), pairs, f, g)


def product(a: FinSet, b: FinSet) -> Pullback:
    """The product as the pullback of the two maps to the terminal set:
    its pairs are in row-major order, so (i, j) is at i * b.size + j."""
    return pullback(FinFn.constant(a, TERMINAL, 0), FinFn.constant(b, TERMINAL, 0))


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        x, y = self.find(x), self.find(y)
        if x != y:
            # keep the smaller index as root so class numbering is canonical
            if y < x:
                x, y = y, x
            self.parent[y] = x

    def quotient(self) -> tuple[FinSet, tuple[int, ...], tuple[int, ...]]:
        """The classes as a quotient set, the class of every element and
        the least member of every class.  The root of a class is its
        least member, so classes come out numbered by least member."""
        table: list[int] = []
        reps: list[int] = []
        for x in range(len(self.parent)):
            root = self.find(x)
            if root == x:
                table.append(len(reps))
                reps.append(x)
            else:
                table.append(table[root])
        return FinSet(len(reps)), tuple(table), tuple(reps)


@dataclass(frozen=True)
class Coequalizer:
    quotient: FinSet
    q: FinFn
    reps: tuple[int, ...]

    def factor(self, h: FinFn) -> FinFn:
        """Factor a coequalizing map h through q."""
        if h.dom != self.q.dom:
            raise DomMismatch("map must leave the coequalized set", (h.dom, self.q.dom))
        table = tuple(h.table[r] for r in self.reps)
        u = FinFn(self.quotient, h.cod, table)
        if self.q.then(u) != h:
            raise ValueError("map does not coequalize the pair")
        return u


def coequalizer(f: FinFn, g: FinFn) -> Coequalizer:
    if f.dom != g.dom or f.cod != g.cod:
        raise DomMismatch("coequalizer needs a parallel pair", (f, g))
    uf = UnionFind(f.cod.size)
    for a, b in zip(f.table, g.table):
        uf.union(a, b)
    quotient, table, reps = uf.quotient()
    return Coequalizer(quotient, FinFn(f.cod, quotient, table), reps)


# JSON value forms ---------------------------------------------------------

def finset_to_json(s: FinSet) -> dict:
    out = {"size": s.size}
    if s.labels is not None:
        out["labels"] = list(s.labels)
    return out


def finset_from_json(data) -> FinSet:
    if isinstance(data, int):
        return FinSet(data)
    return FinSet(data["size"], data.get("labels"))


def finfn_to_json(f: FinFn) -> dict:
    return {"dom": finset_to_json(f.dom), "cod": finset_to_json(f.cod),
            "table": list(f.table)}


def finfn_from_json(data) -> FinFn:
    return FinFn(finset_from_json(data["dom"]), finset_from_json(data["cod"]),
                 tuple(data["table"]))
