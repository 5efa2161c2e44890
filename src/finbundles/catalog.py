"""Named small algebras used as fixtures: every group of order <= 8 and a
few standard groupoids.  Tables are built explicitly and validated, never
discovered by search."""

from __future__ import annotations

import itertools

from .algebra import (
    FinGroupoid,
    discrete_groupoid,
    pair_groupoid,
    validate_group,
)


def cyclic(n: int) -> FinGroupoid:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(mul, 0, [(-i) % n for i in range(n)])


def direct_product(g: FinGroupoid, h: FinGroupoid) -> FinGroupoid:
    n, m = g.order, h.order
    idx = lambda a, b: a * m + b
    mul = [[0] * (n * m) for _ in range(n * m)]
    for a, b in itertools.product(range(n), range(m)):
        for c, d in itertools.product(range(n), range(m)):
            mul[idx(a, b)][idx(c, d)] = idx(g.comp[a][c], h.comp[b][d])
    inv = [idx(g.inverse(k // m), h.inverse(k % m)) for k in range(n * m)]
    return validate_group(mul, idx(g.ident.table[0], h.ident.table[0]), inv)


def symmetric(n: int) -> FinGroupoid:
    """Permutations of n points in lexicographic order, composed as
    functions (left factor applied last)."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    mul = [[index[tuple(a[b[i]] for i in range(n))] for b in perms] for a in perms]
    inv = []
    for p in perms:
        q = [0] * n
        for i, v in enumerate(p):
            q[v] = i
        inv.append(index[tuple(q)])
    return validate_group(mul, index[tuple(range(n))], inv)


def dihedral(n: int) -> FinGroupoid:
    """Order 2n: elements (i, e) indexed i*2+e, with (i,e)(j,d) =
    (i + (-1)^e j, e+d)."""
    size = 2 * n
    idx = lambda i, e: i * 2 + e
    mul = [[0] * size for _ in range(size)]
    for i, e in itertools.product(range(n), range(2)):
        for j, d in itertools.product(range(n), range(2)):
            k = (i - j) % n if e else (i + j) % n
            mul[idx(i, e)][idx(j, d)] = idx(k, (e + d) % 2)
    inv = [idx((-k // 2) % n, 0) if k % 2 == 0 else k for k in range(size)]
    return validate_group(mul, 0, inv)


def quaternion() -> FinGroupoid:
    """Q8 as signed units 1,-1,i,-i,j,-j,k,-k (index order)."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    axis = {0: "1", 1: "1", 2: "i", 3: "i", 4: "j", 5: "j", 6: "k", 7: "k"}
    sign = {k: 1 if k % 2 == 0 else -1 for k in range(8)}
    table = {("1", "1"): (1, "1"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1"),
             ("1", "i"): (1, "i"), ("i", "1"): (1, "i"),
             ("1", "j"): (1, "j"), ("j", "1"): (1, "j"),
             ("1", "k"): (1, "k"), ("k", "1"): (1, "k"),
             ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
             ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}
    def unit_index(s, a):
        base = {"1": 0, "i": 2, "j": 4, "k": 6}[a]
        return base if s == 1 else base + 1
    mul = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            s, ax = table[(axis[a], axis[b])]
            mul[a][b] = unit_index(s * sign[a] * sign[b], ax)
    inv = [0, 1, 3, 2, 5, 4, 7, 6]
    return validate_group(mul, 0, inv)


def klein_four() -> FinGroupoid:
    return direct_product(cyclic(2), cyclic(2))


GROUP_BUILDERS = {
    "z1": lambda: cyclic(1),
    "z2": lambda: cyclic(2),
    "z3": lambda: cyclic(3),
    "z4": lambda: cyclic(4),
    "v4": klein_four,
    "z5": lambda: cyclic(5),
    "z6": lambda: cyclic(6),
    "s3": lambda: symmetric(3),
    "z7": lambda: cyclic(7),
    "z8": lambda: cyclic(8),
    "z4xz2": lambda: direct_product(cyclic(4), cyclic(2)),
    "z2xz2xz2": lambda: direct_product(klein_four(), cyclic(2)),
    "d4": lambda: dihedral(4),
    "q8": quaternion,
}

GROUPOID_BUILDERS = {
    "discrete1": lambda: discrete_groupoid(1),
    "discrete2": lambda: discrete_groupoid(2),
    "discrete3": lambda: discrete_groupoid(3),
    "pair2": lambda: pair_groupoid(2),
    "z2_loop": lambda: cyclic(2),
}


def groups(max_order: int = 8) -> dict[str, FinGroupoid]:
    out = {}
    for name, build in GROUP_BUILDERS.items():
        g = build()
        if g.order <= max_order:
            out[name] = g
    return out


def groupoids() -> dict[str, FinGroupoid]:
    return {name: build() for name, build in GROUPOID_BUILDERS.items()}
