"""Seeded fixture trees for the benchmark.

Seed 0 is the checked-in ``fixtures/`` tree, copied unchanged.  Seed s
relabels the elements of every group by a permutation drawn from
``random.Random(s)``: ``mul``, ``unit`` and ``inv`` are rewritten, and the
``act`` rows of each bundle over that group are permuted to match.  The
relabelled groups are isomorphic to the originals, so every count the
correctness gate checks is the same at every seed.  Groupoids are copied
unchanged.

The permutation maps each element to one of the same order, so every
label keeps the order of the element it names.  The action search in
``algebra.all_group_actions`` branches on the lowest-labelled element not
yet assigned; moving an element of order 2 or 3 into z6's first free
label would double the work of ``enumerate``, and the seed would then
choose the workload's cost instead of varying its tables.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path


def order_classes(data: dict) -> list[list[int]]:
    """The group's elements, grouped by their order."""
    mul, unit = data["mul"], data["unit"]
    classes: dict[int, list[int]] = {}
    for a in range(len(mul)):
        power, order = a, 1
        while power != unit and order <= len(mul):
            power, order = mul[power][a], order + 1
        classes.setdefault(order, []).append(a)
    return [classes[k] for k in sorted(classes)]


def relabel_group(data: dict, perm: list[int]) -> dict:
    """The same group with element a renamed perm[a]."""
    n = len(perm)
    mul = [[0] * n for _ in range(n)]
    inv = [0] * n
    for a in range(n):
        inv[perm[a]] = perm[data["inv"][a]]
        for b in range(n):
            mul[perm[a]][perm[b]] = perm[data["mul"][a][b]]
    return dict(data, mul=mul, unit=perm[data["unit"]], inv=inv)


def relabel_bundle(data: dict, perm: list[int]) -> dict:
    """The same bundle, acting through the relabelled group."""
    act = [None] * len(perm)
    for g, row in enumerate(data["action"]["act"]):
        act[perm[g]] = row
    return dict(data, action=dict(data["action"], act=act))


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def make_fixtures(src: Path, dst: Path, seed: int) -> None:
    """Write the fixture tree for ``seed`` to ``dst``, which must not exist."""
    shutil.copytree(src, dst)
    if seed == 0:
        return
    rng = random.Random(seed)
    perms = {}
    for path in sorted((dst / "groups").glob("*.json")):
        data = json.loads(path.read_text())
        perm = list(range(len(data["mul"])))
        for members in order_classes(data):
            for a, b in zip(members, rng.sample(members, len(members))):
                perm[a] = b
        perms["groups/" + path.stem] = perm
        _write(path, relabel_group(data, perm))
    for path in sorted((dst / "bundles").glob("*.json")):
        data = json.loads(path.read_text())
        perm = perms.get(data["action"]["algebra"])
        if perm is not None:
            _write(path, relabel_bundle(data, perm))
