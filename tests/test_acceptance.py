"""Acceptance gate: one test per criterion, each printing a PASS line with
the bounds and timings it ran at.  Run with -s to see the lines."""

import itertools
import json
import time
from pathlib import Path

import pytest

from finbundles import catalog
from finbundles.finset import FinFn, FinSet, IsoCertificate, TERMINAL
from finbundles.algebra import (
    AlgebraError,
    BadComposability,
    BadIdentity,
    BadInverse,
    NoInverse,
    NotAssociative,
    NoUnit,
    all_actions,
    arrows_action,
    sigma,
    trivial_action,
    untwist_iso,
    validate_group,
    validate_groupoid,
)
from finbundles.categories import action_family, slice_family
from finbundles.torsor import division_map, enumerate_torsors
from finbundles.adjunction import check_stably_frobenius, sigma_presentation, tensor
from finbundles.suites import (
    Bounds,
    corollary_checks,
    glue_checks,
    groupoid_instance_checks,
    point_slice,
    sorted_groups,
    theorem_torsor_checks,
)
from finbundles.cli import run_theorem_suite

GROUPS = catalog.groups(8)
GROUPOIDS = catalog.groupoids()
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(criterion, detail):
    print("criterion %-2d PASS  %s" % (criterion, detail))


# 1 --------------------------------------------------------------------------

def _mutated_group_tables(i):
    names = [n for n, g in sorted_groups(GROUPS, 8) if g.order >= 2]
    g = GROUPS[names[i % len(names)]]
    n = g.order
    mul = [list(r) for r in g.comp]
    inv = list(g.inv.table)
    unit = g.ident.table[0]
    kind = i % 3
    if kind == 0:
        a, b = (i * 7 + 1) % n, (i * 3 + 2) % n
        mul[a][b] = (mul[a][b] + 1) % n
    elif kind == 1:
        unit = (unit + 1) % n
    else:
        a = (i * 5 + 1) % n
        inv[a] = (inv[a] + 1) % n
    return mul, unit, inv


def _witness_is_correct(exc, mul, unit, inv):
    w = exc.witness
    if isinstance(exc, NoUnit):
        return mul[unit][w] != w or mul[w][unit] != w
    if isinstance(exc, NotAssociative):
        a, b, c = w
        return mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if isinstance(exc, NoInverse):
        return mul[inv[w]][w] != unit or mul[w][inv[w]] != unit
    return False


def _groupoid_witness_is_correct(exc, gd_tables):
    src, tgt, ident, comp, inv = gd_tables
    w = exc.witness
    if isinstance(exc, BadComposability):
        a, b = w
        defined = comp[a][b] is not None
        composable = src[a] == tgt[b]
        if defined != composable:
            return True
        c = comp[a][b]
        return src[c] != src[b] or tgt[c] != tgt[a]
    if isinstance(exc, BadIdentity):
        if w < len(ident):
            e = ident[w]
            if src[e] != w or tgt[e] != w:
                return True
        return (comp[w][ident[src[w]]] != w
                or comp[ident[tgt[w]]][w] != w)
    if isinstance(exc, BadInverse):
        ia = inv[w]
        if src[ia] != tgt[w] or tgt[ia] != src[w]:
            return True
        return (comp[ia][w] != ident[src[w]] or comp[w][ia] != ident[tgt[w]])
    if isinstance(exc, NotAssociative):
        a, b, c = w
        return comp[comp[a][b]][c] != comp[a][comp[b][c]]
    return False


def test_criterion_01_algebra_laws():
    start = time.perf_counter()
    for name, g in GROUPS.items():
        validate_group([list(r) for r in g.comp], g.ident.table[0], list(g.inv.table))
    for name, gd in GROUPOIDS.items():
        validate_groupoid(gd.objects.size, gd.arrows.size, list(gd.src.table),
                          list(gd.tgt.table), list(gd.ident.table),
                          [list(r) for r in gd.comp], list(gd.inv.table))
    mutants = 0
    for i in range(16):
        mul, unit, inv = _mutated_group_tables(i)
        with pytest.raises(AlgebraError) as exc:
            validate_group(mul, unit, inv)
        assert _witness_is_correct(exc.value, mul, unit, inv), (i, exc.value)
        mutants += 1
    pair2 = GROUPOIDS["pair2"]
    z2_loop = GROUPOIDS["z2_loop"]
    for i, (gd, mutate) in enumerate([
            (pair2, lambda t: t[3][0].__setitem__(0, 1)),       # comp entry
            (pair2, lambda t: t[2].__setitem__(0, 1)),          # ident entry
            (z2_loop, lambda t: t[4].__setitem__(1, 0)),        # inv entry
            (pair2, lambda t: t[4].__setitem__(1, 0)),          # inv entry
    ]):
        tables = ([*gd.src.table], [*gd.tgt.table], [*gd.ident.table],
                  [list(r) for r in gd.comp], [*gd.inv.table])
        mutate(tables)
        src, tgt, ident, comp, inv = tables
        with pytest.raises(AlgebraError) as exc:
            validate_groupoid(gd.objects.size, gd.arrows.size, src, tgt,
                              ident, comp, inv)
        assert _groupoid_witness_is_correct(exc.value, tables), (i, exc.value)
        mutants += 1
    elapsed = time.perf_counter() - start
    assert mutants == 20
    assert elapsed < 5.0
    report(1, "14 groups + 5 groupoids validate; 20 mutants fail with "
              "correct witnesses; %.2fs (< 5s)" % elapsed)


# 2 --------------------------------------------------------------------------

def test_criterion_02_orbit_quotients():
    for name, g in GROUPS.items():
        assert sigma(arrows_action(g)).quotient.size == 1, name
    for name, g in GROUPS.items():
        for n in range(4):
            orb = sigma(trivial_action(g, FinSet(n)))
            assert orb.q.is_bijection()
            IsoCertificate(orb.q, orb.q.inverse())
    report(2, "orbit quotient of every self action is a point; trivial "
              "actions quotient to themselves (exact)")


# 3 --------------------------------------------------------------------------

def test_criterion_03_untwist():
    start = time.perf_counter()
    cases = 0
    for name, g in sorted_groups(GROUPS, 6):
        for n in range(5):
            for a in all_actions(g, FinSet(n)):
                u = untwist_iso(a)
                assert u.cert.forward.is_bijection()
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "untwist certificates valid for %d actions (all |G|<=6, "
              "|A|<=4); %.2fs (< 30s)" % (cases, elapsed))


# 4 --------------------------------------------------------------------------

def test_criterion_04_orbit_adjunction_stably_frobenius():
    start = time.perf_counter()
    pairs = 0
    for name, g in sorted_groups(GROUPS, 4):
        pres = sigma_presentation(g)
        rep = check_stably_frobenius(
            pres, [point_slice(n) for n in (1, 2, 3)],
            action_family(g, 3), slice_family(TERMINAL, 3),
            hom_cap=100000, max_pairs=10 ** 9)
        assert rep["passed"], (name, rep)
        pairs += sum(r["pairs"] for r in rep["results"])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, "orbit adjunction stably Frobenius for |G|<=4 over bases "
              "<= 3 (%d sliced pairs); %.2fs (< 2min)" % (pairs, elapsed))


# 5 --------------------------------------------------------------------------

def _oracle_structures_by_translation(g):
    """Independent count: bijections onto the group modulo translation."""
    n = g.order
    orbits = set()
    for perm in itertools.permutations(range(n)):
        orbits.add(frozenset(
            tuple(g.comp[perm[p]][a] for p in range(n)) for a in range(n)))
    return len(orbits)


def test_criterion_05_torsor_counts():
    enum = enumerate_torsors(GROUPS["z2"], TERMINAL, FinSet(2))
    assert enum.structures == 1 and enum.iso_count == 1
    enum = enumerate_torsors(GROUPS["z3"], TERMINAL, FinSet(3))
    assert enum.structures == 2 and enum.iso_count == 1
    detail = []
    for name, g in sorted_groups(GROUPS, 4):
        enum = enumerate_torsors(g, TERMINAL, FinSet(g.order))
        oracle = _oracle_structures_by_translation(g)
        factorial = 1
        for k in range(2, g.order + 1):
            factorial *= k
        assert enum.structures == oracle == factorial // g.order, name
        detail.append("%s:%d" % (name, enum.structures))
    report(5, "torsor structure counts over a point match the "
              "translation oracle exactly (%s)" % ", ".join(detail))


# 6 --------------------------------------------------------------------------

def test_criterion_06_division_laws():
    start = time.perf_counter()
    torsors = 0
    for name, g in sorted_groups(GROUPS, 4):
        for nx in (1, 2):
            carrier = FinSet(g.order * nx)
            enum = enumerate_torsors(g, FinSet(nx), carrier)
            for w in enum.witnesses:
                division_map(w)
                torsors += 1
    elapsed = time.perf_counter() - start
    report(6, "division laws (both translation identities and the unital "
              "diagonal) hold on all %d torsors with |G|<=4, |X|<=2; "
              "%.1fs" % (torsors, elapsed))


# 7 --------------------------------------------------------------------------

def _criterion_seven_torsors():
    for name, g in sorted_groups(GROUPS, 3):
        for nx in (1, 2):
            carrier = g.order * nx
            if carrier > 6:
                continue
            enum = enumerate_torsors(g, FinSet(nx), FinSet(carrier))
            for w in enum.witnesses:
                yield name, nx, w


def test_criterion_07_main_theorem_roundtrip():
    start = time.perf_counter()
    bounds = Bounds(family_total=2, family_carrier=2)
    deep_bounds = Bounds(family_total=3, family_carrier=3)
    done = 0
    seen_pairs = set()
    for name, nx, w in _criterion_seven_torsors():
        b = deep_bounds if (name, nx) not in seen_pairs else bounds
        seen_pairs.add((name, nx))
        rep = theorem_torsor_checks(w, b)
        assert rep["passed"], (name, nx, rep)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(7, "bundle <-> adjunction round trip with triangle, over-base "
              "and stable-reciprocity checks on all %d torsors "
              "(|G|<=3, |X|<=2, |P|<=6; families: totals<=2, carriers<=2, "
              "deepened to 3 on one representative per case); "
              "%.1fs (< 10min)" % (done, elapsed))


# 8 --------------------------------------------------------------------------

def test_criterion_08_tensor_identities():
    count = 0
    for name, nx, w in _criterion_seven_torsors():
        g = w.bundle.action.algebra
        t = tensor(w.bundle.action, arrows_action(g))
        fwd = FinFn(t.carrier, w.bundle.action.carrier,
                    tuple(w.bundle.action.act[g.inverse(h)][p]
                          for (p, h) in map(t.rep_pair, range(t.carrier.size))))
        IsoCertificate(fwd, fwd.inverse())
        for k in range(t.carrier.size):
            p, _ = t.rep_pair(k)
            assert w.bundle.proj.table[fwd.table[k]] == w.bundle.proj.table[p]
        for ny in range(4):
            y = FinSet(ny)
            t2 = tensor(w.bundle.action, trivial_action(g, y))
            if nx == 1:
                assert t2.carrier.size == ny
                fwd2 = FinFn(t2.carrier, y,
                             tuple(t2.rep_pair(k)[1] for k in range(ny)))
                IsoCertificate(fwd2, fwd2.inverse())
            else:
                assert t2.carrier.size == nx * ny
        count += 1
    report(8, "tensor with the group object returns the carrier and tensor "
              "with a trivial action returns the set (base x set over a "
              "larger base), certified, on all %d torsors (exact)" % count)


# 9 --------------------------------------------------------------------------

def test_criterion_09_descent_gluing():
    start = time.perf_counter()
    checks = glue_checks(Bounds(base=2), max_p=4, max_y=4)
    assert checks, "no descent instances generated"
    for c in checks:
        assert c["passed"], c
    data = sum(c["data"] for c in checks)
    elapsed = time.perf_counter() - start
    report(9, "gluing recovers every descent datum (%d data across %d "
              "surjections, |P|<=4, |X|<=2, |Y|<=4) and every slice over "
              "the base arises; %.1fs (exact)" % (data, len(checks), elapsed))


# 10 -------------------------------------------------------------------------

def test_criterion_10_corollary_agreement():
    checks = corollary_checks(GROUPS, Bounds(group_order=3, carrier=6, base=2))
    negatives = [c for c in checks if c["negative_control"]]
    positives = [c for c in checks if not c["negative_control"]]
    assert len(negatives) == 5
    for c in positives:
        assert c["criterion_passed"] and c["stable_passed"] and c["passed"], c
    for c in negatives:
        assert not c["criterion_passed"] and not c["stable_passed"], c
        assert c["passed"]
    report(10, "slice criterion agrees with the full stable check on %d "
               "honest presentations and 5 corrupted negatives "
               "(pass/pass and fail/fail)" % len(positives))


# 11 -------------------------------------------------------------------------

def test_criterion_11_groupoid_instance():
    checks = groupoid_instance_checks(GROUPOIDS, Bounds(base=3))
    assert checks
    for c in checks:
        assert c["passed"], c
        assert c["iso_classes"] == c["expected"]
        assert c["basechange_match"]
    combos = {(c["groupoid"], c["base"]) for c in checks}
    assert combos == {("discrete%d" % s, x) for s in (1, 2, 3) for x in (1, 2, 3)}
    report(11, "discrete-groupoid bundle classes count anchor maps "
               "(|S|^|X| for |S|<=3, |X|<=3) and induced adjunctions match "
               "base change (exact)")


# 12 -------------------------------------------------------------------------

def test_criterion_12_determinism():
    bounds = Bounds(group_order=2, base=1)
    first = run_theorem_suite(FIXTURES, bounds)
    second = run_theorem_suite(FIXTURES, bounds)
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    report(12, "two theorem-suite runs with identical configuration emit "
               "identical reports (timing field excluded)")
