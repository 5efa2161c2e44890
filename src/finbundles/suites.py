"""Check suites: reusable bundles of law checks over explicit bounds.
The CLI wraps these in reports; the acceptance tests call them directly.

Every check returns a plain dict with at least "check", "passed" and the
bounds it ran at, so reports are JSON-ready and deterministic.  A check
left out by the bounds is recorded with "skipped" and the reason in place
of "passed".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import clear_caches
from .finset import (
    FinFn,
    FinSet,
    Pullback,
    TERMINAL,
    all_functions,
    product,
    pullback,
)
from .algebra import (
    ActionObject,
    AlgebraError,
    all_actions,
    arrows_action,
    equivariance_witness,
    trivial_action,
    validate_group,
    validate_groupoid,
)
from .categories import FamilyTooLarge, action_family, slice_family
from .torsor import (
    CARRIER_LIMIT,
    BoundsExceeded,
    Bundle,
    DivisionLawFail,
    TorsorError,
    canonical_descent_datum,
    descent_datum,
    descent_pullbacks,
    division_map,
    enumerate_torsors,
    glue_descent_data,
    intertwining_witness,
    is_principal_bundle,
    trivial_torsor,
)
from .adjunction import (
    AdjunctionError,
    RoundTripFail,
    adjunction_to_bundle,
    bundle_to_adjunction,
    check_frobenius,
    check_over_base,
    check_stably_frobenius,
    check_triangles,
    corollary_slice_criterion,
    corrupt_counit,
    fixedpoints_presentation,
    pullback_presentation,
    sigma_presentation,
    tensor,
)


@dataclass(frozen=True)
class Bounds:
    group_order: int = 4
    carrier: int = 6
    base: int = 2
    family_total: int = 2
    family_carrier: int = 2
    seed: int = 0

    def to_json(self) -> dict:
        return {"group_order": self.group_order, "carrier": self.carrier,
                "base": self.base, "family_total": self.family_total,
                "family_carrier": self.family_carrier, "seed": self.seed}


def point_slice(n: int) -> FinFn:
    return FinFn.constant(FinSet(n), TERMINAL, 0)


def sorted_groups(gs: dict, max_order: int) -> list:
    return [(name, g) for name, g in sorted(gs.items(), key=lambda kv: (kv[1].order, kv[0]))
            if g.order <= max_order]


# verify ---------------------------------------------------------------------

def verify_checks(groups, groupoids, bundles, bounds: Bounds) -> list[dict]:
    checks = []
    for name, g in sorted(groups.items()):
        try:
            validate_group([list(r) for r in g.comp], g.ident.table[0], list(g.inv.table))
            checks.append({"check": "group_axioms", "fixture": name, "passed": True})
        except (AlgebraError, ValueError) as exc:
            checks.append({"check": "group_axioms", "fixture": name, "passed": False,
                           "error": type(exc).__name__,
                           "witness": getattr(exc, "witness", None)})
    for name, g in sorted(groupoids.items()):
        try:
            validate_groupoid(g.objects.size, g.arrows.size, list(g.src.table),
                              list(g.tgt.table), list(g.ident.table),
                              [list(r) for r in g.comp], list(g.inv.table))
            checks.append({"check": "groupoid_axioms", "fixture": name, "passed": True})
        except (AlgebraError, ValueError) as exc:
            checks.append({"check": "groupoid_axioms", "fixture": name, "passed": False,
                           "error": type(exc).__name__,
                           "witness": getattr(exc, "witness", None)})
    for name, b in sorted(bundles.items()):
        try:
            w = is_principal_bundle(b)
            division_map(w)
            checks.append({"check": "bundle_torsor", "fixture": name, "passed": True})
        except TorsorError as exc:
            checks.append({"check": "bundle_torsor", "fixture": name, "passed": False,
                           "error": type(exc).__name__,
                           "witness": getattr(exc, "witness", None)})
    checks.append(untwist_check(groups, max_order=bounds.group_order,
                                max_carrier=bounds.family_carrier + 1))
    checks.append(sigma_frobenius_check(groups, max_order=bounds.group_order,
                                        max_x=2, max_carrier=bounds.family_carrier))
    skipped = []
    checks.append(psi_laws_check(groups, max_order=min(bounds.group_order, 3),
                                 max_base=bounds.base, skipped=skipped))
    checks.extend(skipped)
    checks.append(descent_roundtrip_check(max_total=3, max_base=bounds.base))
    return checks


def untwist_check(groups, max_order: int, max_carrier: int) -> dict:
    from .algebra import untwist_iso

    count = 0
    failures = []
    for name, g in sorted_groups(groups, max_order):
        for n in range(max_carrier + 1):
            for a in all_actions(g, FinSet(n)):
                try:
                    untwist_iso(a)
                except (AlgebraError, ValueError) as exc:
                    failures.append({"group": name, "carrier": n,
                                     "error": type(exc).__name__,
                                     "witness": getattr(exc, "witness", None)})
                count += 1
    return {"check": "untwist_certificates", "cases": count,
            "bounds": {"group_order": max_order, "carrier": max_carrier},
            "passed": not failures, "witnesses": failures[:3]}


def sigma_frobenius_check(groups, max_order: int, max_x: int, max_carrier: int) -> dict:
    """Frobenius reciprocity of the orbit adjunction: for every set X with
    at most max_x points and every action A on at most max_carrier points,
    the canonical comparison Sigma(X_triv x A) -> X x Sigma(A) is a
    bijection."""
    reps = [(name, check_frobenius(sigma_presentation(g), slice_family(TERMINAL, max_x),
                                   action_family(g, max_carrier)))
            for name, g in sorted_groups(groups, max_order)]
    failures = [{"group": name, **w} for name, rep in reps for w in rep["witnesses"]]
    return {"check": "sigma_frobenius", "cases": sum(rep["pairs"] for _, rep in reps),
            "bounds": {"group_order": max_order, "x": max_x, "carrier": max_carrier},
            "passed": all(rep["passed"] for _, rep in reps), "witnesses": failures[:3]}


def psi_laws_check(groups, max_order: int, max_base: int, skipped=None) -> dict:
    """The division laws on every torsor of each group over each base.  A
    case whose carrier is above enumerate_torsors' limit is left out, and
    its skip entry is appended to skipped when that list is given."""
    count = 0
    failures = []
    for name, g in sorted_groups(groups, max_order):
        for nx in range(1, max_base + 1):
            x = FinSet(nx)
            if g.order * nx > CARRIER_LIMIT:
                if skipped is not None:
                    skipped.append({"check": "psi_laws", "group": name, "base": nx,
                                    "carrier": g.order * nx,
                                    "skipped": "carrier %d exceeds the enumeration limit %d"
                                    % (g.order * nx, CARRIER_LIMIT)})
                continue
            enum = enumerate_torsors(g, x, FinSet(g.order * nx))
            for w in enum.witnesses:
                try:
                    division_map(w)
                except DivisionLawFail as exc:
                    failures.append({"group": name, "base": nx, "error": str(exc),
                                     "witness": exc.witness})
                count += 1
    return {"check": "psi_laws", "torsors": count,
            "bounds": {"group_order": max_order, "base": max_base},
            "passed": not failures, "witnesses": failures[:3]}


def descent_roundtrip_check(max_total: int, max_base: int) -> dict:
    count = 0
    failures = []
    for nx in range(1, max_base + 1):
        for np in range(1, max_total + 1):
            for f in all_functions(FinSet(np), FinSet(nx)):
                if f.is_surjection():
                    cases, bad = descent_roundtrip(pullback(f, f), max_total)
                    count += cases
                    failures.extend(bad)
    return {"check": "descent_roundtrip", "cases": count,
            "bounds": {"total": max_total, "base": max_base},
            "passed": not failures, "witnesses": failures[:3]}


def descent_roundtrip(kp: Pullback, max_total: int) -> tuple[int, list[dict]]:
    """Pull every slice over the base with at most max_total points back
    along the map f of the kernel pair kp (the pullback of f with itself)
    and glue its canonical datum; the glued slice must have the slice's
    fibre sizes again.  Returns the number of slices and one witness,
    naming the slice's projection, per slice that fails."""
    f = kp.f
    cases = 0
    failures = []
    for nz in range(max_total + 1):
        z = FinSet(nz)
        for zp in all_functions(z, f.cod):
            glued = glue_descent_data(f, canonical_descent_datum(kp, zp))
            if glued.result.dom.size != nz or sorted(glued.result.table) != sorted(zp.table):
                failures.append({"f": list(f.table), "z": nz, "proj": list(zp.table)})
            cases += 1
    return cases, failures


# enumerate ------------------------------------------------------------------

def enumerate_checks(groups, groupoids, bounds: Bounds) -> list[dict]:
    checks = []
    for name, g in sorted_groups(groups, bounds.group_order):
        if g.order > bounds.carrier:
            checks.append({"check": "torsor_count", "group": name, "base": 1,
                           "carrier": g.order,
                           "skipped": "carrier %d exceeds the carrier bound %d"
                           % (g.order, bounds.carrier)})
            continue
        enum = enumerate_torsors(g, TERMINAL, FinSet(g.order), max_carrier=bounds.carrier)
        expected = _factorial(g.order) // g.order
        checks.append({"check": "torsor_count", "group": name, "base": 1,
                       "carrier": g.order, "structures": enum.structures,
                       "iso_classes": enum.iso_count,
                       "expected_structures": expected,
                       "representatives": [
                           {"proj": list(w.bundle.proj.table),
                            "act": [list(r) for r in w.bundle.action.act]}
                           for w in enum.class_reps()],
                       "passed": enum.structures == expected})
        # release this group's witnesses before the next group's are built
        del enum
    for name, gd in sorted(groupoids.items()):
        if not name.startswith("discrete"):
            continue
        size = gd.objects.size
        for nx in range(1, bounds.base + 1):
            if nx > GROUPOID_BASE_LIMIT:
                checks.append(_base_skip("groupoid_bundle_count", name, nx))
                continue
            x = FinSet(nx)
            enum = enumerate_torsors(gd, x, x, max_carrier=bounds.carrier)
            checks.append({"check": "groupoid_bundle_count", "groupoid": name,
                           "base": nx, "iso_classes": enum.iso_count,
                           "expected": size ** nx,
                           "passed": enum.iso_count == size ** nx})
    return checks


# Groupoid torsors are enumerated over bases of at most this many points.
GROUPOID_BASE_LIMIT = 3


def _base_skip(check: str, groupoid: str, base: int) -> dict:
    return {"check": check, "groupoid": groupoid, "base": base,
            "skipped": "base %d exceeds the groupoid base limit %d"
            % (base, GROUPOID_BASE_LIMIT)}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# theorem --------------------------------------------------------------------

def bundle_roundtrip_cert(w, bundle2: Bundle) -> FinFn:
    """The canonical comparison p -> (p, proj p) from the original carrier
    onto the round-tripped one.  RoundTripFail names the first point
    without a partner, the equivariance witness, or the first point whose
    projection moves."""
    b = w.bundle
    n, m = b.action.carrier.size, bundle2.action.carrier.size
    if n != m:
        raise RoundTripFail("the comparison is not a bijection",
                            ("unmatched", m) if n > m else ("missed", n))
    # the round-tripped carrier is the fibre product of proj with the
    # identity, so its pairs are exactly (p, proj p) in carrier order
    fn = FinFn(b.action.carrier, bundle2.action.carrier, tuple(range(n)))
    witness = equivariance_witness(b.action, bundle2.action, fn)
    if witness is not None:
        raise RoundTripFail("the comparison is not equivariant", witness)
    over = fn.then(bundle2.proj)
    if over != b.proj:
        moved = next((p for p in range(n) if over.table[p] != b.proj.table[p]), None)
        raise RoundTripFail("the comparison is not over the base", moved)
    return fn


def stable_slice_objects(alg, x: FinSet) -> list[ActionObject]:
    """The slicing objects of the standard stable-reciprocity family: the
    trivial action on the base and the arrows (self) action."""
    return [trivial_action(alg, x), arrows_action(alg)]


def theorem_torsor_checks(w, bounds: Bounds) -> dict:
    """The full per-torsor theorem instance: round trip, triangle
    identities, over-base comparison, stable reciprocity.  The module
    caches are scoped to the instance: they are emptied when it returns or
    raises, since their keys are this torsor's actions."""
    try:
        b = w.bundle
        alg = b.action.algebra
        x = b.base
        pres = bundle_to_adjunction(w)
        dom_objs = slice_family(x, bounds.family_total)
        cod_objs = action_family(alg, bounds.family_carrier)
        tri = check_triangles(pres, dom_objs, cod_objs)
        over = check_over_base(pres, dom_objs)
        results = {"triangles": tri["passed"], "over": over["passed"]}
        try:
            b2 = adjunction_to_bundle(pres, dom_objs, cod_objs)
            bundle_roundtrip_cert(w, b2)
            is_principal_bundle(b2)
            results["roundtrip"] = True
        except (AdjunctionError, TorsorError):
            results["roundtrip"] = False
        stable = check_stably_frobenius(pres, stable_slice_objects(alg, x),
                                        dom_objs, cod_objs)
        results["stable"] = stable["passed"]
        results["tensor_self"] = _tensor_self_iso_ok(w, tensor(b.action, arrows_action(alg)))
        results["tensor_trivial"] = all(_tensor_trivial_iso_ok(w, ny) for ny in range(4))
        return {"check": "theorem_roundtrip",
                "group_order": alg.order, "base": x.size,
                "carrier": b.action.carrier.size,
                "results": results,
                "passed": all(results.values())}
    finally:
        clear_caches()


def _tensor_trivial_iso_ok(w, y_size: int) -> bool:
    """Tensoring with a trivial action collapses the carrier factor to its
    orbit set: over a point the result is the plain set, in general it is
    the product with the base."""
    b = w.bundle
    y = FinSet(y_size)
    t = tensor(b.action, trivial_action(b.action.algebra, y))
    target = product(b.base, y)
    # the trivial action's point (o, y) has index o * |Y| + y
    pairs = map(t.rep_pair, range(t.carrier.size))
    return FinFn(t.carrier, target.carrier,
                 tuple(target.index(b.proj.table[p], oy % y_size) for p, oy in pairs)
                 ).is_bijection()


def _tensor_self_iso_ok(w, t) -> bool:
    """tensor with the arrows action is the carrier again, over the base:
    the class of p (x) g corresponds to g^(-1).p."""
    b = w.bundle
    g = b.action.algebra
    table = [None] * t.carrier.size
    for k in range(t.carrier.size):
        p, h = t.rep_pair(k)
        table[k] = b.action.act[g.inverse(h)][p]
    fn = FinFn(t.carrier, b.action.carrier, tuple(table))
    if not fn.is_bijection():
        return False
    for k in range(t.carrier.size):
        p, h = t.rep_pair(k)
        if b.proj.table[fn.table[k]] != b.proj.table[p]:
            return False
    return True


def theorem_checks(groups, groupoids, bounds: Bounds) -> list[dict]:
    checks = []
    for name, g in sorted_groups(groups, bounds.group_order):
        for nx in range(1, bounds.base + 1):
            if g.order * nx > bounds.carrier:
                continue
            x = FinSet(nx)
            try:
                enum = enumerate_torsors(g, x, FinSet(g.order * nx))
            except BoundsExceeded as exc:
                checks.append({"check": "theorem_suite_group", "group": name,
                               "base": nx, "torsors": 0, "error": "BoundsExceeded",
                               "witness": exc.witness, "passed": False})
                continue
            per = [theorem_torsor_checks(w, bounds) for w in enum.witnesses]
            checks.append({"check": "theorem_suite_group", "group": name,
                           "base": nx, "torsors": len(per),
                           "passed": all(c["passed"] for c in per)})
    for name, g in sorted_groups(groups, bounds.group_order):
        sp = sigma_presentation(g)
        try:
            rep = check_stably_frobenius(
                sp, [point_slice(n) for n in range(1, 4)],
                action_family(g, bounds.family_carrier + 1),
                slice_family(TERMINAL, bounds.family_total + 1))
        except FamilyTooLarge as exc:
            checks.append({"check": "sigma_stably_frobenius", "group": name,
                           "error": "FamilyTooLarge", "witness": exc.witness,
                           "passed": False})
            continue
        checks.append({"check": "sigma_stably_frobenius", "group": name,
                       "passed": rep["passed"]})
    checks.extend(corollary_checks(groups, bounds))
    checks.extend(groupoid_instance_checks(groupoids, bounds))
    checks.append(negative_control_check(groups, bounds))
    return checks


def corollary_checks(groups, bounds: Bounds) -> list[dict]:
    checks = []
    presentations = []
    for name, g in sorted_groups(groups, bounds.group_order):
        for nx in range(1, bounds.base + 1):
            if g.order * nx > bounds.carrier:
                continue
            presentations.append((name + "/x%d" % nx,
                                  bundle_to_adjunction(trivial_torsor(g, FinSet(nx)))))
    eligible = [(name, pres) for name, pres in presentations
                if pres.cod.algebra.order >= 2]
    corrupted = []
    if not eligible:
        checks.append({"check": "corollary_negative_controls", "passed": False,
                       "reason": "no presentation over a nontrivial algebra is in bounds"})
    else:
        for style in range(1, 6):
            name, pres = eligible[(style - 1) % len(eligible)]
            corrupted.append((name + "/corrupt%d" % style, corrupt_counit(pres, style)))
    for name, pres in presentations + corrupted:
        x = pres.dom.base
        alg = pres.cod.algebra
        rep = corollary_slice_criterion(
            pres, slice_family(x, bounds.family_total),
            action_family(alg, bounds.family_carrier),
            stable_slice_objects(alg, x))
        negative = "corrupt" in name
        ok = rep["agree"] and (rep["criterion_passed"] != negative)
        checks.append({"check": "corollary_agreement", "presentation": name,
                       "criterion_passed": rep["criterion_passed"],
                       "stable_passed": rep["stable_passed"],
                       "negative_control": negative, "passed": ok})
    return checks


def groupoid_instance_checks(groupoids, bounds: Bounds) -> list[dict]:
    checks = []
    for name, gd in sorted(groupoids.items()):
        if not name.startswith("discrete"):
            continue
        s_size = gd.objects.size
        for nx in range(1, bounds.base + 1):
            if nx > GROUPOID_BASE_LIMIT:
                checks.append(_base_skip("groupoid_instance", name, nx))
                continue
            x = FinSet(nx)
            enum = enumerate_torsors(gd, x, x)
            ok = enum.iso_count == s_size ** nx
            match_ok = True
            for w in enum.class_reps():
                if not discrete_bundle_matches_basechange(w, bounds):
                    match_ok = False
            checks.append({"check": "groupoid_instance", "groupoid": name,
                           "base": nx, "iso_classes": enum.iso_count,
                           "expected": s_size ** nx,
                           "basechange_match": match_ok,
                           "passed": ok and match_ok})
    return checks


def discrete_bundle_matches_basechange(w, bounds: Bounds) -> bool:
    """For a discrete groupoid the induced adjunction is base change along
    the anchor-over-projection map, up to a natural isomorphism whose
    component drops the carrier factor."""
    b = w.bundle
    gd = b.action.algebra
    x = b.base
    proj_inv = b.proj.inverse()
    anchor_hat = FinFn(x, gd.objects,
                       tuple(b.action.anchor.table[proj_inv.table[v]] for v in x))
    pres = bundle_to_adjunction(w)
    basechange = pullback_presentation(anchor_hat)
    for o in slice_family(x, bounds.family_total + 1):
        lo, pb = pres.left_data(o)
        translated = basechange.left_obj(o)
        component = FinFn(lo.carrier, translated.dom,
                          tuple(wv for (_, wv) in pb.pairs))
        if not component.is_bijection():
            return False
        for k in range(lo.carrier.size):
            if lo.anchor.table[k] != translated.table[component.table[k]]:
                return False
    return True


def negative_control_check(groups, bounds: Bounds) -> dict:
    """The trivial-action/fixed-points presentation is over the base but
    must be rejected: reciprocity fails for every nontrivial group."""
    from .adjunction import FrobeniusFail

    failures = []
    for name, g in sorted_groups(groups, bounds.group_order):
        if g.order < 2:
            continue
        pres = fixedpoints_presentation(g)
        dom_objs = slice_family(TERMINAL, bounds.family_total + 1)
        # the family must reach the group's own carrier size so that a
        # non-fixed point is in scope
        cod_objs = action_family(g, max(bounds.family_carrier + 1, g.order))
        try:
            adjunction_to_bundle(pres, dom_objs, cod_objs)
            failures.append({"group": name, "reason": "accepted"})
        except FrobeniusFail:
            pass
    return {"check": "fixedpoints_rejected", "passed": not failures,
            "witnesses": failures}


# glue -----------------------------------------------------------------------

def all_descent_data(kp: Pullback, y_size: int):
    """Every descent datum along the map f of the kernel pair kp (the
    pullback of f with itself) with a total space of the given size:
    all slices over the total space whose fibre sizes match within each
    fibre of f, with every coherent gluing family.  A family is fixed by a
    bijection from the fibre over the least point of each fibre of f (its
    root) to the fibre over every other point of it; the gluing from p1 to
    p2 goes back to the root and out again.  The data over one slice share
    its descent shape, and every shape holds kp."""
    f = kp.f
    p_size = f.dom.size
    y = FinSet(y_size)
    base_fibers: dict[int, list[int]] = {}
    for p in range(p_size):
        base_fibers.setdefault(f.table[p], []).append(p)
    others = [p for xval in sorted(base_fibers) for p in base_fibers[xval][1:]]
    for p_table in itertools.product(range(p_size), repeat=y_size):
        fiber = {p: [yv for yv in range(y_size) if p_table[yv] == p]
                 for p in range(p_size)}
        ok = all(len(fiber[p1]) == len(fiber[p2])
                 for p1 in range(p_size) for p2 in range(p_size)
                 if f.table[p1] == f.table[p2])
        if not ok:
            continue
        shape = descent_pullbacks(kp, FinFn(y, f.dom, p_table))
        options = [list(itertools.permutations(fiber[p])) for p in others]
        for combo in itertools.product(*options):
            # image[p][i] is the point over p glued to the i-th point over
            # its root; slot inverts it
            image = {ps[0]: fiber[ps[0]] for ps in base_fibers.values()}
            image.update(zip(others, combo))
            slot = {p: {yv: i for i, yv in enumerate(pts)} for p, pts in image.items()}
            yield descent_datum(shape, lambda p1, p2, yv: image[p2][slot[p1][yv]])


def glue_checks(bounds: Bounds, max_p: int = 4, max_y: int = 4) -> list[dict]:
    checks = []
    for nx in range(1, bounds.base + 1):
        for np in range(1, max_p + 1):
            for f in all_functions(FinSet(np), FinSet(nx)):
                if not f.is_surjection():
                    continue
                kp = pullback(f, f)
                count = 0
                failures = []
                for ny in range(max_y + 1):
                    for d in all_descent_data(kp, ny):
                        glued = glue_descent_data(f, d)
                        if glued.pullback.carrier.size != d.over.dom.size:
                            failures.append({"f": list(f.table), "y": ny})
                        witness = intertwining_witness(d, glued)
                        if witness is not None:
                            failures.append({"f": list(f.table), "y": ny,
                                             "reason": "glue mismatch",
                                             "at": list(witness)})
                        count += 1
                _, roundtrip_failures = descent_roundtrip(kp, max_y)
                arises = not roundtrip_failures
                check = {"check": "descent_gluing", "f": list(f.table),
                         "base": nx, "data": count,
                         "essentially_surjective": arises,
                         "passed": not failures and arises}
                if not check["passed"]:
                    check["witnesses"] = (failures + roundtrip_failures)[:3]
                checks.append(check)
    return checks
