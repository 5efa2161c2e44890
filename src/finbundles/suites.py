"""Check suites: reusable bundles of law checks over explicit bounds.
The CLI wraps these in reports; the acceptance tests call them directly.

Every report entry has one shape, built only by _passed, _failed and
_skipped: "check" names the family and the other fields name the case
and its bounds.  A passed entry has "passed": true.  A failed one has
"passed": false, an "error" naming the typed error or the law that
failed, and the "witness" of what it caught (the bounds, when no case
was in them).  A skipped one gives its reason under "skipped" and has
no "passed".  The CLI's "fixture" entries come from the same builders:
a fixture that cannot be read or validated, a broken group table
included, is a failed "fixture" entry and never reaches group_axioms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

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
    untwist_iso,
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
    FrobeniusFail,
    NotOverBase,
    RoundTripFail,
    _not_bijective,
    adjunction_to_bundle,
    bundle_to_adjunction,
    check_frobenius,
    check_stably_frobenius,
    check_triangles,
    corollary_slice_criterion,
    corrupt_counit,
    presentation,
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
        return asdict(self)


def _passed(check: str, **fields) -> dict:
    return {"check": check, **fields, "passed": True}


def _failed(check: str, error, witness=None, **fields) -> dict:
    """error names what failed, or is the caught exception: then its class
    name is the error, and its witness, else its message, the witness."""
    if isinstance(error, Exception):
        witness = getattr(error, "witness", None)
        error, witness = type(error).__name__, str(error) if witness is None else witness
    return {"check": check, **fields, "passed": False, "error": error, "witness": witness}


def _skipped(check: str, measure: str, limit: str, bound: int, **fields) -> dict:
    return {"check": check, **fields,
            "skipped": "%s %d exceeds the %s %d" % (measure, fields[measure], limit, bound)}


def _tally(check: str, count: int, scope: dict, failures: list, error=None,
           **fields) -> dict:
    """A family's entry, its first failure records as "witnesses": failed
    on the first record (error names it if the record does not), or on the
    bounds scope when no case was in them."""
    fields["witnesses"] = failures[:3]
    if not count:
        return _failed(check, "no case in bounds", scope, **fields)
    if failures:
        return _failed(check, failures[0].get("error", error), failures[0], **fields)
    return _passed(check, **fields)


def _outcome(entry: dict) -> str:
    return "skipped" if "skipped" in entry else "ok" if entry["passed"] else "FAIL"


def _subject(entry: dict) -> str:
    return next((str(entry[k]) for k in ("fixture", "group", "groupoid", "presentation", "f")
                 if k in entry), "")


def point_slice(n: int) -> FinFn:
    return FinFn.constant(FinSet(n), TERMINAL, 0)


def sorted_groups(gs: dict, max_order: int) -> list:
    return [(name, g) for name, g in sorted(gs.items(), key=lambda kv: (kv[1].order, kv[0]))
            if g.order <= max_order]


# verify ---------------------------------------------------------------------

def verify_checks(groups, groupoids, bundles, bounds: Bounds) -> list[dict]:
    checks = []
    for check, validate, fixtures in (
            ("group_axioms", lambda g: validate_group(
                [list(r) for r in g.comp], g.ident.table[0], list(g.inv.table)), groups),
            ("groupoid_axioms", lambda g: validate_groupoid(
                g.objects.size, g.arrows.size, list(g.src.table), list(g.tgt.table),
                list(g.ident.table), [list(r) for r in g.comp], list(g.inv.table)), groupoids),
            ("bundle_torsor", lambda b: division_map(is_principal_bundle(b)), bundles)):
        for name, value in sorted(fixtures.items()):
            try:
                validate(value)
                checks.append(_passed(check, fixture=name))
            except (AlgebraError, TorsorError, ValueError) as exc:
                checks.append(_failed(check, exc, fixture=name))
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
    scope = {"group_order": max_order, "carrier": max_carrier}
    return _tally("untwist_certificates", count, scope, failures, cases=count, bounds=scope)


def sigma_frobenius_check(groups, max_order: int, max_x: int, max_carrier: int) -> dict:
    """Frobenius reciprocity of the orbit adjunction: for every set X with
    at most max_x points and every action A on at most max_carrier points,
    the canonical comparison Sigma(X_triv x A) -> X x Sigma(A) is a
    bijection."""
    reps = [(name, check_frobenius(sigma_presentation(g), slice_family(TERMINAL, max_x),
                                   action_family(g, max_carrier)))
            for name, g in sorted_groups(groups, max_order)]
    failures = [{"group": name, **w} for name, rep in reps for w in rep["witnesses"]]
    count = sum(rep["pairs"] for _, rep in reps)
    scope = {"group_order": max_order, "x": max_x, "carrier": max_carrier}
    return _tally("sigma_frobenius", count, scope, failures, "NotBijective",
                  cases=count, bounds=scope)


def psi_laws_check(groups, max_order: int, max_base: int, skipped=None) -> dict:
    """The division laws on every torsor of each group over each base.  A
    case whose carrier is above enumerate_torsors' limit is left out, and
    its skip entry is appended to skipped when that list is given."""
    count = 0
    failures = []
    for name, g in sorted_groups(groups, max_order):
        for nx in range(1, max_base + 1):
            if g.order * nx > CARRIER_LIMIT:
                if skipped is not None:
                    skipped.append(_skipped("psi_laws", "carrier", "enumeration limit",
                                            CARRIER_LIMIT, group=name, base=nx,
                                            carrier=g.order * nx))
                continue
            enum = enumerate_torsors(g, FinSet(nx), FinSet(g.order * nx))
            for w in enum.witnesses:
                try:
                    division_map(w)
                except DivisionLawFail as exc:
                    failures.append({"group": name, "base": nx, "error": str(exc),
                                     "witness": exc.witness})
                count += 1
    scope = {"group_order": max_order, "base": max_base}
    return _tally("psi_laws", count, scope, failures, torsors=count, bounds=scope)


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
    scope = {"total": max_total, "base": max_base}
    return _tally("descent_roundtrip", count, scope, failures, "glued fibre sizes differ",
                  cases=count, bounds=scope)


def descent_roundtrip(kp: Pullback, max_total: int) -> tuple[int, list[dict]]:
    """Pull every slice over the base with at most max_total points back
    along the map f of the kernel pair kp (the pullback of f with itself)
    and glue its canonical datum; the glued slice must have the slice's
    fibre sizes again.  Returns the number of slices and one witness,
    naming the slice's projection, per slice that fails."""
    f = kp.f
    cases, failures, shapes = 0, [], {}
    for nz in range(max_total + 1):
        z = FinSet(nz)
        for zp in all_functions(z, f.cod):
            glued = glue_descent_data(f, canonical_descent_datum(kp, zp, shapes))
            if glued.result.dom.size != nz or sorted(glued.result.table) != sorted(zp.table):
                failures.append({"f": list(f.table), "z": nz, "proj": list(zp.table)})
            cases += 1
    return cases, failures


# enumerate ------------------------------------------------------------------

def enumerate_checks(groups, groupoids, bounds: Bounds) -> list[dict]:
    checks = []
    for name, g in sorted_groups(groups, bounds.group_order):
        if g.order > bounds.carrier:
            checks.append(_skipped("torsor_count", "carrier", "carrier bound", bounds.carrier,
                                   group=name, base=1, carrier=g.order))
            continue
        enum = enumerate_torsors(g, TERMINAL, FinSet(g.order), max_carrier=bounds.carrier)
        expected = math.factorial(g.order - 1)
        fields = {"group": name, "base": 1, "carrier": g.order,
                  "structures": enum.structures, "iso_classes": enum.iso_count,
                  "expected_structures": expected,
                  "representatives": [{"proj": list(w.bundle.proj.table),
                                       "act": [list(r) for r in w.bundle.action.act]}
                                      for w in enum.class_reps()]}
        checks.append(_passed("torsor_count", **fields) if enum.structures == expected else
                      _failed("torsor_count", "structure count differs", enum.structures,
                              **fields))
        # release this group's witnesses before the next group's are built
        del enum
    check = "groupoid_bundle_count"
    for name, nx, expected, enum in _discrete_cases(groupoids, bounds, check, checks,
                                                    max_carrier=bounds.carrier):
        fields = {"groupoid": name, "base": nx, "iso_classes": enum.iso_count,
                  "expected": expected}
        checks.append(_passed(check, **fields) if enum.iso_count == expected else
                      _failed(check, "iso class count differs", enum.iso_count, **fields))
    return checks


# Groupoid torsors are enumerated over bases of at most this many points.
GROUPOID_BASE_LIMIT = 3


def _discrete_cases(groupoids, bounds: Bounds, check: str, checks: list, **limits):
    """(name, base, expected number of iso classes, torsor enumeration) for
    each discrete groupoid and base in bounds, in report order; a base over
    the limit gets check's skip entry in checks instead."""
    for name, gd in sorted(groupoids.items()):
        for nx in range(1, bounds.base + 1) if name.startswith("discrete") else ():
            if nx > GROUPOID_BASE_LIMIT:
                checks.append(_skipped(check, "base", "groupoid base limit",
                                       GROUPOID_BASE_LIMIT, groupoid=name, base=nx))
            else:
                x = FinSet(nx)
                yield name, nx, gd.objects.size ** nx, enumerate_torsors(gd, x, x, **limits)


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


def theorem_torsor_checks(w, bounds: Bounds, families=None) -> dict:
    """The full per-torsor theorem instance: triangle identities,
    over-base comparison, round trip, stable reciprocity and the two
    tensor identities.  A failed instance has its first failing sub-check,
    in that order, as error and that sub-check's witness; a family too
    large to check fails it with its size.  The over-base comparison is
    the round trip's first check, so its verdict is read off the round
    trip's NotOverBase witness.  families, if given, are its (slices,
    actions).  The module caches are scoped to the instance and emptied
    when it returns or raises, since their keys are this torsor's actions."""
    try:
        b = w.bundle
        alg = b.action.algebra
        x = b.base
        pres = bundle_to_adjunction(w)
        dom_objs, cod_objs = families or (slice_family(x, bounds.family_total),
                                          action_family(alg, bounds.family_carrier))
        tri = check_triangles(pres, dom_objs, cod_objs)
        over = roundtrip = None
        try:
            b2 = adjunction_to_bundle(pres, dom_objs, cod_objs)
            bundle_roundtrip_cert(w, b2)
            is_principal_bundle(b2)
        except (AdjunctionError, TorsorError) as exc:
            roundtrip = {"error": type(exc).__name__, "witness": exc.witness}
            if isinstance(exc, NotOverBase):
                over = exc.witness
        stable = check_stably_frobenius(pres, stable_slice_objects(alg, x),
                                        dom_objs, cod_objs)
        witnesses = {
            "triangles": None if tri["passed"] else tri["witnesses"],
            "over": over,
            "roundtrip": roundtrip,
            "stable": None if stable["passed"] else _stable_witness(stable),
            "tensor_self": _tensor_self_iso_witness(w, tensor(b.action, arrows_action(alg))),
            "tensor_trivial": _tensor_trivial_iso_witness(w)}
        fields = {"group_order": alg.order, "base": x.size, "carrier": b.action.carrier.size,
                  "results": {sub: v is None for sub, v in witnesses.items()}}
        sub = next((sub for sub, v in witnesses.items() if v is not None), None)
        return _passed("theorem_roundtrip", **fields) if sub is None else \
            _failed("theorem_roundtrip", sub, witnesses[sub], **fields)
    except FamilyTooLarge as exc:
        return _failed("theorem_roundtrip", exc, group_order=alg.order, base=x.size,
                       carrier=b.action.carrier.size)
    finally:
        clear_caches()


def _stable_witness(rep: dict) -> dict:
    """The reciprocity report of a failed stable check's first failing
    slice, which names the slice and its failing pairs with their verdicts;
    the stable report itself when it had no slice."""
    return next((r for r in rep["results"] if not r["passed"]), rep)


def _tensor_trivial_iso_witness(w):
    """Tensoring with a trivial action on Y collapses the carrier factor to
    its orbit set: over a point the result is the plain set, in general it
    is the product with the base.  Checked for |Y| < 4; None, or the first
    |Y| where the comparison fails, with its NotBijective witness."""
    b = w.bundle
    for y_size in range(4):
        y = FinSet(y_size)
        t = tensor(b.action, trivial_action(b.action.algebra, y))
        target = product(b.base, y)
        # the trivial action's point (o, y) has index o * |Y| + y
        pairs = map(t.rep_pair, range(t.carrier.size))
        fn = FinFn(t.carrier, target.carrier,
                   tuple(target.index(b.proj.table[p], oy % y_size) for p, oy in pairs))
        if not fn.is_bijection():
            return {"y": y_size, "witness": _not_bijective(fn)}
    return None


def _tensor_self_iso_witness(w, t):
    """tensor with the arrows action is the carrier again, over the base:
    the class of p (x) g corresponds to g^(-1).p.  None, or the comparison's
    NotBijective witness, or (k, its base point, p's) for the first class k
    it sends to another fibre."""
    b = w.bundle
    g = b.action.algebra
    table = [None] * t.carrier.size
    for k in range(t.carrier.size):
        p, h = t.rep_pair(k)
        table[k] = b.action.act[g.inverse(h)][p]
    fn = FinFn(t.carrier, b.action.carrier, tuple(table))
    if not fn.is_bijection():
        return _not_bijective(fn)
    for k in range(t.carrier.size):
        p, h = t.rep_pair(k)
        if b.proj.table[fn.table[k]] != b.proj.table[p]:
            return k, b.proj.table[fn.table[k]], b.proj.table[p]
    return None


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
                checks.append(_failed("theorem_suite_group", exc, group=name, base=nx,
                                      torsors=0))
                continue
            fams = slice_family(x, bounds.family_total), action_family(g, bounds.family_carrier)
            per = [theorem_torsor_checks(w, bounds, fams) for w in enum.witnesses]
            # the first failing torsor, by its index in enumeration order
            i = next((i for i, c in enumerate(per) if not c["passed"]), None)
            checks.append(
                _passed("theorem_suite_group", group=name, base=nx, torsors=len(per))
                if i is None else
                _failed("theorem_suite_group", per[i]["error"],
                        {"torsor": i, "witness": per[i]["witness"]},
                        group=name, base=nx, torsors=len(per)))
    for name, g in sorted_groups(groups, bounds.group_order):
        try:
            rep = check_stably_frobenius(
                sigma_presentation(g), [point_slice(n) for n in range(1, 4)],
                action_family(g, bounds.family_carrier + 1),
                slice_family(TERMINAL, bounds.family_total + 1))
        except FamilyTooLarge as exc:
            checks.append(_failed("sigma_stably_frobenius", exc, group=name))
            continue
        checks.append(_passed("sigma_stably_frobenius", group=name) if rep["passed"] else
                      _failed("sigma_stably_frobenius", "not stably Frobenius",
                              _stable_witness(rep), group=name))
    checks.extend(corollary_checks(groups, bounds))
    checks.extend(groupoid_instance_checks(groupoids, bounds))
    checks.append(negative_control_check(groups, bounds))
    return checks


def corollary_checks(groups, bounds: Bounds) -> list[dict]:
    checks = []
    # (name, presentation, whether it is a negative control)
    presentations = []
    for name, g in sorted_groups(groups, bounds.group_order):
        for nx in range(1, bounds.base + 1):
            if g.order * nx > bounds.carrier:
                continue
            presentations.append((name + "/x%d" % nx,
                                  bundle_to_adjunction(trivial_torsor(g, FinSet(nx))), False))
    eligible = [(name, pres) for name, pres, _ in presentations
                if pres.cod.algebra.order >= 2]
    if not eligible:
        checks.append(_failed("corollary_negative_controls",
                              "no presentation over a nontrivial algebra is in bounds",
                              bounds.to_json()))
    else:
        for style in range(1, 6):
            name, pres = eligible[(style - 1) % len(eligible)]
            presentations.append((name + "/corrupt%d" % style, corrupt_counit(pres, style), True))
    for name, pres, negative in presentations:
        x = pres.dom.base
        alg = pres.cod.algebra
        try:
            rep = corollary_slice_criterion(pres, slice_family(x, bounds.family_total),
                                            action_family(alg, bounds.family_carrier),
                                            stable_slice_objects(alg, x))
        except FamilyTooLarge as exc:
            checks.append(_failed("corollary_agreement", exc, presentation=name,
                                  negative_control=negative))
            continue
        fields = {"presentation": name, "criterion_passed": rep["criterion_passed"],
                  "stable_passed": rep["stable_passed"], "negative_control": negative}
        if rep["agree"] and rep["criterion_passed"] != negative:
            checks.append(_passed("corollary_agreement", **fields))
            continue
        # the failing slice when only the stable check failed, else the
        # criterion's report: its failing pairs, or the pairs it passed
        witness = _stable_witness(rep["stable"]) if rep["criterion_passed"] and \
            not rep["stable_passed"] else rep["criterion"]
        error = "the criterion and the stable check disagree" if not rep["agree"] else \
            "a corrupted counit passes" if negative else "reciprocity fails"
        checks.append(_failed("corollary_agreement", error, witness, **fields))
    return checks


def groupoid_instance_checks(groupoids, bounds: Bounds) -> list[dict]:
    checks = []
    check = "groupoid_instance"
    for name, nx, expected, enum in _discrete_cases(groupoids, bounds, check, checks):
        found = ((i, _basechange_witness(w, bounds)) for i, w in enumerate(enum.class_reps()))
        mismatch = next(({"class_rep": i, "witness": m} for i, m in found if m is not None), None)
        fields = {"groupoid": name, "base": nx, "iso_classes": enum.iso_count,
                  "expected": expected, "basechange_match": mismatch is None}
        if enum.iso_count != expected:
            checks.append(_failed(check, "iso class count differs", enum.iso_count, **fields))
        elif mismatch is not None:
            checks.append(_failed(check, "not base change", mismatch, **fields))
        else:
            checks.append(_passed(check, **fields))
    return checks


def _basechange_witness(w, bounds: Bounds):
    """For a discrete groupoid the induced adjunction is base change along
    the anchor-over-projection map, up to a natural isomorphism whose
    component drops the carrier factor.  None, or the first slice where
    that fails: the component's NotBijective witness, or (k, k's anchor,
    its image's anchor) for the first point k whose anchor moves."""
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
            return {"slice": list(o.table), "witness": _not_bijective(component)}
        for k in range(lo.carrier.size):
            anchors = lo.anchor.table[k], translated.table[component.table[k]]
            if anchors[0] != anchors[1]:
                return {"slice": list(o.table), "witness": (k, *anchors)}
    return None


def negative_control_check(groups, bounds: Bounds) -> dict:
    """The trivial-action/fixed-points presentation, L_P -| R_P for P a
    point over a point, is over the base but must be rejected: reciprocity
    fails for every nontrivial group.  A family too large to check fails
    the entry with its size."""
    failures = []
    cases = 0
    for name, g in sorted_groups(groups, bounds.group_order):
        if g.order < 2:
            continue
        cases += 1
        pres = presentation(trivial_action(g, TERMINAL), FinFn.identity(TERMINAL),
                            "trivial-dashv-fixed(|G|=%d)" % g.order)
        try:
            dom_objs = slice_family(TERMINAL, bounds.family_total + 1)
            # the family must reach the group's own carrier size so that a
            # non-fixed point is in scope
            cod_objs = action_family(g, max(bounds.family_carrier + 1, g.order))
            adjunction_to_bundle(pres, dom_objs, cod_objs)
            failures.append({"group": name})
        except FrobeniusFail:
            pass
        except FamilyTooLarge as exc:
            return _failed("fixedpoints_rejected", exc, group=name)
    return _tally("fixedpoints_rejected", cases, bounds.to_json(), failures,
                  "the fixed-points presentation is accepted")


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
    xs = sorted(base_fibers)
    others = [p for xval in xs for p in base_fibers[xval][1:]]
    # the tables of each choice of fibre sizes constant on the fibres of f
    tables = []
    for m in itertools.product(*(range(y_size // len(base_fibers[xval]) + 1) for xval in xs)):
        counts = [m[xs.index(xval)] for xval in f.table]
        if sum(counts) == y_size:
            run = [()]
            for _ in range(y_size):
                run = [t + (p,) for t in run for p in range(p_size) if t.count(p) < counts[p]]
            tables += run
    for p_table in sorted(tables):
        fiber = [[] for _ in range(p_size)]
        for yv, p in enumerate(p_table):
            fiber[p].append(yv)
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
                            failures.append({"f": list(f.table), "y": ny,
                                             "reason": "glued size differs"})
                        witness = intertwining_witness(d, glued)
                        if witness is not None:
                            failures.append({"f": list(f.table), "y": ny,
                                             "reason": "glue mismatch",
                                             "at": list(witness)})
                        count += 1
                _, roundtrip_failures = descent_roundtrip(kp, max_y)
                fields = {"f": list(f.table), "base": nx, "data": count,
                          "essentially_surjective": not roundtrip_failures}
                failures += roundtrip_failures
                checks.append(
                    _passed("descent_gluing", **fields) if not failures else
                    _failed("descent_gluing", failures[0].get("reason", "not essentially surjective"),
                            failures[0], witnesses=failures[:3], **fields))
    return checks
