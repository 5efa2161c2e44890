"""Failure entries of the check suites, fed broken inputs: each entry must
fail for the stated reason and carry the witness of what it caught."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from finbundles import adjunction, catalog, suites
from finbundles.finset import FinFn, FinSet, IsoCertificate, NotInverse
from finbundles.algebra import all_actions, arrows_action, untwist_iso
from finbundles.torsor import DivisionLawFail, division_map, enumerate_torsors, trivial_torsor
from finbundles.adjunction import tensor
from finbundles.suites import (
    Bounds,
    _tensor_self_iso_ok,
    discrete_bundle_matches_basechange,
    psi_laws_check,
    sigma_frobenius_check,
    theorem_checks,
    untwist_check,
)

Z2 = catalog.cyclic(2)
Z3 = catalog.cyclic(3)
# z3 with every element its own inverse: the multiplication is a group's,
# so its actions and torsors are genuine, but the inverse table is wrong
BAD_INV_Z3 = replace(Z3, inv=FinFn.identity(FinSet(3)))


def test_family_too_large_is_a_failed_entry():
    checks = theorem_checks({"v4": catalog.klein_four()}, {},
                            Bounds(group_order=4, carrier=1, family_carrier=3))
    assert checks[0] == {"check": "sigma_stably_frobenius", "group": "v4",
                         "error": "FamilyTooLarge", "witness": 38320, "passed": False}
    # the remaining checks still ran
    assert [c["check"] for c in checks[1:]] == ["corollary_negative_controls",
                                                "fixedpoints_rejected"]
    assert checks[-1]["passed"]


def test_psi_laws_failure_keeps_the_division_witness():
    rep = psi_laws_check({"bad": BAD_INV_Z3}, max_order=3, max_base=1)
    assert not rep["passed"]
    w = enumerate_torsors(BAD_INV_Z3, FinSet(1), FinSet(3)).witnesses[0]
    with pytest.raises(DivisionLawFail) as caught:
        division_map(w)
    assert rep["witnesses"][0] == {"group": "bad", "base": 1,
                                   "error": "right translation law fails",
                                   "witness": caught.value.witness}
    assert caught.value.witness == (1, 0, 0)


def test_untwist_failure_keeps_the_certificate_witness():
    rep = untwist_check({"bad": BAD_INV_Z3}, max_order=3, max_carrier=3)
    assert not rep["passed"]
    entry = rep["witnesses"][0]
    assert entry["error"] == "NotInverse"
    i, j = entry["witness"]
    assert i != j
    # the witness is a point the certificate's backward map fails to
    # send home: rebuild the first failing case and look
    action = next(a for a in all_actions(BAD_INV_Z3, FinSet(3))
                  if a.act != tuple((0, 1, 2) for _ in range(3)))
    with pytest.raises(NotInverse) as caught:
        untwist_iso(action)
    assert caught.value.witness == (i, j)


def test_iso_certificate_names_the_moved_point():
    f = FinFn(FinSet(2), FinSet(2), (1, 0))
    with pytest.raises(NotInverse) as caught:
        IsoCertificate(f, FinFn.identity(FinSet(2)))
    assert caught.value.witness == (0, 1)
    with pytest.raises(ValueError):
        IsoCertificate(f, FinFn(FinSet(2), FinSet(1), (0, 0)))


def test_sigma_frobenius_failure_names_the_missed_point(monkeypatch):
    # a "trivial" action on two points that z2 actually swaps: the orbits
    # of X x A are then fewer than X x orbits(A)
    real = adjunction.trivial_action

    def twisted(g, x):
        if x.size != 2:
            return real(g, x)
        return arrows_action(g)

    monkeypatch.setattr(adjunction, "trivial_action", twisted)
    rep = sigma_frobenius_check({"z2": Z2}, max_order=2, max_x=2, max_carrier=1)
    assert not rep["passed"]
    assert rep["cases"] == 6
    # A empty maps bijectively; A = one point has one orbit against two
    assert rep["witnesses"] == [{"group": "z2", "cod_obj": "slice(total=2,proj=[0, 0])",
                                 "dom_obj": "action(carrier=1)",
                                 "witness": ("missed", 1)}]


def test_tensor_self_iso_checks_the_base():
    # kills the mutant that never fails the "over the base" loop: the
    # comparison is a bijection, since it depends on the action alone,
    # but the unvalidated bundle's projection is not invariant, so the
    # comparison moves a point to another fibre
    w = trivial_torsor(Z2, FinSet(1))
    action = w.bundle.action
    t = tensor(action, arrows_action(Z2))
    assert _tensor_self_iso_ok(w, t)
    split = SimpleNamespace(bundle=SimpleNamespace(
        action=action, base=FinSet(2), proj=FinFn(action.carrier, FinSet(2), (0, 1))))
    assert not _tensor_self_iso_ok(split, t)


def test_basechange_match_compares_anchors(monkeypatch):
    # kills the mutant that ignores anchors: base change along the anchor
    # map followed by the swap of the two objects has the same carriers,
    # so the component is still a bijection, but every anchor moves
    gd = catalog.groupoids()["discrete2"]
    x = FinSet(2)
    w = enumerate_torsors(gd, x, x).class_reps()[0]
    bounds = Bounds()
    assert discrete_bundle_matches_basechange(w, bounds)
    real = suites.pullback_presentation
    swap = FinFn(gd.objects, gd.objects, (1, 0))
    monkeypatch.setattr(suites, "pullback_presentation", lambda f: real(f.then(swap)))
    assert not discrete_bundle_matches_basechange(w, bounds)
