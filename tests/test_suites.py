"""Failure entries of the check suites, fed broken inputs: each entry must
fail for the stated reason and carry the witness of what it caught."""

import json
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from finbundles import adjunction, catalog, suites
from finbundles.finset import FinFn, FinSet, IsoCertificate, NotInverse
from finbundles.algebra import all_actions, arrows_action, untwist_iso
from finbundles.torsor import DivisionLawFail, division_map, enumerate_torsors, trivial_torsor
from finbundles.adjunction import corrupt_counit, tensor
from finbundles.categories import FamilyTooLarge
from finbundles.cli import main
from finbundles.suites import (
    Bounds,
    _basechange_witness,
    _tensor_self_iso_witness,
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
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_family_too_large_is_a_failed_entry():
    checks = theorem_checks({"v4": catalog.klein_four()}, {},
                            Bounds(group_order=4, carrier=1, family_carrier=3))
    assert checks[0] == {"check": "sigma_stably_frobenius", "group": "v4",
                         "error": "FamilyTooLarge", "witness": 38320, "passed": False}
    # the remaining checks still ran
    assert [c["check"] for c in checks[1:]] == ["corollary_negative_controls",
                                                "fixedpoints_rejected"]
    assert checks[-1]["passed"]


def test_fixed_points_family_too_large_is_a_failed_entry():
    # the control's family pairs 19 slices of a point with the 1,116
    # actions of z2 on at most 8 points, over the cap of 20,000
    rep = suites.negative_control_check({"z2": Z2}, Bounds(family_carrier=7, family_total=17))
    assert rep == {"check": "fixedpoints_rejected", "group": "z2",
                   "error": "FamilyTooLarge", "witness": 21204, "passed": False}


def test_fixed_points_family_too_large_to_list_is_a_failed_entry(monkeypatch):
    # a family refused while it is listed fails the entry with its size,
    # as one too large to check does
    def refuse(algebra, max_carrier):
        raise FamilyTooLarge("family too large to list", 172368)

    monkeypatch.setattr(suites, "action_family", refuse)
    rep = suites.negative_control_check({"z2": Z2}, Bounds())
    assert rep == {"check": "fixedpoints_rejected", "group": "z2",
                   "error": "FamilyTooLarge", "witness": 172368, "passed": False}


def test_torsor_instance_family_too_large_is_a_failed_entry():
    # sliced at the arrows action of z2, the slices of a point with at
    # most 11 points have 2^0 + ... + 2^11 maps into R b, over the cap of
    # 4,000 structure morphisms
    bounds = Bounds(family_total=11)
    rep = suites.theorem_torsor_checks(trivial_torsor(Z2, FinSet(1)), bounds)
    assert rep == {"check": "theorem_roundtrip", "group_order": 2, "base": 1, "carrier": 2,
                   "passed": False, "error": "FamilyTooLarge", "witness": 4000}
    checks = theorem_checks({"z2": Z2}, {}, replace(bounds, base=1))
    assert checks[0] == {"check": "theorem_suite_group", "group": "z2", "base": 1,
                         "torsors": 1, "passed": False, "error": "FamilyTooLarge",
                         "witness": {"torsor": 0, "witness": 4000}}


def test_corollary_family_too_large_is_a_failed_entry():
    checks = suites.corollary_checks({"z2": Z2}, Bounds(base=1, family_total=11))
    names = ["z2/x1"] + ["z2/x1/corrupt%d" % style for style in range(1, 6)]
    assert checks == [{"check": "corollary_agreement", "presentation": name,
                       "negative_control": name != "z2/x1", "passed": False,
                       "error": "FamilyTooLarge", "witness": 4000} for name in names]


def test_corollary_negative_control_does_not_follow_the_fixture_name():
    # a genuine presentation whose group fixture is named like a corrupted
    # one is still a positive case, and the five corrupted copies of it
    # are still the negative controls
    checks = suites.corollary_checks({"corrupted_z2": Z2}, Bounds(base=1))
    assert [(c["presentation"], c["negative_control"], c["passed"]) for c in checks] == \
        [("corrupted_z2/x1", False, True)] + \
        [("corrupted_z2/x1/corrupt%d" % style, True, True) for style in range(1, 6)]


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


def test_sigma_frobenius_failure_names_the_moved_point(monkeypatch):
    # a "trivial" action on two points that z2 actually swaps: the orbits
    # of X x A would be fewer than X x orbits(A), and the record of R X
    # fails first, naming the arrow and the point it moves
    real = adjunction.trivial_action

    def twisted(g, x):
        if x.size != 2:
            return real(g, x)
        return arrows_action(g)

    monkeypatch.setattr(adjunction, "trivial_action", twisted)
    rep = sigma_frobenius_check({"z2": Z2}, max_order=2, max_x=2, max_carrier=1)
    assert not rep["passed"]
    assert rep["cases"] == 6
    # the twisted X fails with every A, the empty one included: the arrow
    # 1 moves the point 0
    assert rep["witnesses"] == [{"group": "z2", "cod_obj": "slice(total=2,proj=[0, 0])",
                                 "dom_obj": "action(carrier=%d)" % n,
                                 "error": "NotTrivial", "witness": (1, 0)} for n in (0, 1)]
    assert rep["error"] == "NotTrivial"


def test_tensor_self_iso_checks_the_base():
    # kills the mutant that never fails the "over the base" loop: the
    # comparison is a bijection, since it depends on the action alone,
    # but the unvalidated bundle's projection is not invariant, so the
    # comparison moves a point to another fibre
    w = trivial_torsor(Z2, FinSet(1))
    action = w.bundle.action
    t = tensor(action, arrows_action(Z2))
    assert _tensor_self_iso_witness(w, t) is None
    split = SimpleNamespace(bundle=SimpleNamespace(
        action=action, base=FinSet(2), proj=FinFn(action.carrier, FinSet(2), (0, 1))))
    assert _tensor_self_iso_witness(split, t) is not None


def test_basechange_match_compares_anchors(monkeypatch):
    # kills the mutant that ignores anchors: base change along the anchor
    # map followed by the swap of the two objects has the same carriers,
    # so the component is still a bijection, but every anchor moves
    gd = catalog.groupoids()["discrete2"]
    x = FinSet(2)
    w = enumerate_torsors(gd, x, x).class_reps()[0]
    bounds = Bounds()
    assert _basechange_witness(w, bounds) is None
    real = suites.pullback_presentation
    swap = FinFn(gd.objects, gd.objects, (1, 0))
    monkeypatch.setattr(suites, "pullback_presentation", lambda f: real(f.then(swap)))
    assert _basechange_witness(w, bounds) is not None


# The gate: every check name a report can contain, made to fail on purpose.
CHECK_NAMES = {
    "fixture", "group_axioms", "groupoid_axioms", "bundle_torsor", "untwist_certificates",
    "sigma_frobenius", "psi_laws", "descent_roundtrip", "torsor_count",
    "groupoid_bundle_count", "theorem_suite_group", "sigma_stably_frobenius",
    "corollary_negative_controls", "corollary_agreement", "groupoid_instance",
    "fixedpoints_rejected", "descent_gluing"}


def _cli_checks(capsys, *args) -> list[dict]:
    assert main([*args, "--json"]) == 1
    return json.loads(capsys.readouterr().out)["checks"]


def test_every_failed_entry_names_its_error_and_witness(tmp_path, monkeypatch, capsys):
    entries = []
    # corrupted fixtures: an unreadable group, a group with a wrong inverse
    # table (so the bundles over it lose their algebra), a bundle whose
    # action does not move a point, and a missing directory
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    (root / "groups" / "broken.json").write_text("{not json")
    z3 = json.loads((root / "groups" / "z3.json").read_text())
    (root / "groups" / "z3.json").write_text(json.dumps(dict(z3, inv=[0, 1, 2])))
    z2_self = json.loads((root / "bundles" / "z2_self.json").read_text())
    z2_self["action"]["act"][1] = [0, 1]
    (root / "bundles" / "z2_self.json").write_text(json.dumps(z2_self))
    shutil.rmtree(root / "groupoids")
    entries += _cli_checks(capsys, "verify", "--fixtures", str(root))
    # nothing in bounds: the families that checked nothing fail
    empty = tmp_path / "empty"
    for sub in ("groups", "groupoids", "bundles"):
        (empty / sub).mkdir(parents=True)
    entries += _cli_checks(capsys, "verify", "--fixtures", str(empty))
    entries += _cli_checks(capsys, "theorem", "--fixtures", str(FIXTURES), "--bound-group", "1")
    # unvalidated tables never pass load_fixtures, so they go in directly
    entries += suites.verify_checks({"bad": BAD_INV_Z3}, {"bad": BAD_INV_Z3}, {}, Bounds())
    real_enumerate = suites.enumerate_torsors
    real_sigma = suites.sigma_presentation
    real_pullback = suites.pullback_presentation
    real_bundle = suites.bundle_to_adjunction

    def miscount(*args, **kwargs):
        # one structure too many, and the last class dropped
        enum = real_enumerate(*args, **kwargs)
        return replace(enum, structures=enum.structures + 1, iso_classes=enum.iso_classes[:-1])

    with monkeypatch.context() as patch:
        patch.setattr(suites, "enumerate_torsors", miscount)
        entries += suites.enumerate_checks({"z2": Z2}, catalog.groupoids(), Bounds(base=1))
    with monkeypatch.context() as patch:
        # a gluing that loses the total space, then one that moves a point
        patch.setattr(suites, "glue_descent_data",
                      lambda f, d: SimpleNamespace(result=FinFn(FinSet(0), f.cod, ())))
        entries.append(suites.descent_roundtrip_check(max_total=1, max_base=1))
    with monkeypatch.context() as patch:
        patch.setattr(suites, "intertwining_witness", lambda d, glued: (0, 0))
        entries += suites.glue_checks(Bounds(base=1), max_p=1, max_y=1)
    with monkeypatch.context() as patch:
        # corrupted counits: the theorem, the sigma adjunction's stable
        # reciprocity and the corollary's positive presentations fail; a
        # genuine bundle's adjunction stands in for the fixed points one
        patch.setattr(suites, "bundle_to_adjunction", lambda w: corrupt_counit(real_bundle(w), 1))
        patch.setattr(suites, "sigma_presentation", lambda g: corrupt_counit(real_sigma(g), 1))
        patch.setattr(suites, "presentation",
                      lambda P, proj, name: real_bundle(trivial_torsor(P.algebra, FinSet(1))))
        entries += theorem_checks({"z2": Z2}, {}, Bounds(group_order=2, base=1))
    with monkeypatch.context() as patch:
        swap = FinFn(FinSet(2), FinSet(2), (1, 0))
        patch.setattr(suites, "pullback_presentation", lambda f: real_pullback(f.then(swap)))
        entries += suites.groupoid_instance_checks(
            {"discrete2": catalog.groupoids()["discrete2"]}, Bounds(base=1))
    failed = [e for e in entries if "skipped" not in e and not e["passed"]]
    assert {e["check"] for e in failed} == CHECK_NAMES
    for entry in failed:
        assert isinstance(entry["error"], str), entry
        assert entry["witness"] is not None, entry
        json.dumps(entry, default=repr)
