import functools
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import finbundles
from finbundles import adjunction, algebra, catalog, suites
from finbundles.algebra import arrows_action
from finbundles.adjunction import bundle_to_adjunction, corrupt_counit
from finbundles.cli import run_theorem_suite
from finbundles.finset import FinSet
from finbundles.suites import Bounds, theorem_torsor_checks
from finbundles.torsor import trivial_torsor

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _module_caches() -> dict:
    """Every functools cache bound to a name in a finbundles module."""
    found = {}
    for info in pkgutil.iter_modules(finbundles.__path__):
        mod = importlib.import_module("finbundles." + info.name)
        for attr, obj in vars(mod).items():
            if isinstance(obj, functools._lru_cache_wrapper):
                found[obj.__module__ + "." + obj.__qualname__] = obj
    return found


def test_clear_caches_empties_every_module_cache():
    run_theorem_suite(FIXTURES, Bounds(group_order=2, base=1))
    # presentations build no tensors, so the tensor cache is filled directly
    z3 = catalog.cyclic(3)
    adjunction.tensor(trivial_torsor(z3, FinSet(2)).bundle.action, arrows_action(z3))
    caches = _module_caches()
    assert {"finbundles.algebra.sigma", "finbundles.algebra.action_product"} <= set(caches)
    assert adjunction._tensor_cache
    finbundles.clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == \
        {name: 0 for name in caches}
    assert len(adjunction._tensor_cache) == 0


def test_theorem_report_does_not_depend_on_cache_state():
    bounds = Bounds(group_order=2, base=1)
    finbundles.clear_caches()
    cold = run_theorem_suite(FIXTURES, bounds)
    warm = run_theorem_suite(FIXTURES, bounds)
    finbundles.clear_caches()
    cold_again = run_theorem_suite(FIXTURES, bounds)
    bodies = []
    for report in (cold, warm, cold_again):
        report.pop("elapsed_s")
        bodies.append(json.dumps(report, sort_keys=True))
    assert bodies[0] == bodies[1] == bodies[2]


def test_derived_presentations_reuse_component_caches():
    pres = bundle_to_adjunction(trivial_torsor(catalog.cyclic(3), FinSet(2)))
    bad = corrupt_counit(pres, 1)
    for name in ("left_obj", "left_mor", "right_obj", "right_mor", "unit_at",
                 "over_iso_at"):
        assert getattr(bad, name) is getattr(pres, name), name
    assert bad.counit_at is not pres.counit_at


def assert_module_caches_empty():
    assert algebra.sigma.cache_info().currsize == 0
    assert algebra.action_product.cache_info().currsize == 0
    assert len(adjunction._tensor_cache) == 0


def test_theorem_instance_empties_the_module_caches_when_it_returns():
    w = trivial_torsor(catalog.cyclic(3), FinSet(2))
    assert theorem_torsor_checks(w, Bounds())["passed"]
    assert_module_caches_empty()


def test_theorem_instance_empties_the_module_caches_when_it_raises(monkeypatch):
    def fail(w, t):
        assert adjunction._tensor_cache
        raise RuntimeError("sub-check failed")

    monkeypatch.setattr(suites, "_tensor_self_iso_witness", fail)
    w = trivial_torsor(catalog.cyclic(3), FinSet(2))
    with pytest.raises(RuntimeError):
        theorem_torsor_checks(w, Bounds())
    assert_module_caches_empty()
