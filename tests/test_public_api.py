"""Every public function and method of the package is either reached by a
subcommand or listed, with its reason, in README's "Public API" section,
and that section lists nothing a subcommand calls or that is gone."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import finbundles
from finbundles import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# every subcommand, at bounds small enough to run under the profiler in
# about a second; none of the bounds this exercises gates a function
RUNS = (
    ["verify", "--bound-base", "1"],
    ["enumerate", "--bound-base", "1"],
    ["glue", "--bound-base", "1"],
    ["theorem", "--bound-group", "2", "--bound-base", "1"],
)


def _modules() -> dict:
    """The package and each of its modules, by the name README uses."""
    mods = {"finbundles": finbundles}
    for info in pkgutil.iter_modules(finbundles.__path__):
        mods[info.name] = importlib.import_module("finbundles." + info.name)
    return mods


def _public_functions() -> dict:
    """The code object of every public function of a module, and of every
    public method (plain, static, class or property) of a class a module
    defines, mapped to its name as README writes it."""
    found = {}
    for mod_name, mod in _modules().items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if attr is not None and attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(member) if callable(member) else member
                if inspect.isfunction(member):
                    dotted = (mod_name, name) if attr is None else (mod_name, name, attr)
                    found[member.__code__] = ".".join(dotted)
    return found


def _called_by_subcommands() -> set:
    """The code objects that the subcommands call, each run from cold
    caches, so that no memoised result hides a call."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for args in RUNS:
        finbundles.clear_caches()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(args + ["--fixtures", str(FIXTURES)])
        finally:
            sys.setprofile(None)
        assert rc == 0, args
    finbundles.clear_caches()
    return called


def _listed_names() -> set:
    """The backticked names in README's "Public API" section that start
    with a module of the package."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    modules = "|".join(_modules())
    return set(re.findall(r"`((?:%s)(?:\.\w+)+)" % modules, section))


def _resolve(name: str):
    """What a listed name names, or None when it names nothing."""
    first, *rest = name.split(".")
    obj = _modules()[first]
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_public_functions_are_reached_or_listed():
    functions = _public_functions()
    called = _called_by_subcommands()
    listed = _listed_names()
    by_name = {name: code for code, name in functions.items()}
    # the scan sees the checks a subcommand runs and the names README
    # lists, so an empty scan cannot pass by accident
    assert {"adjunction.check_frobenius", "adjunction.presentation",
            "torsor.glue_descent_data", "categories.ActionCategory.mor",
            "categories.SliceOverCategory.objects_over",
            "finbundles.clear_caches"} <= {functions[c] for c in called if c in functions}
    assert {"adjunction.check_naturality", "finset.coequalizer",
            "categories.ActionCategory.product", "categories.SliceCategory.pullback",
            "categories.SliceOverCategory.product"} <= listed
    unlisted = sorted(name for code, name in functions.items()
                      if code not in called and name not in listed)
    listed_but_called = sorted(name for name in listed
                               if name in by_name and by_name[name] in called)
    gone = sorted(name for name in listed if _resolve(name) is None)
    assert (unlisted, listed_but_called, gone) == ([], [], [])
