"""Command-line driver: fixture ingestion, suite execution, enumeration
and JSON report emission.

Subcommands: verify | enumerate | theorem | glue.  Reports are
deterministic for a fixed configuration apart from the elapsed_s field;
the exit code is 0 exactly when no check failed.  Every entry has the one
shape of suites.py; a witness that is not a JSON value is written as its
repr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .algebra import AlgebraError, group_from_json, groupoid_from_json
from .suites import (
    Bounds,
    _failed,
    _outcome,
    _subject,
    enumerate_checks,
    glue_checks,
    theorem_checks,
    verify_checks,
)
from .torsor import bundle_from_json


class ParseError(Exception):
    """The witness is what the JSON reader reported."""

    def __init__(self, path, detail):
        super().__init__("%s: %s" % (path, detail))
        self.witness = detail


class MissingAlgebra(Exception):
    """A bundle's algebra fixture is missing or was rejected; the witness
    is [reference, "missing" or "rejected"]."""

    def __init__(self, ref, reason):
        super().__init__("algebra %s is %s" % (ref, reason))
        self.witness = [ref, reason]


def _load_json(path: Path) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(path, str(exc))
    if not isinstance(data, dict):
        raise ParseError(path, "not a JSON object")
    return data


def load_fixtures(fixtures_dir: Path):
    """Read groups, groupoids and bundles from the fixture layout.  A
    fixture that parses but fails validation, and a missing directory of
    the layout, become failed check entries instead of aborting the run."""
    groups, groupoids, bundles, failures = {}, {}, {}, []

    def record(path, exc):
        failures.append(_failed("fixture", exc, fixture=str(path)))

    dirs = [fixtures_dir] if not fixtures_dir.is_dir() else [
        fixtures_dir / sub for sub in ("groups", "groupoids", "bundles")]
    for path in dirs:
        if not path.is_dir():
            record(path, NotADirectoryError("no such fixture directory"))
    for sub, parse, into in (("groups", group_from_json, groups),
                             ("groupoids", groupoid_from_json, groupoids)):
        for path in sorted((fixtures_dir / sub).glob("*.json")):
            try:
                into[path.stem] = parse(_load_json(path))
            except (ParseError, AlgebraError, ValueError, KeyError) as exc:
                record(path, exc)
    for path in sorted((fixtures_dir / "bundles").glob("*.json")):
        try:
            data = _load_json(path)
            ref = data["action"]["algebra"] if isinstance(data["action"], dict) else None
            if not isinstance(ref, str):
                raise ValueError("the bundle's action names no algebra")
            kind, _, name = ref.partition("/")
            alg = {"groups": groups, "groupoids": groupoids}.get(kind, {}).get(name)
            if alg is None:
                rejected = kind in ("groups", "groupoids") and \
                    (fixtures_dir / kind / (name + ".json")).is_file()
                raise MissingAlgebra(ref, "rejected" if rejected else "missing")
            bundles[path.stem] = bundle_from_json(data, alg)
        except (ParseError, AlgebraError, ValueError, KeyError, MissingAlgebra) as exc:
            record(path, exc)
    return groups, groupoids, bundles, failures


def build_report(command: str, bounds: Bounds, checks: list[dict],
                 elapsed: float) -> dict:
    return {"command": command,
            "bounds": bounds.to_json(),
            "checks": checks,
            "all_passed": all(_outcome(c) != "FAIL" for c in checks),
            "elapsed_s": round(elapsed, 3)}


def run_verify(fixtures_dir: Path, bounds: Bounds) -> dict:
    start = time.perf_counter()
    groups, groupoids, bundles, failures = load_fixtures(fixtures_dir)
    checks = failures + verify_checks(groups, groupoids, bundles, bounds)
    return build_report("verify", bounds, checks, time.perf_counter() - start)


def run_enumerate(fixtures_dir: Path, bounds: Bounds) -> dict:
    start = time.perf_counter()
    groups, groupoids, bundles, failures = load_fixtures(fixtures_dir)
    checks = failures + enumerate_checks(groups, groupoids, bounds)
    return build_report("enumerate", bounds, checks, time.perf_counter() - start)


def run_theorem_suite(fixtures_dir: Path, bounds: Bounds) -> dict:
    start = time.perf_counter()
    groups, groupoids, bundles, failures = load_fixtures(fixtures_dir)
    checks = failures + theorem_checks(groups, groupoids, bounds)
    return build_report("theorem", bounds, checks, time.perf_counter() - start)


def run_glue(fixtures_dir: Path, bounds: Bounds) -> dict:
    start = time.perf_counter()
    checks = glue_checks(bounds)
    return build_report("glue", bounds, checks, time.perf_counter() - start)


COMMANDS = {"verify": run_verify, "enumerate": run_enumerate,
            "theorem": run_theorem_suite, "glue": run_glue}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finbundles",
        description="Exhaustive law checking for finite principal bundles")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--fixtures", default="fixtures", type=Path)
    parser.add_argument("--bound-group", type=int, default=4)
    parser.add_argument("--bound-carrier", type=int, default=6)
    parser.add_argument("--bound-base", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--json", action="store_true",
                        help="emit the full JSON report on stdout")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    for name, value in (("bound-group", args.bound_group),
                        ("bound-carrier", args.bound_carrier),
                        ("bound-base", args.bound_base)):
        if value <= 0:
            print("error: --%s must be positive" % name, file=sys.stderr)
            return 2
    bounds = Bounds(group_order=args.bound_group, carrier=args.bound_carrier,
                    base=args.bound_base, seed=args.seed)
    report = COMMANDS[args.command](args.fixtures, bounds)
    text = json.dumps(report, indent=2, sort_keys=True, default=repr)
    if args.out is not None:
        args.out.write_text(text + "\n")
    if args.json or args.out is None:
        print(text)
    else:
        for check in report["checks"]:
            print("%-28s %-24s %s" % (check["check"], _subject(check), _outcome(check)))
        print("all_passed:", report["all_passed"])
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
