import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from finbundles.cli import (
    load_fixtures,
    main,
    run_enumerate,
    run_glue,
    run_theorem_suite,
    run_verify,
)
from finbundles import catalog
from finbundles.suites import Bounds, groupoid_instance_checks, theorem_checks

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_fixture_tree_loads():
    groups, groupoids, bundles, failures = load_fixtures(FIXTURES)
    assert not failures
    assert len(groups) == 14
    assert {g.order for g in groups.values()} == {1, 2, 3, 4, 5, 6, 7, 8}
    assert len(groupoids) == 5
    assert len(bundles) == 5


def test_verify_command_passes(capsys):
    code = main(["verify", "--fixtures", str(FIXTURES)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    assert report["command"] == "verify"


def test_enumerate_command_counts(capsys):
    code = main(["enumerate", "--fixtures", str(FIXTURES), "--bound-group", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    counts = {c["group"]: c for c in report["checks"] if c["check"] == "torsor_count"}
    assert counts["z2"]["structures"] == 1
    assert counts["z3"]["structures"] == 2
    assert counts["z3"]["iso_classes"] == 1
    assert counts["z1"]["structures"] == 1


def test_enumerate_records_groups_skipped_by_the_carrier_bound(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["enumerate", "--fixtures", str(FIXTURES), "--bound-group", "7",
                 "--bound-carrier", "6", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert ["torsor_count", "z7", "skipped"] in [line.split() for line in lines]
    report = json.loads(out.read_text())
    assert report["all_passed"]
    assert [c for c in report["checks"] if "skipped" in c] == [
        {"check": "torsor_count", "group": "z7", "base": 1, "carrier": 7,
         "skipped": "carrier 7 exceeds the carrier bound 6"}]
    # z6 fits and still runs; at the default bounds nothing is skipped
    assert any(c["group"] == "z6" and c["passed"] for c in report["checks"]
               if c["check"] == "torsor_count")
    assert not any("skipped" in c for c in run_enumerate(FIXTURES, Bounds())["checks"])


def test_enumerate_records_groupoid_bases_beyond_the_limit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["enumerate", "--fixtures", str(FIXTURES), "--bound-base", "5",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    counts = [(c["groupoid"], c["base"], "skipped" in c) for c in report["checks"]
              if c["check"] == "groupoid_bundle_count"]
    assert counts == [(name, nx, nx > 3) for name in ("discrete1", "discrete2", "discrete3")
                      for nx in range(1, 6)]
    assert [c for c in report["checks"] if "skipped" in c][0] == {
        "check": "groupoid_bundle_count", "groupoid": "discrete1", "base": 4,
        "skipped": "base 4 exceeds the groupoid base limit 3"}
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines.count(["groupoid_bundle_count", "discrete2", "skipped"]) == 2


def test_groupoid_instance_records_bases_beyond_the_limit():
    gd = catalog.groupoids()["discrete1"]
    checks = groupoid_instance_checks({"discrete1": gd}, Bounds(base=4))
    assert [c["passed"] for c in checks[:3]] == [True, True, True]
    assert checks[3:] == [{"check": "groupoid_instance", "groupoid": "discrete1",
                           "base": 4,
                           "skipped": "base 4 exceeds the groupoid base limit 3"}]


def test_enumerate_rejects_silly_bounds(capsys):
    code = main(["enumerate", "--fixtures", str(FIXTURES), "--bound-group", "0"])
    assert code == 2


def test_glue_command(tmp_path):
    out = tmp_path / "report.json"
    code = main(["glue", "--fixtures", str(FIXTURES), "--bound-base", "1",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]


def test_theorem_command_small_bounds(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["theorem", "--fixtures", str(FIXTURES), "--bound-group", "2",
                 "--bound-base", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    negatives = [c for c in report["checks"]
                 if c["check"] == "corollary_agreement" and c["negative_control"]]
    assert len(negatives) == 5
    assert all(not c["criterion_passed"] and not c["stable_passed"]
               for c in negatives)


def test_parse_error_reported_with_location(tmp_path):
    bad = tmp_path / "fixtures"
    (bad / "groups").mkdir(parents=True)
    (bad / "groups" / "broken.json").write_text("{not json")
    (bad / "groupoids").mkdir()
    (bad / "bundles").mkdir()
    groups, groupoids, bundles, failures = load_fixtures(bad)
    assert not groups
    assert failures[0]["error"] == "ParseError"
    assert "broken.json" in failures[0]["fixture"]
    report = run_verify(bad, Bounds())
    assert not report["all_passed"]


def test_validation_failure_becomes_failed_check(tmp_path):
    bad = tmp_path / "fixtures"
    (bad / "groups").mkdir(parents=True)
    (bad / "groupoids").mkdir()
    (bad / "bundles").mkdir()
    # mul(0,0)=1 cannot have unit 0
    (bad / "groups" / "notgroup.json").write_text(json.dumps(
        {"order": 2, "mul": [[1, 0], [0, 1]], "unit": 0, "inv": [0, 1]}))
    groups, groupoids, bundles, failures = load_fixtures(bad)
    assert not groups
    assert failures and failures[0]["error"] == "NoUnit"
    report = run_verify(bad, Bounds())
    assert not report["all_passed"]


def test_failing_fixture_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "fixtures"
    (bad / "groups").mkdir(parents=True)
    (bad / "groupoids").mkdir()
    (bad / "bundles").mkdir()
    (bad / "groups" / "notgroup.json").write_text(json.dumps(
        {"order": 2, "mul": [[1, 0], [0, 1]], "unit": 0, "inv": [0, 1]}))
    code = main(["verify", "--fixtures", str(bad)])
    capsys.readouterr()
    assert code == 1


def test_empty_fixture_dir_is_success(tmp_path):
    empty = tmp_path / "fixtures"
    (empty / "groups").mkdir(parents=True)
    (empty / "groupoids").mkdir()
    (empty / "bundles").mkdir()
    code = main(["enumerate", "--fixtures", str(empty)])
    assert code == 0


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "finbundles.cli", "enumerate",
         "--fixtures", str(FIXTURES), "--bound-group", "2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["all_passed"]


def test_reports_are_deterministic():
    b = Bounds(group_order=2, base=1)
    r1 = run_theorem_suite(FIXTURES, b)
    r2 = run_theorem_suite(FIXTURES, b)
    r1.pop("elapsed_s")
    r2.pop("elapsed_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


POOL_SHUFFLE = """
import sys
from finbundles.finset import FinFn, FinSet
# fill the FinSet/FinFn pools in another order first, so every value the
# run builds sits at another address and has another hash
junk = [bytearray(n) for n in range(1, 400)]
for n in range(12, -1, -1):
    FinFn.identity(FinSet(n))
    FinFn.constant(FinSet(n), FinSet(1), 0)
from finbundles.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_reports_do_not_depend_on_pool_addresses():
    # FinSet and FinFn hash by address, which changes from run to run;
    # no report may be ordered by such a hash
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for cmd in ("verify", "theorem"):
        args = [cmd, "--fixtures", str(FIXTURES), "--bound-group", "3",
                "--bound-base", "1", "--json"]
        reports = []
        for prefix in (["-m", "finbundles.cli"], ["-c", POOL_SHUFFLE]):
            proc = subprocess.run([sys.executable, *prefix, *args],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            report.pop("elapsed_s")
            reports.append(report)
        assert reports[0] == reports[1]


def _fixture_tree(root: Path, subdirs=("groups", "groupoids", "bundles")) -> Path:
    for sub in subdirs:
        (root / sub).mkdir(parents=True)
    return root


def test_missing_fixture_dir_is_a_failed_check(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    for command in ("verify", "enumerate", "theorem"):
        code = main([command, "--fixtures", str(missing), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1, command
        assert not report["all_passed"]
        failed = [c for c in report["checks"] if c["check"] == "fixture"]
        assert [c["fixture"] for c in failed] == [str(missing)]
        assert failed[0]["error"] == "NotADirectoryError"


def test_missing_fixture_subdirectory_is_a_failed_check(tmp_path, capsys):
    for sub in ("groups", "groupoids", "bundles"):
        root = _fixture_tree(tmp_path / sub,
                             [s for s in ("groups", "groupoids", "bundles") if s != sub])
        code = main(["enumerate", "--fixtures", str(root), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1, sub
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["fixture"] for c in failed] == [str(root / sub)]


def test_theorem_without_negative_controls_fails_without_crashing(tmp_path, capsys):
    # no group of order >= 2 is in bounds, so no presentation can be
    # corrupted into a negative control, and no fixed-points presentation
    # can be rejected
    for fixtures, bound in ((_fixture_tree(tmp_path / "empty"), "4"), (FIXTURES, "1")):
        code = main(["theorem", "--fixtures", str(fixtures), "--bound-group", bound,
                     "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["check"] for c in failed] == ["corollary_negative_controls",
                                                "fixedpoints_rejected"]
        assert failed[1]["witness"] == report["bounds"]


def test_verify_on_an_empty_tree_fails_the_checks_that_checked_nothing(tmp_path, capsys):
    code = main(["verify", "--fixtures", str(_fixture_tree(tmp_path / "empty")), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {c["check"]: c for c in report["checks"] if not c["passed"]}
    assert sorted(failed) == ["psi_laws", "sigma_frobenius", "untwist_certificates"]
    for entry in failed.values():
        assert entry["error"] == "no case in bounds"
        assert entry["witness"] == entry["bounds"]
    assert failed["psi_laws"]["torsors"] == 0


def test_theorem_carrier_beyond_the_enumeration_bound_is_a_failed_check():
    # z5 over two points needs a ten-point carrier, within --bound-carrier
    # but beyond what enumerate_torsors takes: a failed entry, not a crash
    checks = theorem_checks({"z5": catalog.cyclic(5)}, {},
                            Bounds(group_order=5, carrier=10, base=2))
    suite = [c for c in checks if c["check"] == "theorem_suite_group"]
    assert suite == [
        {"check": "theorem_suite_group", "group": "z5", "base": 1, "torsors": 24,
         "passed": True},
        {"check": "theorem_suite_group", "group": "z5", "base": 2, "torsors": 0,
         "error": "BoundsExceeded", "witness": 10, "passed": False},
    ]
    assert all(c["passed"] for c in checks if c["check"] != "theorem_suite_group")


def test_malformed_group_fixture_is_a_failed_check(tmp_path):
    root = _fixture_tree(tmp_path / "fixtures")
    for name, mul in (("scalar", 5), ("ragged", [[0, 1], [1]]),
                      ("floats", [[0, 1], [1, 0.0]]), ("strings", [[0, "1"], ["1", 0]]),
                      ("bools", [[0, True], [True, 0]])):
        (root / "groups" / (name + ".json")).write_text(json.dumps(
            {"order": 2, "mul": mul, "unit": 0, "inv": [0, 1]}))
    groups, groupoids, bundles, failures = load_fixtures(root)
    assert not groups
    assert len(failures) == 5
    assert {f["error"] for f in failures} == {"ValueError"}


def test_bundle_over_a_rejected_or_missing_algebra_names_it(tmp_path, capsys):
    root = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, root)
    z3 = root / "groups" / "z3.json"
    data = json.loads(z3.read_text())
    z3.write_text(json.dumps(dict(data, inv=[0, 1, 2])))
    for reason in ("rejected", "missing"):
        if reason == "missing":
            z3.unlink()
        code = main(["verify", "--fixtures", str(root), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        entries = {Path(c["fixture"]).name: c for c in report["checks"]
                   if c["check"] == "fixture" and "bundles" in c["fixture"]}
        assert sorted(entries) == ["z3_self.json", "z3_twisted.json"]
        for entry in entries.values():
            assert entry["error"] == "MissingAlgebra"
            assert entry["witness"] == ["groups/z3", reason]


def test_psi_laws_records_each_case_beyond_the_enumeration_limit(capsys):
    # z3 over three points needs a nine-point carrier
    code = main(["verify", "--fixtures", str(FIXTURES), "--bound-base", "3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    psi = [c for c in report["checks"] if c["check"] == "psi_laws"]
    assert psi[0]["passed"] and psi[0]["bounds"] == {"group_order": 3, "base": 3}
    assert psi[1:] == [{"check": "psi_laws", "group": "z3", "base": 3, "carrier": 9,
                        "skipped": "carrier 9 exceeds the enumeration limit 8"}]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@given(st.sampled_from(["order", "mul", "unit", "inv"]), JSON_VALUES)
def test_any_json_value_in_a_group_field_gives_an_entry(field, value):
    data = {"order": 2, "mul": [[0, 1], [1, 0]], "unit": 0, "inv": [0, 1]}
    data[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = _fixture_tree(Path(tmp))
        (root / "groups" / "g.json").write_text(json.dumps(data))
        groups, groupoids, bundles, failures = load_fixtures(root)
    assert len(groups) + len(failures) == 1
    assert all(not f["passed"] for f in failures)


def report_digest(report: dict) -> str:
    """sha256 of a report without elapsed_s, as perfbench computes it."""
    body = {k: v for k, v in report.items() if k != "elapsed_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# sha256 of each report over fixtures/, without elapsed_s: the first three
# at default bounds, as recorded before groups were run as one-object
# groupoids; verify at base 3 holds psi_laws' one skip entry; glue at
# base 3 is perfbench's glue-base3 report, which reads no fixture.
GOLDEN_REPORTS = {
    "verify": (run_verify, Bounds(),
               "a425f2f4b1d90fd88638cdb5e5c881649a10e030cba50baee74020563f4f93b7"),
    "enumerate": (run_enumerate, Bounds(),
                  "d432d6506ce305548ef63c62e494ac048865389b0f624a5c1903d25a22b41407"),
    "glue": (run_glue, Bounds(),
             "6fe33b030296de88e44ccd008f9885930fb8f7896496452dd3c744676d61aa4e"),
    "verify --bound-base 3": (
        run_verify, Bounds(base=3),
        "5e53dd262dd365bf9a79971ac79200f1734ee0469f53415f27f8a653737ae36b"),
    "glue --bound-base 3": (
        run_glue, Bounds(base=3),
        "bfc708a4e8791aeb223e7596c43a2f530405a6b3261822bfd23303264c1c53c4"),
}


def test_reports_match_golden_digests():
    for command, (run, bounds, digest) in GOLDEN_REPORTS.items():
        assert report_digest(run(FIXTURES, bounds)) == digest, command


def test_theorem_under_python_O_matches_in_process_report():
    # the law checks are typed checks, so python -O, which strips assert
    # statements, must give the same report and still reject every
    # corrupted control
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "finbundles.cli", "theorem",
         "--fixtures", str(FIXTURES), "--bound-group", "2", "--bound-base", "1",
         "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    optimised = json.loads(proc.stdout)
    in_process = run_theorem_suite(FIXTURES, Bounds(group_order=2, base=1))
    optimised.pop("elapsed_s")
    in_process.pop("elapsed_s")
    assert optimised == in_process
    # the theorem report at these bounds, pinned byte for byte; the
    # default-bound report is pinned by perfbench's theorem-default digest
    assert report_digest(in_process) == \
        "3ac0a291a4e276edaadfd74f0b6c1b89ca9d0a436df54c97b58c8759d82859a6"
    controls = [c for c in optimised["checks"]
                if "/corrupt" in c.get("presentation", "")]
    assert len(controls) == 5
    assert not any(c["criterion_passed"] for c in controls)


def test_glue_under_python_O_matches_in_process_report():
    # the gluing checks are typed checks, so python -O, which strips
    # assert statements, must give the same report
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "finbundles.cli", "glue",
         "--fixtures", str(FIXTURES), "--bound-base", "1", "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    optimised = json.loads(proc.stdout)
    in_process = run_glue(FIXTURES, Bounds(base=1))
    optimised.pop("elapsed_s")
    in_process.pop("elapsed_s")
    assert optimised == in_process
    assert optimised["all_passed"]


def test_a_witness_that_is_not_a_json_value_is_written_as_its_repr(monkeypatch, capsys):
    # a corrupted presentation's comparison map can stop on CodMismatch,
    # whose witness is the two mismatched sets
    from finbundles import cli
    from finbundles.finset import CodMismatch, FinSet
    from finbundles.suites import _failed

    entry = _failed("corollary_agreement", CodMismatch("mismatch", (FinSet(2), FinSet(3))))
    monkeypatch.setitem(cli.COMMANDS, "glue",
                        lambda fixtures, bounds: cli.build_report("glue", bounds, [entry], 0.0))
    assert main(["glue", "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["checks"][0]["witness"]
    assert witness == [repr(FinSet(2)), repr(FinSet(3))]
