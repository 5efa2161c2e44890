"""The finbundles benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program runs as users run it: one
fresh interpreter per repetition (``child.py``), one process, no threads,
a closed loop with one client.  A fresh interpreter matters because the
program's caches (``sigma``, ``action_product``, ``_fiber_torsor_actions``,
``_tensor_cache`` and each presentation's ``_memo``) are module-global and
unbounded, so every CLI run pays them cold.

The fixture tree the program reads is generated from ``--seed``
(``inputs.py``) in a temporary directory inside the checkout and handed
to it through ``--fixtures``.  Every repetition passes a correctness
gate: exit code 0, ``all_passed``, the workload's seed-invariant counts
and, at seed 0, the stored digest of the report minus ``elapsed_s``.

With ``--trace 0`` the repetitions run untraced until ``--seconds`` is
used, and the end-to-end metrics are medians over them.  Set-up is timed
in every repetition and in extra set-up-only interpreters.  With
``--trace 1`` one untraced and one traced repetition run (``tracer.py``),
the per-layer metrics come from the traced one, and at seed 0 the
tracer's call counts are checked against known values.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
timing's sample count, median and tail percentile, and each report's
digest.  The exit code is 0 when a result was printed, and 2 when the
checkout lacks the program or its fixtures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import make_fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Extra interpreters per run that only set up, so that set-up time has
# enough samples for a steady median.
SETUP_ONLY_RUNS = 15
CHILD_TIMEOUT_S = 150


def _gate_theorem(report: dict, fixtures: Path) -> list[str]:
    torsors = sum(c.get("torsors", 0) for c in report["checks"])
    return [] if torsors == 104 else ["torsor instances %d != 104" % torsors]


def _gate_enumerate(report: dict, fixtures: Path) -> list[str]:
    problems = []
    for c in report["checks"]:
        if c["check"] == "torsor_count":
            if c["structures"] != math.factorial(c["carrier"] - 1) or c["iso_classes"] != 1:
                problems.append("%s: %d structures, %d iso classes"
                                % (c["group"], c["structures"], c["iso_classes"]))
        else:
            size = json.loads((fixtures / "groupoids" / (c["groupoid"] + ".json"))
                              .read_text())["objects"]
            if c["iso_classes"] != size ** c["base"]:
                problems.append("%s over %d: %d iso classes"
                                % (c["groupoid"], c["base"], c["iso_classes"]))
    return problems


def _gate_glue(report: dict, fixtures: Path) -> list[str]:
    data = sum(c.get("data", 0) for c in report["checks"])
    return [] if data == 5440 else ["descent data %d != 5440" % data]


# Each workload: CLI arguments, the number of checks its report holds,
# the report field whose sum is its work unit, and its seed-invariant gate.
WORKLOADS = {
    "theorem-default": {"cli": ["theorem"], "checks": 33,
                        "unit": "torsors", "gate": _gate_theorem},
    "enumerate-order7": {"cli": ["enumerate", "--bound-group", "7",
                                 "--bound-carrier", "7", "--bound-base", "3"],
                         "checks": 18, "unit": "structures", "gate": _gate_enumerate},
    "glue-base3": {"cli": ["glue", "--bound-base", "3"], "checks": 68,
                   "unit": "data", "gate": _gate_glue},
}

# Exact call counts the traced run must reproduce at seed 0.  For a
# generator the tracer counts resumptions, as cProfile counts calls:
# all_actions is called 12 times and yields 2,258 items.
SELF_TEST_SPANS = {
    "theorem-default": {"adjunction.frobenius_canonical_map": 38960,
                        "adjunction.check_frobenius": 370},
    "glue-base3": {"torsor.glue_descent_data": 11224},
    "enumerate-order7": {"torsor.is_principal_bundle": 3508,
                         "algebra.all_actions": 2270},
}

# sha256 of each workload's seed-0 report without elapsed_s, as
# report_digest computes it and the run prints it.
SEED0_DIGESTS = {
    "theorem-default":
        "6d08a334fc0a9dc4fd8194eb4df519b17781d41fd4dea7f30a6016382b9f8e34",
    "enumerate-order7":
        "8c5cf07afb8d9ab883a35455f1df0b111f029b6919c1783edf07531b910c4a77",
    "glue-base3":
        "bfc708a4e8791aeb223e7596c43a2f530405a6b3261822bfd23303264c1c53c4",
}


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


class Child:
    """Starts child interpreters on one generated fixture tree."""

    def __init__(self, workload: str, seed: int, fixtures: Path):
        self.workload = workload
        self.seed = seed
        self.fixtures = fixtures

    def run(self, trace: bool = False, setup_only: bool = False) -> dict:
        spec = {"src": str(ROOT / "src"), "fixtures": str(self.fixtures),
                "cli": WORKLOADS[self.workload]["cli"],
                "trace": trace, "setup_only": setup_only}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"problems": ["timed out after %d s" % CHILD_TIMEOUT_S]}
        elapsed = time.perf_counter() - start
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"problems": ["exit code %d: %s" % (proc.returncode, tail[0])]}
        out = json.loads(lines[-1])
        out["setup_s"] = out.pop("setup_end") - start
        out["elapsed_s"] = elapsed
        out["problems"] = [] if setup_only else self.gate(out["report"])
        return out

    def gate(self, report: dict) -> list[str]:
        spec = WORKLOADS[self.workload]
        if not report.get("all_passed"):
            return ["all_passed is false"]
        if len(report["checks"]) != spec["checks"]:
            return ["%d checks != %d" % (len(report["checks"]), spec["checks"])]
        problems = spec["gate"](report, self.fixtures)
        digest = report_digest(report)
        if self.seed == 0 and digest != SEED0_DIGESTS[self.workload]:
            problems.append("seed-0 report digest %s != %s"
                            % (digest, SEED0_DIGESTS[self.workload]))
        return problems


def summarize(name: str, values: list[float], unit: str) -> str:
    """Sample count, median and the highest percentile that has at least
    ten samples beyond it (none below 11 samples)."""
    ordered = sorted(values)
    line = "%-12s n=%-3d median=%.6g %s" % (name, len(ordered), statistics.median(ordered), unit)
    if len(ordered) >= 11:
        k = len(ordered) - 11
        line += "  p%.0f=%.6g %s" % (100 * (k + 1) / len(ordered), ordered[k], unit)
    return line


def measure(child: Child, seconds: float) -> tuple[list[dict], list[dict]]:
    """Untraced repetitions until ``seconds`` is used, starting another
    only when at least half of it fits, then set-up-only interpreters."""
    reps = []
    start = time.perf_counter()
    while True:
        rep = child.run()
        reps.append(rep)
        if rep["problems"]:
            break
        used = time.perf_counter() - start
        if used + statistics.median(r["elapsed_s"] for r in reps) / 2 > seconds:
            break
    setups = [child.run(setup_only=True) for _ in range(SETUP_ONLY_RUNS)]
    return reps, setups


def end_to_end(wanted: list[dict], workload: str, reps: list[dict],
               setups: list[dict]) -> dict:
    unit_field = WORKLOADS[workload]["unit"]
    units = sum(c.get(unit_field, 0) for c in reps[0]["report"]["checks"])
    samples = {
        "setup_s": [r["setup_s"] for r in reps + setups],
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "work_per_s": [units / r["wall_s"] for r in reps],
    }
    metrics = {}
    for m in wanted:
        values = samples[m["name"]]
        print(summarize(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics


def per_layer(wanted: list[dict], workload: str, seed: int, plain: dict,
              traced: dict) -> tuple[dict, list[str]]:
    layers = traced["layers"]
    problems = ["tracer coverage: " + p for p in traced["coverage_problems"]]
    if report_digest(plain["report"]) != report_digest(traced["report"]):
        problems.append("traced and untraced reports differ")
    if seed == 0:
        for fn, count in SELF_TEST_SPANS[workload].items():
            if layers[fn + ".spans"] != count:
                problems.append("self-test: %s has %d spans, expected %d"
                                % (fn, layers[fn + ".spans"], count))
    calls = layers["torsor.is_principal_bundle.calls"]
    rejected = layers["torsor.is_principal_bundle.raised"]
    layers["torsor.is_principal_bundle.rejected"] = rejected
    layers["torsor.is_principal_bundle.accept_ratio"] = 1 - rejected / calls if calls else 0.0
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    print("trace: %d spans, traced wall %.3f s, untraced wall %.3f s"
          % (layers["trace.spans"], traced["wall_s"], plain["wall_s"]))
    return ({m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
             for m in wanted}, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finbundles" / "cli.py").is_file() or \
            not (ROOT / "fixtures" / "groups").is_dir():
        print("error: %s holds no finbundles source tree and fixtures" % ROOT,
              file=sys.stderr)
        return 2
    # The metric names and units to print come from the manifest.
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        fixtures = Path(work) / ("seed%d" % args.seed)
        make_fixtures(ROOT / "fixtures", fixtures, args.seed)
        child = Child(args.workload, args.seed, fixtures)
        child.run(setup_only=True)  # compiles bytecode, as an installed package has
        if args.trace:
            reps = [child.run()]
            if not reps[0]["problems"]:
                reps.append(child.run(trace=True))
            setups = []
        else:
            reps, setups = measure(child, args.seconds)

    problems = [p for r in reps + setups for p in r["problems"]]
    checks = WORKLOADS[args.workload]["checks"]
    failed = checks * sum(1 for r in reps if r["problems"])
    for r in reps:
        print("report digest: %s" % (report_digest(r["report"]) if "report" in r else "-"))
    if problems:
        metrics = {}
    elif args.trace:
        metrics, trace_problems = per_layer(manifest["per_layer"], args.workload,
                                            args.seed, *reps)
        problems += trace_problems
    else:
        metrics = end_to_end(manifest["end_to_end"], args.workload, reps, setups)
    for p in problems:
        print("problem: " + p)
    print(json.dumps({"correct": not problems, "attempted": checks * len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
