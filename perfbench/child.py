"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds ``src`` (the
directory holding the finbundles package), ``fixtures``, ``cli`` (the
subcommand and its flags), ``trace`` and ``setup_only``.

Set-up imports finbundles and loads and validates the fixtures, as every
CLI run does.  The subcommand then runs through ``cli.main`` with its
report captured from stdout; the fixtures loaded in set-up are handed to
it so that its wall and CPU times cover the subcommand's work alone.  The
last line of stdout is one JSON object with the clocks, the report and,
when traced, the per-layer counters.  The exit code is the CLI's.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from finbundles import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        coverage_problems = tracer.coverage_problems()
    fixtures = Path(spec["fixtures"])
    loaded = cli.load_fixtures(fixtures)
    result = {"setup_end": time.perf_counter()}
    if spec["setup_only"]:
        print(json.dumps(result))
        return 0

    cli.load_fixtures = lambda _dir: loaded
    from finbundles import adjunction

    tensor_entries0 = len(adjunction._tensor_cache)
    out = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out):
        rc = cli.main([*spec["cli"], "--fixtures", str(fixtures)])
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["report"] = json.loads(out.getvalue())
    if tracer is not None:
        layers = tracer.metrics()
        for name in ("sigma", "action_product"):
            info = tracer.originals["algebra." + name].cache_info()
            lookups = info.hits + info.misses
            layers["algebra.%s.hit_ratio" % name] = info.hits / lookups if lookups else 0.0
        entries = len(adjunction._tensor_cache) - tensor_entries0
        calls = layers["adjunction.tensor.calls"]
        layers["adjunction.tensor.hit_ratio"] = 1 - entries / calls if calls else 0.0
        layers["adjunction.tensor_cache.entries"] = entries
        layers["trace.spans"] = tracer.span_count()
        result["layers"] = layers
        result["coverage_problems"] = coverage_problems
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
