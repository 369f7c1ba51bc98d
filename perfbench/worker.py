"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--trace 0|1] [--scale full|smoke] [--spans FILE]

Imports efalg from the checkout's `src/` and builds the workload's inputs
(set-up), runs the timed phase, both timed with the clock of timing.py,
checks the results after the clock stops and prints one JSON object as its last line of output. run.py starts
one of these per sample, because efalg's process-global caches never evict:
a second pass in the same process would time cache hits.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import timing
import tracing

ROOT = Path(__file__).resolve().parent.parent


def measure(workload, trace: bool, spans_path: Path | None = None) -> dict:
    """Time `workload.run`, then check its results; spans only when tracing."""
    from efalg.properties import ANCHORS

    tracer = tracing.Tracer() if trace else tracing.NULL_TRACER
    if trace:
        tracer.install()
    wall = perf_counter()
    try:
        with timing.Stopwatch() as watch:
            workload.run(tracer, watch)
    finally:
        run_wall_s = perf_counter() - wall
        if trace:
            tracer.uninstall()
    failures = workload.check()
    out = {
        "run_s": watch.scaled_s,
        "run_cpu_s": watch.raw_s,
        "run_wall_s": run_wall_s,
        "items_ms": [t * watch.factor * 1000.0 for t in watch.items],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": workload.attempted,
        "failed": len(failures),
        "wrong": sum(1 for kind, _ in failures.values() if kind == "wrong"),
        "failures": {op: list(v) for op, v in sorted(failures.items())},
    }
    if trace:
        out["layers"] = tracing.layer_metrics(
            tracer.spans, watch.raw_s, [a for a, _ in ANCHORS], workload.counts)
        if spans_path is not None:
            spans_path.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "item", "error"],
                "clock": "program-thread CPU seconds, unscaled",
                "note": tracing.__doc__.split("Order dependence:")[1].split("\n\n")[0].strip(),
                "spans": tracer.spans,
            }))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    wall = perf_counter()
    with timing.Stopwatch() as setup, setup.stretch():
        sys.path.insert(0, str(ROOT / "src"))
        import efalg
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if Path(efalg.__file__).resolve().parent != ROOT / "src" / "efalg":
        print(f"efalg was imported from {efalg.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    out = {"setup_s": setup.scaled_s, "setup_cpu_s": setup.raw_s,
           "setup_wall_s": perf_counter() - wall}
    if not args.setup_only:
        out.update(measure(workload, bool(args.trace), args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
