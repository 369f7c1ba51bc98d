"""Measure one workload of the efalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|smoke]

Run from the root of a checkout; efalg is imported from its `src/`.
Workloads: analyze-large, canon-symmetric, sweep-7 (see workloads.py).

Every sample is a fresh interpreter (worker.py) with PYTHONHASHSEED fixed,
EFALG_JOBS cleared, no worker pool and a bytecode cache of its own under
perfbench/out/. A run starts one untimed set-up-only interpreter that fills
that cache, then SETUP_PROBES set-up-only interpreters, then runs samples one after another until S seconds have
passed (at least one sample). With --trace 1 it alternates traced and
untraced samples (at least one of each), reports the per-layer metrics of
the traced sample with the median traced run time, and the tracing
overhead. The last line of output is the JSON result; the line before it
and a file under perfbench/out/ hold the detailed report, and traced runs
also write their span dump there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("analyze-large", "canon-symmetric", "sweep-7")
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class SampleError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("EFALG_JOBS", None)
    # set-up times imports from bytecode, whether or not the caller's
    # environment writes bytecode and whatever caches the tree holds
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_sample(args, started: float, *extra: str) -> dict:
    """One fresh interpreter; raises SampleError if it fails or runs too long."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, *extra]
    budget = TIME_LIMIT_S - (perf_counter() - started)
    if budget <= 0:
        raise SampleError("time limit reached before the first sample")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise SampleError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    out = {"value": statistics.median(values), "samples": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an export of the tree has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "efalg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "commit": commit,
        "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "pythonhashseed": "0", "efalg_jobs": None, "processes": 1,
        "pycache_prefix": str((OUT / "pycache").relative_to(ROOT)),
    }


def measure(args) -> tuple[dict, dict]:
    started = perf_counter()
    OUT.mkdir(exist_ok=True)
    run_sample(args, started, "--setup-only")  # warm-up: fills the bytecode cache
    probes = [run_sample(args, started, "--setup-only") for _ in range(SETUP_PROBES)]
    stem = f"{args.workload}-seed{args.seed}"
    plain, traced = [], []
    while True:
        want_trace = args.trace and len(traced) <= len(plain)
        if want_trace:
            spans = OUT / f"{stem}-spans-{len(traced)}.json"
            traced.append(run_sample(args, started, "--trace", "1", "--spans", str(spans)))
            traced[-1]["spans_file"] = str(spans.relative_to(ROOT))
        else:
            plain.append(run_sample(args, started))
        done = perf_counter() - started >= args.seconds
        if done and plain and (traced or not args.trace):
            break
    samples = plain + traced
    setups = probes + samples

    e2e = {
        "setup_s": summary([s["setup_s"] for s in setups]),
        "run_s": summary([s["run_s"] for s in plain]),
        "item_p50_ms": summary([t for s in plain for t in s["items_ms"]]),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in plain]),
    }
    for name, unit in END_TO_END_UNITS.items():
        e2e[name]["unit"] = unit
    unscaled = {"setup_cpu_s": summary([s["setup_cpu_s"] for s in setups]),
                "setup_wall_s": summary([s["setup_wall_s"] for s in setups]),
                "run_cpu_s": summary([s["run_cpu_s"] for s in plain]),
                "run_wall_s": summary([s["run_wall_s"] for s in plain])}
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = sorted({f"{op}: {kind}: {msg}" for s in samples
                       for op, (kind, msg) in s["failures"].items()})
    detail = {
        "env": environment(args),
        "end_to_end": e2e,
        "unscaled": unscaled,
        "fail_frac": {"value": failed / attempted, "unit": "ratio", "samples": len(samples)},
        "failures": failures,
        "samples": {"plain": len(plain), "traced": len(traced), "setup_probes": SETUP_PROBES},
    }
    result = {"correct": all(s["wrong"] == 0 for s in samples),
              "attempted": attempted, "failed": failed}
    if args.trace:
        runs = sorted(traced, key=lambda s: s["run_s"])
        chosen = runs[(len(runs) - 1) // 2]
        layers = dict(chosen["layers"])
        layers["trace.overhead_frac"] = (
            statistics.median(s["run_s"] for s in traced)
            / statistics.median(s["run_s"] for s in plain) - 1.0)
        detail["spans_file"] = chosen["spans_file"]
        detail["layers"] = layers
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        result["metrics"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    return detail, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: reduced inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "efalg").is_dir():
        print(f"no efalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        detail, result = measure(args)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
