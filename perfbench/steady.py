"""Steadiness mode: repeated runs of every workload, and comparison of two sets.

    python3 perfbench/steady.py run --runs 10 --seed0 100 --out FILE
    python3 perfbench/steady.py compare FIRST SECOND

`run` makes --runs rounds; round i runs every workload of BENCHMARK.json
once, with seed seed0 + i and the file's run_seconds, in listed order on
even rounds and reversed on odd ones, so slow drift of the machine does not
land on one workload. It prints, per workload
and end-to-end metric, the median, the quartiles and the spread (quartile
distance over median, as statistics.quantiles(n=4) gives them) next to the
metric's bound from BENCHMARK.json, and writes them to FILE.

`compare` checks that no median of SECOND is worse than FIRST's by more than
the metric's bound. Both commands exit 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            result = one_run(w, args.seed0 + i, seconds)
            if not result["correct"]:
                print(f"{w} seed {args.seed0 + i}: incorrect output", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {i} {w}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for w, metrics in values.items():
        report[w] = {}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            within = spread <= bounds[name]
            ok &= within
            report[w][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bounds[name]}
            print(f"{w:16s} {name:12s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}"
                  f"{'' if within else '  OVER'}")
    Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for w in first:
        for name, a in first[w].items():
            m1, m2 = a["median"], second[w][name]["median"]
            worse = (m2 - m1) / m1 if metrics[name]["better"] == "lower" else (m1 - m2) / m1
            within = worse <= metrics[name]["bound"]
            ok &= within
            print(f"{w:16s} {name:12s} {m1:10.4g} -> {m2:10.4g}  worse by {worse:+.3f}  "
                  f"bound {metrics[name]['bound']:.2f}{'' if within else '  OVER'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
