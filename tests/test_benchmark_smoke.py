"""The benchmark's workloads, at smoke scale, give right answers traced and untraced.

Each run is one `perfbench/worker.py` sample in a fresh interpreter, as the
harness starts it: a fixed hash seed, no worker pool and no bytecode files,
so the run writes nothing under perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _files(path: Path) -> set[Path]:
    return {p for p in path.rglob("*") if p.is_file()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["analyze-large", "canon-symmetric", "sweep-7"])
def test_smoke_sample_has_no_failures(workload, trace):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    before = _files(PERFBENCH)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload, "--seed", "3",
         "--scale", "smoke", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == {}
    assert ("layers" in result) == bool(trace)
    assert _files(PERFBENCH) == before
