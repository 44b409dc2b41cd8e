"""The benchmark must run ci2d through its public entry points.

`bench/run.py` drives ci2d's CLI (`ci2d.cli.main`) and the step's public
names on its two workloads.  A zero-second run of the CLI chain does one
round (init, check, diagnose, two steps, diagnose on each state) and its
output checks, so a renamed option, command or entry point fails here
rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_cli_chain_round_is_correct():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_chain_n256", "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0, result
