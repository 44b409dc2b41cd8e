"""The benchmark must run ci2d through its public entry points.

`bench/run.py` drives ci2d's CLI (`ci2d.cli.main`) and the step's public
names on its two workloads.  A zero-second run of each workload does one
round and its output checks: the CLI chain runs init, check, diagnose, two
steps and diagnose on each state; the acceptance workload runs check and
the in-memory `iterate_step`, with diagnose before and after.  So a renamed
option, command or entry point fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _one_round(workload):
    """Run one zero-second round of the workload and require it correct."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0, result


def test_bench_cli_chain_round_is_correct():
    _one_round("cli_chain_n256")


def test_bench_acceptance_round_is_correct():
    # the in-memory `iterate_step` path, which the CLI chain does not run
    _one_round("acceptance_n512")
