"""The benchmark harness's traced run over every workload ends in one strict-JSON
result line."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _integers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _integers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _integers(v)
    elif isinstance(value, int) and not isinstance(value, bool):
        yield value


def test_traced_run_of_every_workload_ends_in_a_strict_json_result():
    # the harness only reads perfbench/, and writes no bytecode there
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "1",
         "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    # the tracer adds its counts in floats, so a count past 2^53 is already rounded
    assert all(abs(v) < 2**53 for v in _integers(result))
    assert result["failed"] == 0
