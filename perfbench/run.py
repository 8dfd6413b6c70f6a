"""CLI-session benchmark for znkit.

    python3 perfbench/run.py --workload majorant --seed 1 --seconds 40 --trace 0

A closed loop with one client: the workload's session (workloads.py) runs as
a sequence of `python -m znkit ...` subprocesses, one at a time, and cycles
until --seconds are used up.  Each call is timed from spawn to exit, and the
child's own rusage comes from os.wait4.  Every report is checked.

--trace 0 prints the end-to-end metrics:
  wall_s       sum over the session's commands of their median wall time
  cpu_s        the same for child user + system time
  peak_rss_mb  largest over the commands of their median child ru_maxrss
  setup_s      median wall time of a fresh interpreter importing znkit.cli,
               timed SETUP_SAMPLES times before the loop and once after
               every full session
--trace 1 runs the session in-process through znkit.cli.main(argv): once
untimed to warm up, then in pairs, with tracer.py's layer wrappers and plain,
and prints the per-layer metrics plus trace.overhead_s (traced minus plain
wall time).

Commands with a wrong exit code or report count as failed; fail_rate is
printed with the metrics and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in turn.  `--record` rewrites references.json from the code as it
stands; do that only at a commit whose outputs are trusted.

Children run with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
pinned to 1 (unpinned, child CPU time ran above wall time on a 2-core host).
The znkit package is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import (
    EXIT_OK,
    WORKLOADS,
    check_report,
    make_inputs,
    record_constants,
    record_fields,
)
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORK_PARENT = ROOT / ".bench_work"
CALL_TIMEOUT_S = 60.0  # ten times the slowest command
SETUP_SAMPLES = 5

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Call:
    label: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    errors: list = field(default_factory=list)


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cache bytecode, as an install does
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def spawn(argv: list[str], workdir: Path, env: dict) -> tuple[int, str, float, float, float]:
    """Run one child; returns (exit code, stdout, wall s, cpu s, max rss MB)."""
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def fresh_import(workdir: Path, env: dict) -> float:
    """Wall time of a fresh interpreter importing znkit.cli."""
    code, _, wall, _, _ = spawn(["-c", "import znkit.cli"], workdir, env)
    if code != 0:
        raise RuntimeError("importing znkit.cli failed in a fresh interpreter")
    return wall


def session_in_process(name, inputs, refs, workdir, cli) -> list[Call]:
    calls = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in WORKLOADS[name]:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(list(cmd.argv))
            except Exception:  # a crash fails this command, not the run
                code, out = None, io.StringIO(traceback.format_exc())
            wall = time.perf_counter() - start
            calls.append(Call(cmd.label, wall, errors=check_report(
                cmd, code, out.getvalue(), inputs, refs, workdir)))
    finally:
        os.chdir(here)
    return calls


def repeat_for(seconds: float, body) -> list:
    """Run body() at least once, then again while another one fits in time."""
    results = []
    start = time.perf_counter()
    longest = 0.0
    while not results or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        results.append(body())
        longest = max(longest, time.perf_counter() - t0)
    return results


def end_to_end(name, seconds, inputs, refs, workdir) -> tuple[list[Call], dict]:
    """Cycle through the session's commands until --seconds are used up.

    A command starts only if its previous duration still fits, and the first
    full session always runs.  A fresh import is also timed after every full
    session, so set-up time is sampled under the same host load as the calls.
    """
    env = child_env(workdir)
    fresh_import(workdir, env)  # fills the bytecode cache
    commands = WORKLOADS[name]
    samples: dict[str, list[Call]] = {cmd.label: [] for cmd in commands}
    deadline = time.perf_counter() + seconds
    setup_times = [fresh_import(workdir, env) for _ in range(SETUP_SAMPLES)]
    for i in itertools.count():
        cmd = commands[i % len(commands)]
        runs = samples[cmd.label]
        if runs and time.perf_counter() + runs[-1].wall > deadline:
            break
        code, out, wall, cpu, rss = spawn(["-m", "znkit", *cmd.argv], workdir, env)
        runs.append(Call(cmd.label, wall, cpu, rss,
                         check_report(cmd, code, out, inputs, refs, workdir)))
        if (i + 1) % len(commands) == 0:
            setup_times.append(fresh_import(workdir, env))
    per_cmd = samples.values()
    metrics = {
        "wall_s": sum(statistics.median(c.wall for c in calls) for calls in per_cmd),
        "cpu_s": sum(statistics.median(c.cpu for c in calls) for calls in per_cmd),
        "peak_rss_mb": max(statistics.median(c.rss_mb for c in calls) for calls in per_cmd),
        "setup_s": statistics.median(setup_times),
    }
    return [c for calls in per_cmd for c in calls], metrics


def traced(name, seconds, inputs, refs, workdir) -> tuple[list[Call], dict]:
    sys.path.insert(0, str(SRC))
    import znkit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"znkit imported from {cli.__file__}, not from {SRC}")

    # untimed, so that neither session of a pair pays the first-use costs
    # (lazy imports, first-touch allocations, FFT plans)
    warmup = session_in_process(name, inputs, refs, workdir, cli)

    def pair():
        trace = tracer.Tracer()
        trace.install()
        try:
            spanned = session_in_process(name, inputs, refs, workdir, cli)
        finally:
            trace.uninstall()
        plain = session_in_process(name, inputs, refs, workdir, cli)
        overhead = sum(c.wall for c in spanned) - sum(c.wall for c in plain)
        return plain + spanned, {**trace.metrics(), "trace.overhead_s": overhead}

    pairs = repeat_for(seconds - sum(c.wall for c in warmup), pair)
    metrics = {key: (statistics.median if key.endswith("_s") else statistics.median_low)(
        m[key] for _, m in pairs) for key in pairs[0][1]}
    return warmup + [c for calls, _ in pairs for c in calls], metrics


def metric_units(trace: bool) -> dict:
    if trace:
        return {**dict(tracer.METRICS), "trace.overhead_s": "s"}
    return dict(END_TO_END)


def run_workload(name, seed, seconds, trace, refs) -> dict:
    WORK_PARENT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_PARENT))
    try:
        inputs = make_inputs(seed, workdir)
        measure = traced if trace else end_to_end
        calls, values = measure(name, seconds, inputs, refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()
    failed = [c for c in calls if c.errors]
    for c in failed[:10]:
        print(f"[{name}] FAIL {c.label}: {'; '.join(c.errors)[:500]}")
    units = metric_units(trace)
    print(f"[{name}] calls = {len(calls)}, commands per session = "
          f"{len(WORKLOADS[name])}, seed = {seed}")
    for key, unit in units.items():
        print(f"[{name}] {key} = {values[key]!r} {unit}")
    print(f"[{name}] fail_rate = {len(failed) / len(calls)!r} ratio")
    return {
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def record() -> None:
    refs = {"commands": {}, "constants": record_constants()}
    WORK_PARENT.mkdir(exist_ok=True)
    for name, commands in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK_PARENT))
        try:
            make_inputs(0, workdir)
            env = child_env(workdir)
            for cmd in commands:
                code, out, *_ = spawn(["-m", "znkit", *cmd.argv], workdir, env)
                if code != EXIT_OK:
                    raise RuntimeError(f"{cmd.label} exited {code}: {out[-300:]}")
                refs["commands"][cmd.label] = record_fields(cmd, out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_PARENT.rmdir()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json from the current code")
    args = parser.parse_args()
    if not (SRC / "znkit" / "cli.py").is_file():
        print(f"error: no znkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    refs = json.loads(REFERENCES.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} " + " ".join(f"{v}=1" for v in THREAD_VARS))
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, refs) for n in names}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
