"""Benchmark of the toricish command-line program, standard library only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
Every operation is one CLI command on one input, run in a fresh
`python -m toricish.cli` process with src/ on PYTHONPATH, the interpreter
running this script and a fixed PYTHONHASHSEED.  Processes run one at a
time.  The program's lru_cache(maxsize=None) caches are process-global, so
a repeat inside one process would time cache hits.

A round runs every operation of the workload once, and each output is
checked (checks.py).  Rounds repeat while another one still fits in S
seconds; at least one runs.  The last line of stdout is one JSON object:

- with --trace 0, the end-to-end metrics: `wall_s`, the median over rounds
  of the summed time from each command starting its work to its output
  being written; `setup_s`, the median over rounds of the summed time from
  spawn until the CLI is about to dispatch (rounds that only start the
  processes are added, so that the median has several samples); and
  `peak_rss_mb`, the largest resident set of any process;
- with --trace 1, the per-layer metrics of layers.py, from the spans that
  hook/toricish_trace.py records inside each child.

Exit code 2, with no result printed, when the program cannot be started.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HOOK = BENCH / "hook"

from checks import CHECKS, check_verify  # noqa: E402
from inputs import all_inputs, write_cone_file  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("general-dim6", "verify-sweep", "combinatorial-highdim")
# Random 4-dimensional cones verified in verify-sweep: about 11 s and a
# 29 MB peak on a 2-core host, against 22 MB at 20 cones.
VERIFY_CONES = 60
# Rounds per run that only start the processes, to give setup_s a median.
SETUP_PROBES = 2
# Every run must end within 180 s; no process may start after this.
DEADLINE_S = 165.0


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[dict, dict], list[str]]


@dataclass
class Outcome:
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    stdout_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def workload_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    inputs = all_inputs()
    ops: list[Op] = []

    def add(command: str, name: str) -> None:
        item = inputs[name]
        path = write_cone_file(item, workdir)
        check = CHECKS[command]
        ops.append(Op(f"{command} {name}", [command, str(path)],
                      lambda payload, shared: check(payload, item, shared)))

    if workload == "general-dim6":
        for name in ("pyramid-tower", "oct-prism", "cross4", "cube4"):
            add("ext", name)
            add("decompose", name)
    elif workload == "verify-sweep":
        argv = ["verify", "--random", "4", str(VERIFY_CONES), "--seed", str(seed), "--suite", "all"]
        ops.append(Op(f"verify --random 4 {VERIFY_CONES}", argv,
                      lambda payload, shared: check_verify(payload, VERIFY_CONES)))
    elif workload == "combinatorial-highdim":
        for name in ("cube6", "simplex2-cubed", "cross6"):
            for command in ("faces", "gpoly", "shelling"):
                add(command, name)
        for name in ("cube6", "simplex2-cubed", "cubic-fourfold"):
            add("hodge", name)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


class Runner:
    """Starts the child processes of one run, one at a time."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HOOK)))
        self.env["PYTHONHASHSEED"] = "0"
        for key in ("TORICISH_BENCH_SETUP_ONLY", "TORICISH_BENCH_TRACE"):
            self.env.pop(key, None)
        self.spawned = 0

    def run(self, op: Op, mode: str, shared: dict) -> Outcome:
        """mode is "setup" (exit before dispatch), "plain" or "trace"."""
        self.spawned += 1
        timing = self.workdir / f"p{self.spawned}.timing.json"
        trace = self.workdir / f"p{self.spawned}.trace.json"
        env = dict(self.env, TORICISH_BENCH_TIMING=str(timing))
        if mode == "setup":
            env["TORICISH_BENCH_SETUP_ONLY"] = "1"
        elif mode == "trace":
            env["TORICISH_BENCH_TRACE"] = str(trace)
            env["TORICISH_BENCH_COMMAND_ID"] = f"p{self.spawned} {op.label}"
        out = Outcome()
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            out.problems.append("not started: the run is out of time")
            return out
        spawn_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "toricish.cli", *op.argv],
                env=env, cwd=self.workdir, capture_output=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            out.problems.append("timed out")
            return out
        try:
            record = json.loads(timing.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            out.problems.append(f"exit {proc.returncode}, no timing record: {err[-1:]}")
            return out
        out.setup_s = (record["ready_ns"] - spawn_ns) / 1e9
        out.rss_mb = record["maxrss_kb"] / 1024
        if mode == "setup":
            return out
        out.wall_s = (record["end_ns"] - record["start_ns"]) / 1e9
        out.stdout_bytes = len(proc.stdout)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()
            out.problems.append(f"exit {proc.returncode}: {err[-1:]}")
            return out
        try:
            payload = json.loads(proc.stdout)
            out.problems += op.check(payload, shared)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            out.problems.append(f"malformed output: {exc!r}")
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricish" / "cli.py").is_file():
        print(f"bench: the program is missing ({SRC / 'toricish'})", file=sys.stderr)
        return 2
    started = time.monotonic()
    workroot = ROOT / ".bench_work"
    workdir = workroot / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass


def measure(args, workdir: Path, started: float) -> int:
    ops = workload_ops(args.workload, args.seed, workdir)
    runner = Runner(workdir, started)
    # Also compiles the program's bytecode before anything is timed.
    probe = runner.run(ops[0], "setup", {})
    if probe.problems:
        print(f"bench: the program does not start: {probe.problems}", file=sys.stderr)
        return 2

    mode = "trace" if args.trace else "plain"
    rounds: list[list[Outcome]] = []
    round_seconds: list[float] = []
    traces: list[list[Path]] = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 + max(round_seconds) <= args.seconds:
        r0 = time.monotonic()
        shared: dict = {}
        outcomes = []
        first = runner.spawned + 1
        for op in ops:
            outcome = runner.run(op, mode, shared)
            outcomes.append(outcome)
            status = "ok" if not outcome.problems else f"FAILED {outcome.problems}"
            print(f"bench: round {len(rounds)} {op.label}: setup {outcome.setup_s:.3f} s, "
                  f"wall {outcome.wall_s:.3f} s, rss {outcome.rss_mb:.1f} MB, {status}",
                  file=sys.stderr)
        rounds.append(outcomes)
        round_seconds.append(time.monotonic() - r0)
        traces.append([workdir / f"p{i}.trace.json" for i in range(first, runner.spawned + 1)])

    attempted = sum(len(r) for r in rounds)
    failed = sum(1 for r in rounds for o in r if o.problems)
    if args.trace:
        metrics = per_layer(rounds, traces)
    else:
        setup_sums = [sum(o.setup_s for o in r) for r in rounds]
        for _ in range(SETUP_PROBES):
            probes = [runner.run(op, "setup", {}) for op in ops]
            if any(p.problems for p in probes):
                print(f"bench: setup probe failed: {[p.problems for p in probes]}", file=sys.stderr)
                return 2
            setup_sums.append(sum(p.setup_s for p in probes))
        metrics = {
            "wall_s": {"value": statistics.median(sum(o.wall_s for o in r) for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_sums), "unit": "s"},
            "peak_rss_mb": {"value": max(o.rss_mb for r in rounds for o in r), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer(rounds: list[list[Outcome]], traces: list[list[Path]]) -> dict:
    per_round = []
    absent: set[str] = set()
    for outcomes, paths in zip(rounds, traces):
        totals = []
        for path in paths:
            if path.exists():
                t, missing = layers.read_trace(path)
                totals.append(t)
                absent |= missing
        wall = sum(o.wall_s for o in outcomes)
        per_round.append(layers.round_metrics(totals, wall, sum(o.stdout_bytes for o in outcomes)))
    if absent:
        print(f"bench: absent from the program, reported as 0: {sorted(absent)}", file=sys.stderr)
    out = {}
    for name, unit, _better in layers.METRICS:
        values = [r[name] for r in per_round]
        # Counts repeat exactly between rounds; keep them whole numbers.
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
