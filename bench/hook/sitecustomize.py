"""Start-up hook of the benchmark's child processes.

bench/run.py starts every command as `python -m toricish.cli ...` with this
directory on PYTHONPATH, so Python imports this module at interpreter start.
When TORICISH_BENCH_TIMING names a file, the hook wraps click's top-level
Command.main, which the CLI calls once its imports are done, and records in
that file, as JSON:

- ready_ns: CLOCK_MONOTONIC when the CLI is about to dispatch;
- start_ns / end_ns: around the command's work, the latter after stdout is
  flushed;
- maxrss_kb: the process's peak resident set.

CLOCK_MONOTONIC is shared by all processes, so the parent subtracts its own
spawn time from ready_ns.  With TORICISH_BENCH_SETUP_ONLY=1 the process
exits at ready_ns without running the command.  With TORICISH_BENCH_TRACE
naming a file, the program's functions are wrapped before dispatch and
their spans written there at exit (see toricish_trace.py).
"""

import os

if os.environ.get("TORICISH_BENCH_TIMING"):
    import json
    import resource
    import sys
    import time

    import click.core

    _original_main = click.core.Command.main
    _entered = []

    def _timed_main(self, *args, **kwargs):
        if _entered:
            return _original_main(self, *args, **kwargs)
        _entered.append(True)
        record = {"ready_ns": time.monotonic_ns()}
        tracer = None
        try:
            if os.environ.get("TORICISH_BENCH_SETUP_ONLY") == "1":
                return None
            if os.environ.get("TORICISH_BENCH_TRACE"):
                import toricish_trace

                tracer = toricish_trace.install(sys.modules["__main__"])
            record["start_ns"] = time.monotonic_ns()
            try:
                return _original_main(self, *args, **kwargs)
            finally:
                sys.stdout.flush()
                record["end_ns"] = time.monotonic_ns()
        finally:
            record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with open(os.environ["TORICISH_BENCH_TIMING"], "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            if tracer is not None:
                tracer.dump(os.environ["TORICISH_BENCH_TRACE"])

    click.core.Command.main = _timed_main
