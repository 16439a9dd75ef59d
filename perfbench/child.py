"""One workload in a fresh interpreter, driven by one closed-loop client.

Started by ``run.py``; prints one JSON object on its last stdout line.

Modes:
  setup  import, generate inputs and run one warm-up task, then stop;
  timed  after set-up, run as many whole blocks of tasks (each a balanced
         set of inputs) as take about ``--seconds`` on the reference machine,
         ``round(seconds / block_seconds)`` of them; a fixed amount of work
         keeps the task count, and so the tail percentile, the same on every
         run and on both sides of a comparison;
  fixed  after set-up, run the first block (or ``--limit`` tasks of it), with
         tracing wrappers installed when ``--traced`` is given.

Set-up time runs from ``--t0`` (the parent's monotonic clock just before it
spawned this process; CLOCK_MONOTONIC is shared by all processes) until the
first task is ready.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout holding src/bicscatter")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--limit", type=int, default=0, help="fixed mode: run at most this many tasks")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans", default="", help="traced mode: write spans to this CSV file")
    p.add_argument("--t0", type=float, required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    t = time.perf_counter()
    import bicscatter
    import bicscatter.cli  # noqa: F401  (figures drives it; import cost is set-up)
    import_ms = (time.perf_counter() - t) * 1e3
    origin = os.path.realpath(os.path.dirname(bicscatter.__file__))
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"bicscatter imported from {origin}, not from {src}")

    import tracer as tracing
    import workloads

    workdir = os.path.join(args.root, ".perfbench_run", f"tmp-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        t = time.perf_counter()
        wl.setup()
        first = wl.tasks(0)
        inputs_ms = (time.perf_counter() - t) * 1e3
        warm = wl.warmup()
        wl.prepare(warm)
        try:
            wl.run(warm, [""])
        except workloads.TYPED_ERRORS:
            pass
        result = {"setup_s": time.monotonic() - args.t0, "import_ms": import_ms,
                  "inputs_ms": inputs_ms, "versions": workloads.versions()}
        if args.mode != "setup":
            result.update(_loop(args, wl, first, tracing, workloads))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop(args, wl, first, tracing, workloads) -> dict:
    tracer = tracing.Tracer() if args.traced else None
    records = []
    if tracer:
        tracer.install()
    blocks = 1 if args.mode == "fixed" else max(1, round(args.seconds / wl.block_seconds))
    try:
        for index in range(blocks):
            batch = first if index == 0 else wl.tasks(index)
            for task in batch[: args.limit or None]:
                records.append(workloads.measure(wl, task, len(records), tracer))
    finally:
        if tracer:
            tracer.uninstall()
    out = {
        "records": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "leaked": tracing.leaked_wrappers(),
        "reference": workloads.reference_check(),
    }
    if tracer:
        out["layers"] = tracer.aggregate()
        out["counters"] = tracer.counters
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write_spans(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
