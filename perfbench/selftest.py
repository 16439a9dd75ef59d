"""Self-test of the benchmark harness.

Run from the checkout root:  python3 perfbench/selftest.py

Checks that
  * a tiny run (two tasks) of each workload completes with correct outputs;
  * installing the tracer wraps library functions and uninstalling it puts
    back the very same objects, and no wrapper is left in an untraced child;
  * two traced runs with the same seed give identical per-layer counts;
  * BENCHMARK.json names exactly the metrics the harness reports;
  * the tail percentile follows its definition;
  * a directory holding only BENCHMARK.json and the benchmark exits non-zero
    without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = 2
COUNT_SUFFIXES = (".calls", ".evals", ".points", ".failures", ".count", ".bytes_written",
                  ".seed_yield")


def check_tail() -> None:
    value, pct, n = run.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100), (value, pct, n)
    value, pct, n = run.tail([3.0, 1.0, 2.0])
    assert (value, pct, n) == (3.0, 100.0, 3), (value, pct, n)


def check_benchmark_json(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


def check_install_roundtrip(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import importlib

    import tracer as tracing

    mods = [importlib.import_module(f"{tracing.PACKAGE}.{m}") for m in tracing.MODULES]
    mods.append(importlib.import_module(tracing.PACKAGE))
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    cfg_cls = importlib.import_module(f"{tracing.PACKAGE}.scattering").TruncatedConfig
    post_init = cfg_cls.__dict__["__post_init__"]
    t = tracing.Tracer()
    t.install()
    try:
        assert len(tracing.leaked_wrappers()) > len(tracing.LAYERS), "tracer wrapped too little"
    finally:
        t.uninstall()
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items()), "binding not restored"
    assert cfg_cls.__dict__["__post_init__"] is post_init
    assert tracing.leaked_wrappers() == []


def counts(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def check_workload(root: str, workload: str, deadline: float) -> None:
    plain = run.spawn(root, workload, 7, "fixed", deadline, limit=TINY)
    assert len(plain["records"]) == TINY, plain["records"]
    assert plain["leaked"] == [], plain["leaked"]
    traced = [run.spawn(root, workload, 7, "fixed", deadline, limit=TINY, traced=True)
              for _ in range(2)]
    correct, attempted, crashed, problems = run._verdict([plain] + traced)
    assert correct and attempted == TINY and crashed == 0, problems
    first, second = (counts(run.per_layer(plain, t)) for t in traced)
    assert first == second, {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert any(v > 0 for v in first.values()), "traced run counted nothing"


def check_bare_directory(root: str) -> None:
    bare = os.path.join(root, ".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0, "bare directory run exited 0"
        assert '"metrics"' not in proc.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    deadline = time.monotonic() + 900.0
    checks = [("tail percentile", check_tail),
              ("BENCHMARK.json names", lambda: check_benchmark_json(root)),
              ("tracer install/uninstall", lambda: check_install_roundtrip(root)),
              ("bare directory", lambda: check_bare_directory(root))]
    checks += [(f"tiny {w} run, no leak, repeatable counts",
                lambda w=w: check_workload(root, w, deadline)) for w in run.WORKLOADS]
    failed = 0
    for label, fn in checks:
        try:
            fn()
            print(f"ok    {label}")
        except (AssertionError, run.HarnessError) as exc:
            failed += 1
            print(f"FAIL  {label}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
