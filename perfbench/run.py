"""bicscatter benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout (the directory holding ``src/bicscatter``):

    python3 perfbench/run.py --workload envelope-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics: two set-up-only children and
one timed child, each a fresh interpreter, so ``setup_s`` (the median of the
three) includes the import. ``--trace 1`` runs the workload's first block
twice in fresh children, untraced and then traced, and reports the per-layer
metrics from the traced one, per task, plus the tracing overhead. ``--report``
does both for every workload and prints every metric with its unit and the
environment. The last stdout line is always one JSON object.

See NOTES.md beside this file for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import FIGURE_COMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("figures", "envelope-scan", "spectra")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170.0
TRACKED_ERRORS = ("RootCountMismatch", "DegenerateNormalizer", "MinimaNotFound",
                  "NoConvergence")
STAGES = ("config", "find", "gamow", "fit")

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("certified_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(RuntimeError):
    pass


# ------------------------------------------------------------ child control

def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # compile the library's sources on every import: every set-up pays the
    # same, and the checkout gains no __pycache__
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(root: str, workload: str, seed: int, mode: str, deadline: float,
          seconds: float = 0.0, limit: int = 0, traced: bool = False) -> dict:
    cmd = [sys.executable, CHILD, "--root", root, "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--limit", str(limit)]
    if traced:
        spans = os.path.join(root, ".perfbench_run", f"spans-{workload}-seed{seed}.csv")
        cmd += ["--traced", "--spans", spans]
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise HarnessError("time budget exhausted before the next child")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=_child_env(root),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} {mode} child timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{workload} {mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


# ---------------------------------------------------------------- metrics

def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, n); with n <= TAIL_BEYOND the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def outcomes(records):
    """Counts by outcome, by error type and by stage."""
    out = {"certified": 0, "refused": 0, "wrong": 0, "crashed": 0}
    by_type, by_stage = {}, {}
    for r in records:
        out[r["outcome"]] += 1
        if r["outcome"] != "certified":
            key = r["error"] if r["outcome"] == "refused" else r["outcome"]
            by_type[key] = by_type.get(key, 0) + 1
            by_stage[r["stage"]] = by_stage.get(r["stage"], 0) + 1
    return out, by_type, by_stage


def end_to_end(setups, timed):
    records = timed["records"]
    lat = [r["ms"] for r in records]
    counts, _, _ = outcomes(records)
    tail_ms, _, _ = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(lat) / (sum(lat) / 1e3),
        "task_p50_ms": statistics.median(lat),
        "task_tail_ms": tail_ms,
        "certified_share": counts["certified"] / len(lat),
        "peak_rss_mb": timed["rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    ms, cnt = "ms/task", "count/task"
    names = [
        ("scattering.TruncatedConfig.ms", ms), ("scattering.TruncatedConfig.calls", cnt),
        ("darboux.w1_bundle.points", cnt),
        ("jost.bound_state.ms", ms), ("numerics.adaptive_quadrature.ms", ms),
        ("numerics.adaptive_quadrature.evals", cnt),
        ("resonances.G.evals", cnt), ("resonances.find_resonances.ms", ms),
        ("resonances.find_resonances.self_ms", ms), ("resonances.find_resonances.evals", cnt),
        ("numerics.winding_count.ms", ms), ("numerics.winding_count.evals", cnt),
        ("numerics.newton_complex.ms", ms), ("numerics.newton_complex.calls", cnt),
        ("numerics.newton_complex.evals", cnt), ("numerics.newton_complex.failures", cnt),
        ("resonances.seed_yield", "ratio"),
        ("jost.uv_bundle.calls", cnt), ("jost.uv_bundle.points", cnt),
        ("jost.uv_bundle.self_ms", ms), ("jost.uv_bundle.ns_per_point", "ns/point"),
        ("scattering.dg.points", cnt), ("scattering.dg.self_ms", ms),
        ("scattering.cross_section.ms", ms), ("scattering.phase_shift_unwrapped.ms", ms),
        ("scattering.sigma_landmarks.ms", ms),
        ("resonances.gamow_state.ms", ms), ("resonances.sweep_cutoff.ms", ms),
        ("background.fit_lambda.ms", ms), ("background.hadamard_residual.ms", ms),
        ("background.model_phase_and_sigma.ms", ms),
    ]
    names += [(f"cli.{c}.ms", ms) for c in FIGURE_COMMANDS]
    names += [("cli.self_ms", ms), ("cli.bytes_written", "bytes/task"),
              ("setup.import_ms", "ms"), ("setup.inputs_ms", "ms")]
    names += [(f"errors.{e}.count", cnt) for e in TRACKED_ERRORS]
    names += [("errors.other.count", cnt)]
    names += [(f"errors.stage.{s}.count", cnt) for s in STAGES]
    names += [("trace.overhead_share", "ratio")]
    return names


def per_layer(plain, traced):
    records = traced["records"]
    n = len(records)
    layers = traced["layers"]

    def st(layer, key):
        return layers.get(layer, {}).get(key, 0)

    v = {}
    for name, _unit in per_layer_names():
        layer, _, metric = name.rpartition(".")
        if metric == "ms":
            v[name] = st(layer, "ns") / 1e6 / n
        elif metric == "self_ms":
            v[name] = st(layer, "self_ns") / 1e6 / n
        elif metric == "calls":
            v[name] = st(layer, "calls") / n
        elif metric == "points":
            v[name] = st(layer, "size") / n
        elif metric == "failures":
            v[name] = st(layer, "failures") / n
    v["numerics.adaptive_quadrature.evals"] = traced["counters"].get(
        "numerics.adaptive_quadrature.evals", 0) / n
    v["resonances.G.evals"] = st("resonances.G", "calls") / n
    for layer in ("numerics.winding_count", "numerics.newton_complex",
                  "resonances.find_resonances"):
        v[f"{layer}.evals"] = st(layer, "g_evals") / n
    newton_calls = st("numerics.newton_complex", "calls")
    v["resonances.seed_yield"] = (
        st("resonances.find_resonances", "size") / newton_calls if newton_calls else 0.0
    )
    points = st("jost.uv_bundle", "size")
    v["jost.uv_bundle.ns_per_point"] = st("jost.uv_bundle", "self_ns") / points if points else 0.0
    v["cli.self_ms"] = sum(st(f"cli.{c}", "self_ns") for c in FIGURE_COMMANDS) / 1e6 / n
    v["cli.bytes_written"] = sum(r["bytes"] for r in records) / n
    v["setup.import_ms"] = traced["import_ms"]
    v["setup.inputs_ms"] = traced["inputs_ms"]
    _, by_type, by_stage = outcomes(records)
    for e in TRACKED_ERRORS:
        v[f"errors.{e}.count"] = by_type.get(e, 0) / n
    other = sum(c for e, c in by_type.items() if e not in TRACKED_ERRORS
                and e not in ("wrong", "crashed"))
    v["errors.other.count"] = other / n
    for s in STAGES:
        v[f"errors.stage.{s}.count"] = sum(
            1 for r in records if r["outcome"] == "refused" and r["stage"] == s) / n
    plain_busy = sum(r["ms"] for r in plain["records"])
    traced_busy = sum(r["ms"] for r in records)
    v["trace.overhead_share"] = traced_busy / plain_busy - 1.0
    return {name: {"value": v[name], "unit": unit} for name, unit in per_layer_names()}


# ----------------------------------------------------------------- runs

def _verdict(children):
    """(correct, attempted, crashed, problems) over the measuring children."""
    problems = []
    for c in children:
        problems += [f"reference: {p}" for p in c["reference"]]
        problems += [f"wrong output ({r['kind']}): {r['error']}"
                     for r in c["records"] if r["outcome"] == "wrong"]
        problems += [f"wrapper left in place after the run: {name}" for name in c["leaked"]]
    main = children[-1]
    crashed = sum(1 for r in main["records"] if r["outcome"] == "crashed")
    return not problems, len(main["records"]), crashed, problems


def run_untraced(root, workload, seed, seconds, deadline):
    setups = [spawn(root, workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    timed = spawn(root, workload, seed, "timed", deadline, seconds=seconds)
    setups.append(timed["setup_s"])
    correct, attempted, crashed, problems = _verdict([timed])
    return {"correct": correct, "attempted": attempted, "failed": crashed,
            "metrics": end_to_end(setups, timed)}, timed, setups, problems


def run_traced(root, workload, seed, deadline, limit=0):
    plain = spawn(root, workload, seed, "fixed", deadline, limit=limit)
    traced = spawn(root, workload, seed, "fixed", deadline, limit=limit, traced=True)
    correct, attempted, crashed, problems = _verdict([plain, traced])
    return {"correct": correct, "attempted": attempted, "failed": crashed,
            "metrics": per_layer(plain, traced)}, traced, problems


# -------------------------------------------------------------- reporting

def held_out_seed(seed: int) -> int:
    """The seed to confirm a claim on after tuning against ``seed``."""
    return (seed * 7919 + 104729) % 2**31


def environment(root: str, seed: int, versions: dict, cpu_model: bool) -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    env = {
        "git_sha": sha,
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "held_out_seed": held_out_seed(seed),
    }
    if cpu_model:
        env["cpu_model"] = _cpu_model()
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_environment(root: str, seed: int, child: dict, cpu_model: bool) -> None:
    env = environment(root, seed, child["versions"], cpu_model)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {workload:<14} {name:<42} {m['value']:>16.6g} {m['unit']}")


def print_outcomes(workload: str, records, label: str) -> None:
    counts, by_type, by_stage = outcomes(records)
    n = len(records)
    lat = [r["ms"] for r in records]
    tail_ms, pct, count = tail(lat)
    print(f"  {workload:<14} {label}: {n} tasks; task_tail_ms is p{pct:.2f} "
          f"({TAIL_BEYOND} of {count} samples beyond it)")
    print(f"  {workload:<14} fail_share {counts['refused'] / n:.4f} "
          f"wrong_share {counts['wrong'] / n:.4f} crashed {counts['crashed']}")
    for e, c in sorted(by_type.items()):
        print(f"  {workload:<14}   by type  {e:<28} {c}")
    for s, c in sorted(by_stage.items()):
        print(f"  {workload:<14}   by stage {s:<28} {c}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="bicscatter benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="every workload, untraced and traced, with the environment")
    args = p.parse_args(argv)
    if not args.report and not args.workload:
        p.error("--workload is required unless --report is given")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bicscatter", "__init__.py")):
        print(f"error: no src/bicscatter under {root}; run from the checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + (10**6 if args.report else 175.0)
    try:
        if args.report:
            return _report(root, args, deadline)
        if args.trace:
            result, child, problems = run_traced(root, args.workload, args.seed, deadline)
            print_environment(root, args.seed, child, cpu_model=False)
            print_outcomes(args.workload, child["records"], "traced pass")
        else:
            result, child, setups, problems = run_untraced(
                root, args.workload, args.seed, args.seconds, deadline)
            print_environment(root, args.seed, child, cpu_model=False)
            print_outcomes(args.workload, child["records"], "timed run")
            print(f"  {args.workload:<14} setup samples (s): "
                  + ", ".join(f"{s:.4f}" for s in setups))
        print_metrics(args.workload, result["metrics"])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps(result))
    return 0


def _report(root, args, deadline) -> int:
    combined = {}
    ok = True
    for workload in WORKLOADS:
        e2e, timed, setups, problems = run_untraced(root, workload, args.seed, args.seconds,
                                                    deadline)
        layers, traced, traced_problems = run_traced(root, workload, args.seed, deadline)
        if not combined:
            print_environment(root, args.seed, timed, cpu_model=True)
        print_outcomes(workload, timed["records"], "timed run")
        print_metrics(workload, e2e["metrics"])
        print_outcomes(workload, traced["records"], "traced pass")
        print_metrics(workload, layers["metrics"])
        for problem in problems + traced_problems:
            print(f"  PROBLEM {workload}: {problem}")
        ok = ok and e2e["correct"] and layers["correct"]
        combined[workload] = {"end_to_end": e2e, "per_layer": layers}
    print(json.dumps({"correct": ok, "workloads": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
