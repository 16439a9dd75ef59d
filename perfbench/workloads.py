"""The benchmark's workloads: seeded inputs, one task runner each, and the
checks every task output must pass.

Inputs come only from the workload seed. Tasks come in blocks, each a
balanced set of inputs: draws use randomized quasi-Monte Carlo points (a
Halton sequence with a seed-dependent Cranley-Patterson shift) so that every
prefix of the task stream covers the parameter ranges evenly, and inputs
whose cost jumps (the figures cutoff, the spectra grid size) run on fixed
ladders. Runs then see nearly the same mix of easy and hard inputs whatever
the seed, which keeps run-to-run spread small without narrowing any range.

A task either returns an output that passes its checks (certified), returns
one that fails them (wrong), or raises a typed ``BicscatterError`` (or, for
the CLI, exits with code 2 or 3 and a JSON error), which is the library's
specified way of refusing an input it cannot certify.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from bicscatter import background, cli, darboux, jost, resonances, scattering
from bicscatter.errors import BicscatterError
from tracer import FIGURE_COMMANDS

# salts keep the three workloads' random streams apart for one seed
_SALT = {"figures": 11, "envelope-scan": 23, "spectra": 37}
_PRIMES = (2, 3, 5, 7)


class Refused(Exception):
    """The CLI rejected a command with a typed error (exit code 2 or 3)."""

    def __init__(self, error_type: str):
        super().__init__(error_type)
        self.error_type = error_type


TYPED_ERRORS = (BicscatterError, Refused)


@dataclass
class Task:
    kind: str
    params: dict
    argv: List[str] = field(default_factory=list)
    outdir: str = ""
    grid: Optional[np.ndarray] = None


def _halton(index: int, base: int) -> float:
    f, x = 1.0, 0.0
    while index > 0:
        f /= base
        x += f * (index % base)
        index //= base
    return x


class _Stream:
    """Shifted Halton points in [0, 1)^dims for one workload and seed."""

    def __init__(self, seed: int, salt: int, dims: int):
        self.shift = np.random.default_rng([seed, salt]).random(dims)

    def point(self, index: int) -> List[float]:
        return [
            (_halton(index + 1, b) + s) % 1.0 for b, s in zip(_PRIMES, self.shift)
        ]


def _log_lerp(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=complex))))


# ------------------------------------------------------------------ figures

R_ROWS = len(np.arange(0.0, 30.0 + 0.005, 0.01))
_K = np.arange(0.995, 1.005 + 0.5e-6, 1e-6)
K_ROWS = int(np.count_nonzero(np.abs(_K - 1.0) > 1e-5))
_BASE_META = {"command", "version", "alpha", "beta", "q", "bic_mode"}


def _read_csv(path: str):
    meta, rows, header = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


class Figures:
    """The README's ten command lines through ``cli.main --reproducible``.

    A block is one cycle over a fixed ladder of cutoffs, the midpoints of
    ``len(CUTOFFS)`` equal log-strata of [2500, 20000], in a seed-drawn
    order; each pass of ten commands draws its own alpha. The cutoff sets
    how much work the wide-box census does (grid refinements, 0.3 s to 13 s)
    in steps that no smooth draw averages out over a few passes, so a timed
    run always covers whole cycles of the same cutoffs.
    """

    name = "figures"
    block_seconds = 28.0  # one cycle on a 2-CPU Xeon VM at 2.0 GHz
    CUTOFFS = tuple(2500.0 * 8.0 ** ((i + 0.5) / 4) for i in range(4))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.stream = _Stream(seed, _SALT[self.name], 1)
        self.workdir = workdir

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def tasks(self, index: int) -> List[Task]:
        """Cycle ``index``: one pass of all ten commands per cutoff."""
        rng = np.random.default_rng([self.seed, _SALT[self.name], index])
        out = []
        for j, i in enumerate(rng.permutation(len(self.CUTOFFS))):
            n = index * len(self.CUTOFFS) + j
            alpha = _log_lerp(self.stream.point(n)[0], 0.7, 1.4)
            out += self._pass(n, alpha, self.CUTOFFS[i])
        return out

    def _pass(self, n: int, alpha: float, a: float) -> List[Task]:
        common = [f"--alpha={alpha!r}", "--q=1", "--bic", "--reproducible"]
        cut = [f"--cutoff={a!r}"]
        r = ["--r-max", "30"]
        argvs = {
            "w1": ["w1", *common, *r, "--out", "w1.csv"],
            "w1_scan": ["w1", f"--alpha={alpha!r}", "--q=1",
                        f"--beta-list=-1,{3.0 * alpha!r},5", "--reproducible",
                        *r, "--out", "w1_scan.csv"],
            "potential": ["potential", *common, *r, "--out", "potential.csv"],
            "resonances": ["resonances", *common, *cut, "--out", "resonances.json"],
            "resonances_wide": ["resonances", *common, *cut, "--wide-box",
                                "--out", "string.json"],
            "gamow": ["gamow", *common, *cut, "--root-index", "0", *r,
                      "--out", "gamow.csv"],
            "phase-shift": ["phase-shift", *common, *cut, "--k-min", "0.995",
                            "--k-max", "1.005", "--out", "delta.csv"],
            "cross-section": ["cross-section", *common, *cut, "--mode", "both",
                              "--out", "sigma.csv"],
            "fit-background": ["fit-background", *common, *cut, "--out", "fit.json"],
            "sweep-cutoff": ["sweep-cutoff", *common,
                             f"--a-list={a / 2!r},{a!r},{2 * a!r}", "--out", "sweep.jsonl"],
        }
        out = []
        for j, kind in enumerate(FIGURE_COMMANDS):
            outdir = os.path.join(self.workdir, f"p{n}_{j}")
            argv = list(argvs[kind])
            argv[-1] = os.path.join(outdir, argv[-1])
            out.append(Task(kind, {"alpha": alpha, "a": a}, argv, outdir))
        return out

    def warmup(self) -> Task:
        return self._pass(-1, 1.0, 5000.0)[0]

    def prepare(self, task: Task) -> None:
        os.makedirs(task.outdir, exist_ok=True)

    def run(self, task: Task, stage: list):
        stage[0] = task.kind
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(task.argv)
        if code in (2, 3):
            raise Refused(json.loads(err.getvalue().strip().splitlines()[-1])["error"])
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        return None

    def bytes_written(self, task: Task) -> int:
        return sum(os.path.getsize(p) for p in glob.glob(os.path.join(task.outdir, "*")))

    def check(self, task: Task, _out) -> Optional[str]:
        d = task.outdir
        kind = task.kind
        try:
            if kind in ("w1", "potential", "gamow"):
                name = {"w1": "w1.csv", "potential": "potential.csv", "gamow": "gamow.csv"}[kind]
                meta, header, rows = _read_csv(os.path.join(d, name))
                want_cols = {"w1": 2, "potential": 3, "gamow": 3}[kind]
                extra = {"w1": {"diagnostic", "sign_changes"}, "potential": {"psi_b_norm"},
                         "gamow": {"root_index", "k_re", "half_width", "n_squared_re",
                                   "n_squared_im", "sqrt_branch"}}[kind]
                return _check_table(meta, header, rows, R_ROWS, want_cols, extra)
            if kind == "w1_scan":
                files = sorted(glob.glob(os.path.join(d, "w1_scan_beta*.csv")))
                if len(files) != 3:
                    return f"w1 scan wrote {len(files)} files, expected 3"
                for path in files:
                    meta, header, rows = _read_csv(path)
                    bad = _check_table(meta, header, rows, R_ROWS, 2, {"diagnostic"})
                    if bad:
                        return bad
                return None
            if kind in ("phase-shift", "cross-section"):
                name = "delta.csv" if kind == "phase-shift" else "sigma.csv"
                meta, header, rows = _read_csv(os.path.join(d, name))
                extra = ({"excluded_near_q"} if kind == "phase-shift"
                         else {"mode", "lambda0", "lambda1", "max_deviation"})
                bad = _check_table(meta, header, rows, K_ROWS, 4 if kind == "phase-shift" else 3,
                                   extra)
                if bad or kind == "phase-shift":
                    return bad
                bound = 4.0 * math.pi / rows[:, 0] ** 2
                if np.any(rows[:, 1:] < 0) or np.any(rows[:, 1:] > bound[:, None] * (1 + 1e-9)):
                    return "cross section outside [0, 4 pi / k^2]"
                return None
            if kind in ("resonances", "resonances_wide"):
                name = "resonances.json" if kind == "resonances" else "string.json"
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    doc = json.load(fh)
                missing = {"meta", "a", "alpha", "beta", "q", "box", "winding_count",
                           "roots"} - set(doc)
                if missing:
                    return f"resonances JSON lacks {sorted(missing)}"
                roots = doc["roots"]
                if len(roots) != doc["winding_count"]:
                    return "root list disagrees with winding count"
                if kind == "resonances" and len(roots) != 2:
                    return f"default box holds {len(roots)} roots, expected 2"
                if sum(bool(r["doublet"]) for r in roots) != 2:
                    return "doublet not flagged on exactly two roots"
                if not all(r["im"] < 0 and math.isfinite(r["re"]) for r in roots):
                    return "root not finite or not below the real axis"
                return None
            if kind == "fit-background":
                with open(os.path.join(d, "fit.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                missing = {"meta", "lambda0", "lambda1", "minima", "condition_number",
                           "max_deviation", "window", "overlapping_resonances"} - set(doc)
                if missing:
                    return f"fit JSON lacks {sorted(missing)}"
                if len(doc["minima"]) != 2 or not _finite([doc["lambda0"], doc["lambda1"]]):
                    return "fit JSON minima or lambdas malformed"
                return None
            if kind == "sweep-cutoff":
                with open(os.path.join(d, "sweep.jsonl"), encoding="utf-8") as fh:
                    lines = [json.loads(x) for x in fh if x.strip()]
                if len(lines) != 5 or "meta" not in lines[0] or "gamma_monotone" not in lines[-1]:
                    return f"sweep JSONL has {len(lines)} lines, expected meta + 3 rows + verdict"
                for row in lines[1:4]:
                    if set(row) != {"a", "k1", "half_width1", "k2", "half_width2"}:
                        return "sweep row keys malformed"
                return None
        except (OSError, ValueError, KeyError) as exc:
            return f"{kind}: output unreadable ({type(exc).__name__}: {exc})"
        return f"unknown command {kind}"


def _check_table(meta, header, rows, n_rows, n_cols, extra_keys) -> Optional[str]:
    missing = (_BASE_META | set(extra_keys)) - set(meta)
    if missing:
        return f"metadata lacks {sorted(missing)}"
    if header is None or len(header) != n_cols:
        return f"header {header} has the wrong width"
    if rows.shape != (n_rows, n_cols):
        return f"table shape {rows.shape}, expected {(n_rows, n_cols)}"
    if not np.all(np.isfinite(rows)):
        return "non-finite value in table"
    return None


# ------------------------------------------------------------ envelope-scan

class EnvelopeScan:
    """One certified doublet per task over the whole ROADMAP envelope."""

    name = "envelope-scan"
    block_size = 16
    block_seconds = 4.5  # on a 2-CPU Xeon VM at 2.0 GHz

    def __init__(self, seed: int, workdir: str):
        self.stream = _Stream(seed, _SALT[self.name], 3)

    def setup(self) -> None:
        pass

    def tasks(self, index: int) -> List[Task]:
        """Block ``index`` of ``block_size`` consecutive points of the stream."""
        out = []
        for j in range(index * self.block_size, (index + 1) * self.block_size):
            # refusals depend mostly on a: give it the most even axis (base 2)
            u_a, u_q, u_alpha = self.stream.point(j)
            out.append(Task("doublet", {
                "alpha": _log_lerp(u_alpha, 0.3, 3.0),
                "q": _log_lerp(u_q, 0.3, 3.0),
                "a": _log_lerp(u_a, 1e2, 1e6),
            }))
        return out

    def warmup(self) -> Task:
        return Task("doublet", {"alpha": 1.0, "q": 1.0, "a": 5000.0})

    def prepare(self, task: Task) -> None:
        pass

    def run(self, task: Task, stage: list):
        p = task.params
        stage[0] = "config"
        config = scattering.TruncatedConfig(
            params=darboux.PotentialParams.bic(alpha=p["alpha"], q=p["q"]), a=p["a"]
        )
        stage[0] = "find"
        found = resonances.find_resonances(config)
        pair = resonances.doublet_of(found, p["q"])
        stage[0] = "gamow"
        states = [resonances.gamow_state(config, r) for r in pair]
        stage[0] = "fit"
        fit = background.fit_lambda(config, background.Doublet.from_resonances(*pair))
        return found, pair, states, fit

    def bytes_written(self, task: Task) -> int:
        return 0

    def check(self, task: Task, out) -> Optional[str]:
        found, pair, states, fit = out
        q = task.params["q"]
        if len(found) != 2:
            return f"census holds {len(found)} roots, expected 2"
        if not pair[0].k_re < q < pair[1].k_re:
            return "doublet does not straddle q"
        if not all(r.k_complex.imag < 0 for r in pair):
            return "root not below the real axis"
        if not all(r.residual <= 1e-6 for r in pair):
            return "root residual above 1e-6"
        if not all(_finite(s.N_squared) for s in states):
            return "Gamow N^2 not finite"
        return None


# ----------------------------------------------------------------- spectra

class Spectra:
    """Real-axis spectra on k grids of 10^3 to 10^6 points."""

    name = "spectra"
    block_seconds = 7.5  # on a 2-CPU Xeon VM at 2.0 GHz
    configs = 4
    block_size = 12
    q = 1.0
    q_exclusion = 1e-5  # the CLI's own exclusion radius around k = q

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.stream = _Stream(seed, _SALT[self.name], 2)
        self.built = []

    def setup(self) -> None:
        """Configs, doublets and fits: alpha in [0.5, 2], a in [1e3, 3e4]."""
        for i in range(self.configs):
            u_alpha, u_a = self.stream.point(i)
            params = darboux.PotentialParams.bic(alpha=_log_lerp(u_alpha, 0.5, 2.0), q=self.q)
            config = scattering.TruncatedConfig(params=params, a=_log_lerp(u_a, 1e3, 3e4))
            pair = resonances.doublet_of(resonances.find_resonances(config), self.q)
            fit = background.fit_lambda(config, background.Doublet.from_resonances(*pair))
            self.built.append((config, pair, fit))

    def tasks(self, index: int) -> List[Task]:
        """Block ``index``: one task per size on a log ladder from 10^3 to 10^6
        points, each on a config and window width drawn for this block."""
        rng = np.random.default_rng([self.seed, _SALT[self.name], index])
        sizes = np.rint(np.logspace(3.0, 6.0, self.block_size)).astype(int)
        which = rng.permutation(self.block_size) % self.configs
        widen = rng.uniform(1.0, 1.5, self.block_size)
        order = rng.permutation(self.block_size)
        return [
            Task("spectrum", {"config": int(which[j]), "n": int(sizes[j]),
                              "widen": float(widen[j])})
            for j in order
        ]

    def warmup(self) -> Task:
        return Task("spectrum", {"config": 0, "n": 1000, "widen": 1.0})

    def prepare(self, task: Task) -> None:
        config, pair, _ = self.built[task.params["config"]]
        k1, k2 = pair[0].k_re, pair[1].k_re
        spacing = (k2 - k1) * task.params["widen"]
        lo, hi = k1 - spacing, k2 + spacing
        grid = np.linspace(lo, hi, task.params["n"])
        dk = grid[1] - grid[0]
        if dk > min(r.half_width for r in pair) / 20.0:
            raise ValueError(f"grid step {dk:.3e} too coarse to unwrap the phase")
        task.params.update(lo=lo, hi=hi, dk=dk)
        task.grid = grid[np.abs(grid - self.q) > self.q_exclusion]

    def run(self, task: Task, stage: list):
        config, _, fit = self.built[task.params["config"]]
        k = task.grid
        stage[0] = "cross_section"
        sigma = scattering.cross_section(config, k)
        stage[0] = "phase"
        delta = scattering.phase_shift_unwrapped(config, k)
        stage[0] = "model"
        _, sigma_model = background.model_phase_and_sigma(fit, k)
        deviation = background.hadamard_residual(config, fit, k)
        stage[0] = "landmarks"
        marks = scattering.sigma_landmarks(
            config, task.params["lo"], task.params["hi"], task.params["dk"]
        )
        return sigma, delta, sigma_model, deviation, marks

    def bytes_written(self, task: Task) -> int:
        return 0

    def check(self, task: Task, out) -> Optional[str]:
        sigma, delta, sigma_model, deviation, marks = out
        config = self.built[task.params["config"]][0]
        k = task.grid
        bound = 4.0 * math.pi / k**2
        for name, s in (("sigma", sigma), ("sigma_model", sigma_model)):
            if not _finite(s) or np.any(s < 0) or np.any(s > bound * (1 + 1e-12)):
                return f"{name} outside [0, 4 pi / k^2]"
        if not _finite(delta) or not math.isfinite(deviation):
            return "phase or model deviation not finite"
        if len(marks.minima) < 2:
            return "fewer than two cross-section minima"
        for kk in (task.params["lo"], task.params["hi"]):
            s_abs = abs(scattering.scattering_point(config, kk).S)
            if abs(s_abs - 1.0) > 1e-10:
                return f"|S| - 1 = {s_abs - 1.0:.2e} at k = {kk!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Figures, EnvelopeScan, Spectra)}


def reference_check() -> List[str]:
    """Defaults (alpha = q = 1, a = 5000) against the acceptance-test values."""
    try:
        return _reference_problems()
    except BicscatterError as exc:
        return [f"reference pass raised {type(exc).__name__}: {exc}"]


def _reference_problems() -> List[str]:
    problems = []
    params = darboux.PotentialParams.bic()
    config = scattering.TruncatedConfig(params=params, a=5000.0)
    found = resonances.find_resonances(config)
    want = (complex(0.9989844032, -1.730065e-4), complex(1.0010155756, -1.731296e-4))
    if len(found) != 2 or any(abs(r.k_complex - w) > 1e-6 for r, w in zip(found, want)):
        problems.append(f"reference doublet {[r.k_complex for r in found]} != {want}")
    norm_sq = jost.bound_state(params).norm ** 2
    if abs(norm_sq / (10.0 / 3.0) - 1.0) > 1e-6:
        problems.append(f"reference psi_B norm^2 {norm_sq!r} != 10/3")
    if len(found) == 2:
        fit = background.fit_lambda(config, background.Doublet.from_resonances(*found))
        lam = fit.lambda0 + fit.lambda1
        if abs(lam / -0.8236 - 1.0) > 0.10:
            problems.append(f"reference lambda(1) {lam!r} not within 10% of -0.8236")
    return problems


def measure(wl, task: Task, number: int, tracer=None) -> dict:
    """Run one task; time only the library call, check its output after.

    The record's outcome is certified, refused (a typed error), wrong (the
    output failed its check) or crashed (any other exception).
    """
    if tracer:
        tracer.enabled = False
    wl.prepare(task)
    if tracer:
        tracer.enabled = True
        tracer.task = number
        span = tracer.open(f"cli.{task.kind}" if wl.name == "figures" else "task")
    stage = [""]
    rec = {"kind": task.kind, "outcome": "certified", "error": "", "stage": "", "bytes": 0}
    ok = False
    t = time.perf_counter()
    try:
        out = wl.run(task, stage)
        ok = True
    except TYPED_ERRORS as exc:
        name = exc.error_type if isinstance(exc, Refused) else type(exc).__name__
        rec.update(outcome="refused", error=name, stage=stage[0])
    except Exception as exc:  # the task broke outside the library's error taxonomy
        rec.update(outcome="crashed", error=f"{type(exc).__name__}: {exc}", stage=stage[0])
    finally:
        rec["ms"] = (time.perf_counter() - t) * 1e3
        if tracer:
            tracer.close(span, ok)
    if ok:
        if tracer:
            tracer.enabled = False
        rec["bytes"] = wl.bytes_written(task)
        reason = wl.check(task, out)
        if reason:
            rec.update(outcome="wrong", error=reason, stage=stage[0])
        if tracer:
            tracer.enabled = True
    task.grid = None  # a spectrum grid is up to 8 MB; keep one alive at a time
    return rec


def versions() -> dict:
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": sys.modules["scipy"].__version__}
