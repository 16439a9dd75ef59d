"""Span tracing installed from outside the library.

The tracer replaces the library's public functions with timing wrappers at
every binding through which another module (or the benchmark) reaches them:
the defining module's own attribute, which intra-module calls resolve at call
time, and every ``from .x import f`` copy in the other modules. It also
wraps ``TruncatedConfig.__post_init__`` (the W1 positivity scan) and the
callable that ``root_function`` returns, so that single evaluations of the
root function G are spans too.

Spans carry (layer, start, end, parent, task, ok, size) and stay in memory
until ``write_spans``. ``size`` is the number of k or r points a batched
kernel was called on, or the number of roots ``find_resonances`` returned.
Nothing is installed until ``install`` and ``uninstall`` puts every original
back, so an untraced run executes the library's own objects. While
``enabled`` is false the wrappers pass calls straight through; the harness
clears it around its own output checks.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional

import numpy as np

PACKAGE = "bicscatter"
MODULES = ("darboux", "jost", "numerics", "scattering", "resonances", "background", "cli")
MARK = "__perfbench_traced__"


def _size_of(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(x) for x in arrays)).size)


# layer -> how to count the points a call works on (None: not counted)
LAYERS: Dict[str, Optional[Callable]] = {
    "darboux.w1_bundle": lambda params, r, *a, **k: _size_of(r),
    "darboux.potential_v4": lambda params, r, *a, **k: _size_of(r),
    "darboux.scan_w1_sign": None,
    "jost.uv_bundle": lambda params, k, r, *a, **kw: _size_of(k, r),
    "jost.bound_state": None,
    "numerics.winding_count": None,
    "numerics.newton_complex": None,
    "numerics.adaptive_quadrature": None,
    "numerics.unwrap_phase": None,
    "scattering.dg": lambda config, k, *a, **kw: _size_of(k),
    "scattering.jost_function": None,
    "scattering.regular_solution": None,
    "scattering.phase_shift": lambda config, k, *a, **kw: _size_of(k),
    "scattering.phase_shift_unwrapped": lambda config, k, *a, **kw: _size_of(k),
    "scattering.cross_section": lambda config, k, *a, **kw: _size_of(k),
    "scattering.sigma_landmarks": None,
    "resonances.root_function": None,
    "resonances.find_resonances": None,
    "resonances.gamow_state": None,
    "resonances.sweep_cutoff": None,
    "background.fit_lambda": None,
    "background.hadamard_residual": None,
    "background.model_phase_and_sigma": lambda fit, k, *a, **kw: _size_of(k),
}
CONFIG_LAYER = "scattering.TruncatedConfig"
# the README's command lines; the benchmark times each as layer cli.<command>
FIGURE_COMMANDS = (
    "w1", "w1_scan", "potential", "resonances", "resonances_wide", "gamow",
    "phase-shift", "cross-section", "fit-background", "sweep-cutoff",
)
G_LAYER = "resonances.G"
QUAD_EVALS = "numerics.adaptive_quadrature.evals"


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.task = -1
        self.enabled = True
        self.counters: Dict[str, int] = {}
        self._restore: List[tuple] = []

    # ----------------------------------------------------------- recording

    def open(self, layer: str, size: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter_ns(), 0, parent, self.task, True, size])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = ok
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, layer: str, fn: Callable, sizer: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(layer, sizer(*args, **kwargs) if sizer else 0)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer.close(idx, ok)
            return post(idx, out) if post else out

        setattr(traced, MARK, layer)
        return traced

    # ------------------------------------------------------- installation

    def install(self) -> None:
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        mods.append(importlib.import_module(PACKAGE))
        wrappers = {}
        for layer in LAYERS:
            mod_name, attr = layer.split(".")
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            wrappers[id(fn)] = self._wrapper_for(layer, fn)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, w)
        cfg_cls = importlib.import_module(f"{PACKAGE}.scattering").TruncatedConfig
        post_init = cfg_cls.__dict__["__post_init__"]
        self._restore.append((cfg_cls, "__post_init__", post_init))
        cfg_cls.__post_init__ = self.wrap(CONFIG_LAYER, post_init)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrapper_for(self, layer: str, fn: Callable) -> Callable:
        if layer == "resonances.root_function":
            return self.wrap(layer, fn, post=lambda idx, g: self.wrap(G_LAYER, g))
        if layer == "resonances.find_resonances":
            def record_roots(idx, found):
                self.spans[idx][6] = len(found)
                return found
            return self.wrap(layer, fn, post=record_roots)
        if layer == "numerics.adaptive_quadrature":
            # count integrand evaluations without a span per evaluation
            traced = self.wrap(layer, fn)

            @functools.wraps(fn)
            def counted(f, *args, **kwargs):
                def integrand(x):
                    if self.enabled:
                        self.count(QUAD_EVALS)
                    return f(x)
                return traced(integrand, *args, **kwargs)

            setattr(counted, MARK, layer)
            return counted
        return self.wrap(layer, fn, LAYERS[layer])

    # --------------------------------------------------------- aggregation

    def aggregate(self) -> Dict[str, dict]:
        """Per layer: calls, failures, inclusive ns, self ns, size, and the
        G evaluations made directly under it."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for layer, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        stats: Dict[str, dict] = {}
        for i, (layer, t0, t1, parent, _task, ok, size) in enumerate(spans):
            st = stats.setdefault(
                layer,
                {"calls": 0, "failures": 0, "ns": 0, "self_ns": 0, "size": 0, "g_evals": 0},
            )
            st["calls"] += 1
            st["failures"] += 0 if ok else 1
            st["self_ns"] += (t1 - t0) - child_ns[i]
            st["size"] += size
            if not self._nested_in_same(i):
                st["ns"] += t1 - t0
            if layer == G_LAYER:
                owner = self._g_owner(i)
                if owner is not None:
                    stats.setdefault(
                        owner,
                        {"calls": 0, "failures": 0, "ns": 0, "self_ns": 0, "size": 0,
                         "g_evals": 0},
                    )["g_evals"] += 1
        return stats

    def _nested_in_same(self, i: int) -> bool:
        layer = self.spans[i][0]
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == layer:
                return True
            p = self.spans[p][3]
        return False

    def _g_owner(self, i: int) -> Optional[str]:
        p = self.spans[i][3]
        while p >= 0:
            name = self.spans[p][0]
            if name in ("numerics.winding_count", "numerics.newton_complex",
                        "resonances.find_resonances"):
                return name
            p = self.spans[p][3]
        return None

    def write_spans(self, path: str) -> None:
        """One CSV row per span: layer, start_ns, end_ns, parent, task, ok, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,start_ns,end_ns,parent,task,ok,size\n")
            for layer, t0, t1, parent, task, ok, size in self.spans:
                fh.write(f"{layer},{t0},{t1},{parent},{task},{int(ok)},{size}\n")


def leaked_wrappers() -> List[str]:
    """Names of library bindings that are tracing wrappers right now."""
    found = []
    pkg = importlib.import_module(PACKAGE)
    mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES] + [pkg]
    for mod in mods:
        for name, value in vars(mod).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{mod.__name__}.{name}")
    cfg_cls = importlib.import_module(f"{PACKAGE}.scattering").TruncatedConfig
    if getattr(cfg_cls.__dict__["__post_init__"], MARK, None) is not None:
        found.append(f"{cfg_cls.__module__}.TruncatedConfig.__post_init__")
    return found
